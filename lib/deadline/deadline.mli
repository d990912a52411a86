(** Wall-clock deadlines with one shared semantics.

    Only two callers bound their work by elapsed {e wall-clock} time: the
    ECO server, which rejects a request whose [deadline_ms] elapses
    before its job starts, and target discovery
    ([Diff.Discover.config.deadline]).  [Eco.Engine.solve] uses none:
    every limit inside it is a counted budget (conflicts, cubes,
    hitting-set nodes, sweep queries), so its outcome never depends on
    the machine load or the [-j] level.

    Deadlines are wall time, not CPU time, on purpose: a request's
    admission budget should hold whether the process has the machine to
    itself or shares it with other worker domains. *)

type t

val never : t
(** The deadline that never expires. *)

val after : float -> t
(** [after s] expires [s] wall-clock seconds from now.  Any [s <= 0.0]
    means "disabled" and returns {!never}. *)

val expired : t -> bool
(** Polls the clock; [false] forever on {!never}. *)
