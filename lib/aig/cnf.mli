(** Tseitin encoding of AIG cones into a SAT solver.

    An environment memoizes the node-to-variable mapping, so repeated and
    incremental encodings of overlapping cones share variables — the
    property the ECO engine relies on when it keeps one solver alive across
    the support-minimization and cube-enumeration phases. *)

type env

val create : ?part:Sat.Proof.part -> Graph.t -> Sat.Solver.t -> env
(** [part] tags every emitted clause with an interpolation partition
    (requires a proof-logging solver); used by the interpolation-based
    patch computation.  Without it, clauses go through
    {!Sat.Solver.add_clause}, so a tap installed with
    {!Sat.Solver.set_tap} sees every one of them. *)

val lit : env -> Graph.lit -> Sat.Lit.t
(** [lit env l] returns the solver literal for AIG literal [l], encoding the
    cone of [l] (clauses for every AND node not yet encoded) on demand.
    The constant is encoded with a dedicated variable fixed to false. *)

val lit_opt : env -> Graph.lit -> Sat.Lit.t option
(** Like {!lit} but returns [None] instead of encoding when the node has no
    variable yet. *)

val solver : env -> Sat.Solver.t
val manager : env -> Graph.t
