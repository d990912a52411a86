(** Fixed pool of worker domains with a bounded job queue.

    ECO units are embarrassingly parallel — every unit of a sweep is an
    independent solve over its own solver/AIG instances — so the batch
    surfaces ([bench table1 -j N], [eco-patch batch -j N]) fan units out
    over a fixed set of domains.  The pool provides the three guarantees
    those surfaces need:

    - {b exception isolation} — a job that raises yields an [Error] for
      that job only; the workers and the rest of the batch keep going;
    - {b deterministic result ordering} — {!map} returns results in input
      order (by job index), whatever the completion order was;
    - {b bounded memory} — {!submit} blocks while the queue is full, so a
      producer cannot race ahead of the workers unboundedly.

    Worker [i] pins its telemetry domain id to [i + 1]
    ({!Telemetry.set_domain_id}; the submitting domain keeps id 0), so
    trace events group by worker consistently across runs.

    Jobs must not {!submit} to (or {!wait} on) their own pool: with the
    queue full, a submitting job would deadlock against itself. *)

type t

val create : ?queue_capacity:int -> int -> t
(** [create n] spawns [n] worker domains ([n >= 1]; capped at 128).  The
    queue holds at most [queue_capacity] pending jobs (default
    [2 * n]). *)

val size : t -> int
(** Number of worker domains. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueues a job, blocking while the queue is full.  A job's exception
    is caught and dropped by the worker — wrap the body if the outcome
    matters (as {!map} does).  Raises [Invalid_argument] after
    {!shutdown}. *)

val wait : t -> unit
(** Blocks until every job submitted so far has completed. *)

val shutdown : t -> unit
(** Waits for all submitted jobs, then stops and joins the workers.
    Idempotent. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** [map ~jobs f xs] applies [f] to every element on a temporary pool of
    [min jobs (length xs)] workers and returns the results in input
    order, each an [Ok] or the exception that job raised.

    With [jobs <= 1] (the default) no domain is spawned: [f] runs
    sequentially in the calling domain, preserving single-threaded
    behaviour exactly — byte-identical telemetry, same domain ids.  This
    is what makes [-j 1] the identity configuration. *)
