(** Patch function computation by cube enumeration (§3.5).

    Given the quantified one-target miter M_i(n, x) and a sufficient
    divisor subset d, enumerates the onset of the patch: each satisfying
    assignment of M_i under n = 0 yields a divisor-space point; the point
    is expanded to a prime cube by [minimize_assumptions] against the
    offset (M_i under n = 1), blocked, and collected.  The loop ends with
    an irredundant prime SOP which is factored and synthesized — no
    general interpolation needed. *)

type result = {
  patch : Patch.t;
      (** the factored patch exactly as enumerated; the engine substitutes
          and commits it *)
  cubes_enumerated : int;
  sat_calls : int;
}

type partial = { partial_sat_calls : int; partial_cubes : int }
(** Solver effort spent before an aborted enumeration gave up. *)

exception Exhausted of partial
(** Raised instead of [Min_assume.Budget_exhausted] when {!compute} aborts
    (conflict budget or cube cap), carrying the SAT calls and
    cubes already spent so the caller can account for them — an aborted
    enumeration is real solver effort, and dropping it made
    structural-fallback rows under-report [sat_calls]. *)

val compute :
  ?budget:int ->
  ?certify:bool ->
  ?max_cubes:int ->
  Miter.t ->
  m_i:Aig.lit ->
  target:string ->
  chosen:int list ->
  result
(** [chosen] are divisor indices into the miter's divisor array.  The
    divisor subset must be sufficient (expression (2) unsatisfiable), as
    established by {!Support} — otherwise the enumeration detects the
    inconsistency and raises [Failure].  Raises {!Exhausted} (with the
    partial effort counts) when a SAT call runs out of its [budget]
    conflicts or the enumeration passes [max_cubes] primes (default
    50,000).

    With [~certify:true], every accepted prime's offset-UNSAT core and the
    terminating onset-UNSAT verdict are independently certified (see
    {!Cert}); outcomes land in the [cert.*] telemetry counters.  The
    enumeration itself is unchanged. *)
