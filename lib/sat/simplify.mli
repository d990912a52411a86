(** SatELite-style CNF preprocessing layered over {!Solver}.

    A {!t} wraps a backend {!Solver.t} and interposes on clause addition:
    clauses are buffered, simplified, and only then handed to the solver.
    The first {!solve} (or an explicit {!simplify}) runs the full
    SatELite pipeline of Eén & Biere — backward subsumption and
    self-subsuming resolution driven by occurrence lists with Bloom
    signature prefilters, bounded variable elimination with resolvent
    count and length limits, and failed-literal probing — after which the
    surviving clauses are immutable in the backend and later additions
    pass straight through (MiniSAT SimpSolver semantics: re-simplifying
    against an ever-growing database would be quadratic on
    clause-streaming workloads such as cube enumeration).

    {b Frozen-variable contract.}  Variable elimination removes a
    variable's clauses from the solver, so any variable whose value is
    observed from outside — assumption literals, Tseitin output literals
    read back with {!value}, proof-relevant selectors — must be protected
    with {!freeze} / {!freeze_var} {e before} the first [solve].
    Assumption literals passed to {!solve} are frozen automatically, and
    freezing (or re-mentioning in a clause) an already-eliminated variable
    transparently reintroduces its saved clauses, so correctness never
    depends on freezing; only the quality of the caller's model reads
    does.

    {b Model-extension stack.}  Each variable elimination pushes an entry
    onto a stack.  After a satisfiable answer, {!value} and {!model}
    replay that stack newest-first, assigning each eliminated variable so
    all its saved clauses are satisfied — so callers see total models over
    the original CNF, not the rewritten one.

    {b Repeated calls.}  Only the first {!simplify} (usually via the first
    {!solve}) runs the preprocessing pipeline.  Every later call is a
    pass-through that only flushes buffered clauses to the backend; it is
    counted in [skipped_passes] of {!stats} so callers are not misled by
    otherwise success-shaped results.

    A simplifier created over a proof-logging solver (or with the global
    {!enabled} toggle off) degrades to a transparent pass-through:
    elimination rewrites clauses without logging derivations, which would
    leave holes in the resolution proof. *)

type t

val enabled : bool ref
(** Process-wide default for {!create}'s [?enabled] argument ([true]
    initially).  The [--no-simplify] CLI flag clears it. *)

val create : ?enabled:bool -> Solver.t -> t
(** [create solver] wraps [solver].  [?enabled] defaults to [!]{!enabled};
    when [false], or when [solver] logs proofs, the result is a
    pass-through and {!is_enabled} is [false]. *)

val solver : t -> Solver.t
(** The backend solver.  Reading models directly from it after
    simplification is wrong — eliminated variables carry stale values;
    use {!value} / {!model} on the simplifier instead. *)

val is_enabled : t -> bool
(** Whether this instance actually simplifies (see {!create}). *)

val set_tap : t -> (Lit.t array -> unit) -> unit
(** Installs an observer invoked with (a private copy of) every clause
    subsequently added through {!add_clause} / {!add_clause_a}, with the
    caller's original literals — before deduplication, tautology dropping,
    or any preprocessing.  This is how the certification layer ([Cert])
    records the pre-simplification clause set that final models are
    checked against; it never affects solving. *)

val add_clause : t -> Lit.t list -> unit
(** Buffers a clause for the next {!simplify} / {!solve}.  Tautologies are
    dropped and duplicate literals merged immediately.  An empty clause
    makes the backend permanently unsatisfiable. *)

val add_clause_a : t -> Lit.t array -> unit
(** Array variant of {!add_clause}; the array is copied, not captured. *)

val freeze : t -> Lit.t -> unit
(** [freeze t l] protects [l]'s variable from elimination (see the
    frozen-variable contract above). *)

val freeze_var : t -> int -> unit
(** Variable-index variant of {!freeze}.  Reintroduces the variable's
    clauses if it was already eliminated. *)

val thaw_var : t -> int -> unit
(** Removes the elimination protection from a variable.  Takes effect at
    the next simplification pass. *)

val is_frozen : t -> int -> bool
val is_eliminated : t -> int -> bool
(** Whether the variable is currently eliminated (its clauses replaced by
    resolvents, its model value reconstructed by extension). *)

val simplify : t -> unit
(** Flushes pending clauses to the backend: the full preprocessing
    pipeline runs on the first call; every later call is a pass-through
    that only flushes pending clauses (reintroducing any eliminated
    variable they mention) and increments [skipped_passes] in {!stats} —
    it performs {e no} simplification.  Called implicitly by {!solve};
    explicit calls are only needed to observe {!stats} without
    solving. *)

val solve : ?assumptions:Lit.t list -> t -> Solver.result
(** Freezes the assumption variables, runs {!simplify}, and decides the
    simplified clause set.  Equisatisfiable with the original CNF, and
    {!Solver.final_conflict} cores on the backend remain valid: elimination
    preserves equivalence over the remaining (in particular all frozen)
    variables. *)

val value : t -> Lit.t -> bool
(** Model value of a literal after [Sat], extended over eliminated
    variables via the model-extension stack.  Raises [Invalid_argument]
    for variables the simplifier has never seen, or if the last answer was
    not [Sat]. *)

val model : t -> bool array
(** Full extended model after [Sat], indexed by variable. *)

type stats = {
  subsumed : int;  (** clauses deleted by backward/forward subsumption *)
  strengthened : int;  (** literals removed by self-subsuming resolution *)
  eliminated : int;  (** variables removed by bounded variable elimination *)
  probe_failed : int;  (** failed literals found (and asserted) by probing *)
  reintroduced : int;  (** eliminated variables brought back by later use *)
  skipped_passes : int;
      (** simplify calls after the first that skipped the pipeline *)
}

val stats : t -> stats
(** Per-instance counters.  The same figures also accumulate process-wide
    in the [sat.simplify.*] {!Telemetry} counters ([skipped_passes] is
    instance-local only). *)

val pp_stats : Format.formatter -> t -> unit
