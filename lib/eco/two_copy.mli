(** The expression-(2) SAT instance:

    M(0, x1) & M(1, x2) & R(d, x1) & R(d, x2)

    Two copies of the (single-target) miter over independent input sets,
    with an auxiliary selector variable per candidate divisor: assuming a
    selector forces the divisor's two copies equal, making it a usable
    common variable.  Unsatisfiability under a selector subset means that
    divisor subset suffices to express the patch.  Every target gets a
    fresh instance, as in the paper's one-target-at-a-time flow (§3.1). *)

type t

val build : ?certify:bool -> Miter.t -> m_i:Aig.lit -> target:string -> t
(** [build miter ~m_i ~target] encodes the two copies of the quantified
    one-target miter [m_i] (whose only remaining target input is [target])
    together with the divisor-equality selectors.  With [~certify:true] the
    instance's original clause set is recorded so final verdicts can be
    certified ({!certify_core}, {!certify_model}); the search itself is
    unchanged. *)

val n_divisors : t -> int

val selector : t -> int -> Sat.Lit.t
(** Positive selector literal of divisor [i] (miter divisor order =
    ascending cost). *)

val divisor : t -> int -> Miter.divisor

val index_of_selector : t -> Sat.Lit.t -> int option
(** Divisor index of a (positive) selector literal, via a var-keyed hash
    table — constant-time, replacing the quadratic per-core-literal array
    scans. *)

val solve_with : ?budget:int -> t -> Sat.Lit.t list -> Sat.Solver.result
(** Solves under the given selector assumptions. *)

val unsat_with : ?budget:int -> t -> Sat.Lit.t list -> bool
(** [true] iff UNSAT under the assumptions.  Raises
    {!Min_assume.Budget_exhausted} when the budget runs out. *)

val final_conflict : t -> Sat.Lit.t list
(** After an UNSAT {!solve_with}: the selector subset in the final
    conflict — the baseline ([analyze_final]-only) support computation. *)

val model_divisor_mismatch : t -> int list
(** After a SAT {!solve_with}: indices of divisors whose two copies differ
    in the model — at least one of them must join any sufficient support
    (the SAT_prune refinement clause). *)

(** {2 Certification} *)

val certify_core : t -> string -> Sat.Lit.t list -> unit
(** [certify_core t site assumptions] independently certifies that the
    instance is UNSAT under [assumptions] (a claimed sufficient selector
    set or core) by re-derivation and proof replay, booked in the
    [cert.*] counters under site [site] ({!Cert.record}).  A no-op when
    the instance was built without [~certify]. *)

val certify_model : t -> string -> unit
(** After a SAT {!solve_with}: certifies the model against the recorded
    original clause set, booked as {!certify_core} does.  A no-op when
    built without [~certify]. *)

val solver_calls : t -> int
(** Completed solver calls on this instance. *)
