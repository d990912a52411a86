(** The top-level ECO flow of Figure 2: window computation, miter
    construction, feasibility checking, per-target support selection and
    patch-function computation with substitution, structural fallback, and
    final verification. *)

type method_ =
  | Baseline  (** support from [analyze_final] only — Table 1 columns 7–9 *)
  | Min_assume  (** Algorithm 1 + last gasp — the contest winner, cols 10–12 *)
  | Exact
      (** SAT_prune minimum support + CEGAR_min — cols 13–15.  [Exact]
          also decides feasibility by CEGAR 2QBF (retaining its
          certificate for the structural multi-target patch) and runs
          CEGAR_min over structural patches; the other methods use the
          quantified-miter CEC unless there are more than 10 targets. *)

type config = {
  method_ : method_;
  force_structural : bool;
      (** skip the feasibility check and the SAT pipeline, emulating a
          feasibility timeout; verification gets 10,000 conflicts per
          query instead of 40,000 *)
  verify : bool;
  certify : bool;
      (** independently certify every final SAT/UNSAT verdict of the run
          (feasibility, support cores, prime cubes, verification) against
          the original clause sets via {!Cert}; outcomes land in the
          [cert.*] telemetry counters.  The searches themselves are
          unchanged — certification only taps clause logs and replays
          proofs afterwards.  The 2QBF feasibility path produces no
          clause-level proof object and stays uncertified. *)
}

val config_of_method : method_ -> config
val default_config : config

val sat_budget : int
(** Conflicts per SAT call of the support search and the patch
    computation (60,000).  Every limit inside {!solve} is such a
    constant; ARCHITECTURE.md lists them. *)

val max_cubes : int
(** Prime cubes per target before the structural fallback (400). *)

val union_cost : ?weights:Netlist.Weights.weights -> Patch.t list -> int
(** Total weight of the distinct support signals across the patches.
    When two patches carry different costs for the same signal, the
    netlist-declared [weights] entry wins; without [weights] the minimum
    carried cost is used — the result never depends on patch-list
    order. *)

type status = Solved | Infeasible | Failed of string

type outcome = {
  status : status;
  patches : Patch.t list;
  cost : int;  (** total weight of the distinct support signals *)
  gates : int;  (** total patch AND-gates *)
  depth : int;  (** maximum structural depth over the patches *)
  time : float;  (** wall-clock seconds *)
  verified : bool option;
  used_structural : bool;
  sat_calls : int;
  notes : (string * int) list;
      (** auxiliary counters: cubes, 2QBF iterations, miter copies, … *)
}

val solve : ?config:config -> ?window:Window.t -> Instance.t -> outcome
(** Every search limit inside [solve] is counted (conflicts, cubes,
    hitting-set nodes, sweep queries), never timed: the outcome, counters
    included, depends only on the build, instance and config; only
    [time] varies.

    [?window] overrides the computed rectification window — for callers
    that restrict the divisor candidates (tests, external windowing).  A
    target with no patch function over the window's divisors after earlier
    substitutions no longer fails the unit when feasibility was
    established: it is routed to the structural fallback and the finished
    patches are kept. *)

val pp_outcome : Format.formatter -> outcome -> unit

val discover_targets : ?config:Diff.Discover.config -> Instance.t -> Diff.Discover.result
(** Automatic target discovery by SAT-based netlist diffing
    ({!Diff.Discover}): per-output equivalence anchoring over shared PIs
    followed by a minimal-correction-set search with SAT rectifiability
    checks.  Any targets the instance already carries are ignored; solve
    the returned set via {!Instance.with_targets}.  Discovery is outside
    the certification trust boundary — the engine re-checks feasibility
    and verifies the patch as for planted targets. *)
