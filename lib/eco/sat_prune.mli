(** SAT-based exact pruning (§3.4.2): minimum-cost patch support.

    Realized as an implicit-hitting-set loop — the modern formulation of
    the paper's "iteratively prune the search space by adding new clauses":
    an infeasible candidate subset S yields the refinement clause "at least
    one divisor whose two copies differ in the counterexample must be
    selected" (blocking infeasible divisors), and the exact hitting-set
    solver enforces the cost bound (blocking selections that cannot beat
    the current minimum).  When the candidate hitting set is feasible its
    cost equals the true minimum, because the hitting-set cost lower-bounds
    every feasible support.  Guarantees a cost-minimum patch support for a
    single target; for multiple targets the per-target optima may compose
    into a global local optimum, as the paper observes on unit9/unit17. *)

type outcome = {
  selection : Support.selection option;  (** [None]: infeasible *)
  iterations : int;
}

val minimum_support :
  ?budget:int ->
  ?max_nodes:int ->
  ?incumbent:Support.selection ->
  Two_copy.t ->
  outcome
(** [incumbent] is a known feasible selection (e.g. the
    [minimize_assumptions] result): as soon as the hitting-set lower bound
    reaches its cost the incumbent is returned as provably minimum, which
    prunes most of the refinement loop.  Every limit is counted:
    [budget] conflicts per SAT call, 150 refinement rounds, and [max_nodes] (default unlimited) hitting-set
    nodes over the whole search, of which each
    {!Diff.Hitting_set.minimum} call gets what is left.  Raises
    {!Min_assume.Budget_exhausted} when any of them runs out. *)
