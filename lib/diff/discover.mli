(** Automatic target discovery by SAT-based netlist diffing.

    A real ECO flow is handed only the old implementation and the new
    specification; the target signals — where to cut the implementation
    open — must be found, not given.  This module recovers them in two
    phases:

    {ol
    {- {b Anchoring.}  Both netlists are converted into one AIG over
       shared primary-input literals and compared output by output,
       FRAIG-style: multi-round bit-parallel simulation signatures
       separate the obviously-different pairs, and the survivors are
       confirmed by SAT equivalence queries.  Outputs proven equivalent
       are {e anchors} — unchanged logic the patch must not disturb; the
       rest form the mismatched region.}
    {- {b Minimal-correction-set search.}  Candidate cut points are the
       internal implementation signals feeding a mismatched output.  An
       implicit-hitting-set loop (the {!Hitting_set} branch-and-bound
       under accumulated refinement clauses, mirroring [Eco.Sat_prune])
       proposes minimum-weight candidate sets; each proposal is vetted by
       a rectifiability check on the per-output (and then the joint)
       miter: "for every input are there values of the freed signals
       making old ≡ new?", i.e. is the set sufficient (expression (1) of
       the paper, with the discovered set in the role of the target
       inputs [n]).  One {!Rectify} oracle answers every check of a run:
       a verifier holds the implementation converted once with every
       candidate relaxed behind an activation input, so a proposal is an
       assumption set, and a synthesis solver per miter expands the
       universal over the freed values one counterexample at a time,
       keeping its copies from one proposal to the next.  Insufficiency
       of a proposal yields a new refinement clause over the
       corresponding output cone, and the loop repeats.}}

    The returned set is verified-sufficient whenever [minimum] is [true];
    it is additionally minimum-weight over the candidate pool under the
    per-cone refinement clauses.  Joint interactions between cones (a cut
    that rectifies every cone separately but not simultaneously) are
    refined with a coarser clause that preserves soundness of the search
    but can skip past an optimal set — such runs, and runs that exhaust
    their iteration or node budgets and fall back to freeing the
    mismatched output drivers, report [minimum = false].

    Progress lands in the [diff.*] telemetry counters.  Trust boundary:
    discovery itself is {e not} certified — it only proposes targets; the
    engine re-establishes feasibility and verifies (and optionally
    certifies) the patched netlist exactly as it does for planted
    targets. *)

type config = {
  max_iterations : int;  (** hitting-set refinement rounds before fallback *)
  deadline : float;  (** wall-clock seconds for the search; 0 = unlimited *)
}

val default_config : config
(** 400 iterations, 120 s.  The other limits are constants: 8
    simulation rounds for anchoring, 20,000 conflicts per anchoring query,
    40,000 per rectifiability check (summed over the check's solves) and
    200,000 branch-and-bound nodes per proposal (then greedy). *)

type result = {
  targets : string list;  (** discovered cut set, topological order *)
  cost : int;  (** total weight of [targets] *)
  anchored : string list;  (** outputs proven equivalent *)
  mismatched : string list;  (** outputs needing rectification *)
  candidates : int;  (** candidate cut points considered *)
  iterations : int;  (** hitting-set proposals examined *)
  checks : int;  (** rectifiability checks asked of the oracle *)
  minimum : bool;
      (** the set is verified sufficient and minimum-weight over the
          candidate pool (no fallback, budget exhaustion or coarse joint
          refinement) *)
  time : float;  (** wall-clock seconds *)
}

val run :
  ?config:config ->
  ?check_budget:int ->
  impl:Netlist.t ->
  spec:Netlist.t ->
  weights:Netlist.Weights.weights ->
  unit ->
  result
(** Discovers a target set.  [targets = []] means the netlists are already
    equivalent (every output anchored).  [check_budget] (default
    40,000) caps the conflicts of one rectifiability check; a check that
    hits it is [`Unknown], which clears [minimum].  Raises [Failure] when the
    mismatch cannot be rectified by freeing internal implementation
    signals (a mismatched output is driven directly by a primary
    input). *)
