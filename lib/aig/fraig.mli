(** SAT sweeping (fraiging): merging functionally equivalent AIG nodes.

    Candidate equivalences come from multi-round bit-parallel simulation
    (complement-normalized signatures); each candidate pair is confirmed by
    an incremental SAT query before merging.  This is the AIG-level
    cleanup ABC applies when the paper's patch SOPs are "factored and
    synthesized"; the engine can run it over patch circuits to shrink the
    reported gate counts further. *)

type stats = {
  sim_classes : int;  (** non-singleton signature classes examined *)
  proved : int;  (** SAT-confirmed merges *)
  refuted : int;  (** candidates the SAT query showed inequivalent *)
  undecided : int;  (** candidates whose query hit the conflict budget *)
  nodes_before : int;
  nodes_after : int;
}

val sweep :
  ?rounds:int ->
  ?budget:int ->
  ?max_queries:int ->
  ?max_passes:int ->
  Graph.t ->
  Graph.t * stats
(** Returns a fresh manager computing the same outputs over the same
    inputs (in order), with proven-equivalent internal nodes shared.
    [budget] caps conflicts per equivalence query (default 2000); an
    undecided query is treated as inequivalent.  Once the sweep has made
    [max_queries] SAT queries (default unlimited) or has 500 refuted
    plus undecided candidates over all its passes, the remaining
    candidates stay unmerged; each node tries at most 4 candidates. *)
