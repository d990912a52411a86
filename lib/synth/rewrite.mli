(** DAG-aware rewriting of AIGs with 4-input cuts and a weighted
    gates/depth cost (ABC [rewrite] / mockturtle [cut_rewriting] style).

    Two passes over the source graph.  Pass 1 decides: for every AND
    node (in topological order) it enumerates [k ≤ 4]-feasible cuts,
    tabulates each cut function, asks {!Table} for an optimal
    replacement, and scores it as

    {[ 4 · (gates added − MFFC gates freed)
       + 1 · (new level − old level) ]}

    where the freed gates are counted by a deref/reref walk of the cut's
    maximum fanout-free cone — the ABC-style gain measure that makes the
    pass DAG-aware: logic shared with the rest of the graph is never
    counted as savings.  Only strictly negative scores are accepted.
    Pass 2 rebuilds top-down from the outputs, memoised per node, so the
    logic displaced by an accepted replacement is simply never
    constructed.  Callers still accept or reject the rewritten graph as
    a whole (Pareto on gates/depth), so a locally-greedy misstep can
    never degrade the committed patch.

    The pass never changes the function: every replacement implements
    the exact cut truth table, and replacements whose tables the exact
    engine cannot crack fall back to the default reconstruction. *)

val run :
  ?budget:int ->
  ?deadline:Deadline.t ->
  Aig.t ->
  Aig.t
(** [run src] returns a functionally-equivalent rebuild of [src] (same
    inputs in order, same outputs in order).  [budget] (default 5_000)
    bounds each lazy table-fill SAT call; once [deadline] expires the
    remaining nodes are rebuilt verbatim. *)
