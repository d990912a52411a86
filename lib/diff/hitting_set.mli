(** Exact minimum-weight hitting set by branch-and-bound: the inner engine
    of {!Sat_prune}'s implicit-hitting-set loop. *)

exception Node_limit
(** Raised when the branch-and-bound exceeds its node cap. *)

val minimum :
  ?max_nodes:int -> ?nodes:int ref -> weights:int array -> int list list -> int list option
(** [minimum ~weights clauses] returns a minimum-total-weight set of
    elements hitting every clause (each clause is a list of element
    indices), or [None] when some clause is empty.  Elements index into
    [weights].  Exponential worst case; intended for the moderate clause
    sets the SAT_prune loop produces.  At most [max_nodes] (default
    200,000) branch-and-bound nodes are visited; the count is booked
    under [hs.nodes] and added to [nodes], also on {!Node_limit}. *)

val greedy : weights:int array -> int list list -> int list option
(** Weighted greedy cover, used as the initial upper bound (and exposed for
    tests/ablation). *)
