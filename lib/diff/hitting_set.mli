(** Exact minimum-weight hitting set by branch-and-bound: the inner engine
    of {!Sat_prune}'s implicit-hitting-set loop and of {!Discover}'s
    search.

    A {!t} holds a growing set of clauses over elements that index into a
    fixed weight array.  Callers keep one per loop and {!add} each
    refinement clause as it is found; every clause is normalised once, on
    addition, and indexed by per-element occurrence lists, so a search
    node costs cover-counter updates instead of rescanning every clause.
    The answers, and the nodes visited to find them, are those of a
    search over the clause {e list} kept in [List.sort_uniq compare]
    order. *)

type t

val create : weights:int array -> t
(** An empty clause set over elements [0 .. Array.length weights - 1]. *)

val add : t -> int list -> unit
(** [add t clause] adds "at least one element of [clause] is chosen".
    Element order and repeats inside [clause] do not matter.  Adding the
    same clause twice keeps both copies for {!greedy}'s scores; the exact
    search sees it once. *)

val of_list : weights:int array -> int list list -> t
(** {!create} followed by {!add} of each clause. *)

exception Node_limit
(** Raised when the branch-and-bound exceeds its node cap. *)

val minimum : ?max_nodes:int -> ?nodes:int ref -> t -> int list option
(** A minimum-total-weight set of elements hitting every clause, sorted
    ascending, or [None] when some clause is empty.  It branches on the
    first shortest uncovered clause, its elements cheapest-first (ties to
    the smaller element), with {!greedy} as the initial upper bound.
    Exponential worst case; intended for the moderate clause sets the
    SAT_prune loop produces.  At most [max_nodes] (default 200,000)
    branch-and-bound nodes are visited; the count is booked under
    [hs.nodes] and added to [nodes], also on {!Node_limit}. *)

val greedy : t -> int list option
(** Weighted greedy cover, sorted ascending: the initial upper bound of
    {!minimum}, and a fallback for callers whose search ran out.  Scores
    count every added copy of a clause. *)
