(** BDD-based patch computation over the window primary inputs: the
    1990s-ECO-era route (cf. Lin-Chen-Marek-Sadowska, TCAD'99) kept as a
    second comparison point next to SAT interpolation.

    The patch interval is [M(0,x), ¬M(1,x)]: everything the onset demands,
    nothing the offset forbids; Minato-Morreale ISOP picks an irredundant
    prime cover inside the interval (exploiting the don't-cares), which is
    then factored like any other patch. *)

type result = {
  patch : Patch.t;
  bdd_nodes : int;  (** peak-ish: nodes of onset + careset BDDs *)
  cubes : int;
}

val compute :
  Miter.t -> m_i:Aig.lit -> target:string -> window:Window.t -> result option
(** [None] when the window has more than 24 primary
    inputs — BDDs over wide supports are exactly what the paper's SAT
    formulation avoids.  Raises [Failure] if the target cannot rectify the
    window (the interval is empty). *)
