(** CEGAR_min (§3.6.3): quality improvement of structural patches by
    maximum-flow/min-cut resubstitution.

    Given a patch in terms of primary inputs, find implementation signals
    functionally equivalent to internal patch signals (candidate matches
    by bit-parallel simulation, confirmed by SAT), treat every matched
    patch node as cuttable at the cost of its cheapest equivalent
    implementation signal, and compute a minimum-weight node cut between
    the patch inputs and its root.  The cut signals become the new patch
    support: the logic below the cut is discarded. *)

type stats = {
  candidates : int;  (** simulation-matched pairs examined *)
  confirmed : int;  (** SAT-confirmed equivalences *)
  cut_value : int;
  improved : bool;
}

val improve : ?free:string list -> Miter.t -> Patch.t -> Patch.t * stats
(** [improve miter patch] requires the patch support to be a subset of the
    miter's x inputs (a structural patch).  Returns the original patch
    unchanged when no cheaper cut exists.  Signals in [free] are treated as
    already paid for (used by sibling patches), pricing at zero — the
    knob that makes the improvement union-cost-aware for multi-target
    ECOs.  Its limits are constants: 4 simulation rounds, at most 600
    SAT confirmations of 20,000 conflicts each, 4 tries per patch node. *)
