(** CEGAR solver for 2QBF formulas of the form [exists X forall Y. phi],
    where [phi] is an AIG literal.

    This is the engine behind two pieces of the paper:
    - the §3.2 feasibility alternative (evaluating expression (1),
      [exists x forall n. M(n, x)], "directly using command qbf in ABC");
    - the §3.6.2 structural multi-target patch, which consumes the
      counterexample set gathered during an UNSAT run (the certificate): far
      fewer miter cofactors than the full 2^k enumeration. *)

type answer =
  | Sat of bool array
      (** Witness assignment of the existential inputs, in [exists_inputs]
          order. *)
  | Unsat of bool array list
      (** Certificate: universal-player counterexamples [y*] (in
          [forall_inputs] order) whose cofactor conjunction
          [AND_j phi(X, y_j)] is unsatisfiable. *)
  | Unknown

type stats = { iterations : int; synth_conflicts : int; verif_conflicts : int }

val solve :
  ?budget:int ->
  Aig.t ->
  phi:Aig.lit ->
  exists_inputs:Aig.lit list ->
  forall_inputs:Aig.lit list ->
  answer * stats
(** The two input lists must cover every input in the support of [phi]
    (inputs outside both lists are treated as existential).  [budget]
    caps conflicts per SAT call (0 = unlimited); after 10,000 CEGAR
    iterations the answer is [Unknown]. *)
