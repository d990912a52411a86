(** Incremental rectifiability oracle for target discovery.

    Answers expression (1) of the paper for a proposed cut [S]: "for
    every input [x], do some values [z] of the freed signals make the
    implementation agree with the specification?"  One oracle serves a
    whole {!Discover.run}, and the universal over [z] is expanded lazily,
    one counterexample at a time, as in a CEGAR 2QBF solver:

    {ul
    {- {b Verifier, one per run.}  The implementation is converted once
       with every candidate [c] relaxed to [a_c ? z_c : f_c]: [a_c] is an
       activation input, [z_c] a free input and [f_c] the gate's own
       function over its relaxed fanins, in the manner of SAT-DIFF's
       relaxation variables.  One solver holds each miter of the relaxed
       circuit, encoded once.  "Does some [z] repair the input [x*] under
       [S]?" is one solve under assumptions: [x*], [a = S] and the
       miter.}
    {- {b Synthesis, one solver per miter.}  It looks for an input that
       every collected fix [z_j] leaves mismatched.  A copy is the miter
       with the proposal's candidates cut open and fixed to [z_j], built
       as a cofactor in the manager so constant folding and structural
       hashing shrink it as they shrank the explicit expansion.  It is
       guarded by one literal per freed candidate and stays in force
       under every later proposal that frees those candidates, for which
       [z_j] is one candidate fix; copies and learned clauses carry over
       between proposals.}
    {- {b Recall.}  Freeing more signals never hurts, so a proposal that
       contains one found sufficient, or lies inside one found
       insufficient, is answered without solving.}
    {- {b Refutation from remembered inputs.}  Every [`No] the solvers
       prove comes with an input [x*] that no fix repairs; the oracle
       keeps these inputs in a pool, simulated 63 to a native-int word.
       A proposal that is not recalled and frees at most six relevant
       candidates is first simulated over the pool under each of its
       constant fixes, again only over its transitive fanout: a pooled
       input that stays mismatched under every fix proves [`No] without
       a solve.}}

    The answers are exact up to the conflict budget: a check that runs
    out returns [`Unknown]. *)

type t

val create :
  Aig.t ->
  impl:Netlist.t ->
  impl_lit:(string -> Aig.lit) ->
  spec_lit:(string -> Aig.lit) ->
  mismatched:string list ->
  candidates:string array ->
  t
(** [create mgr ~impl ~impl_lit ~spec_lit ~mismatched ~candidates] sets
    up the oracle of one search.  [impl_lit] and [spec_lit] give every
    implementation signal and every specification output as a literal of
    [mgr], over shared primary inputs; [mismatched] lists the outputs
    where the two differ (every other output is taken to be proven
    equivalent).  Proposals free subsets of [candidates], which must be
    non-input signals of [impl]; a [bool array] over their indices marks
    the freed ones.  Raises [Invalid_argument] on a candidate that is a
    primary input or not a signal of [impl]. *)

val cone : t -> budget:int -> string -> bool array -> [ `Yes | `No | `Unknown ]
(** [cone o ~budget out freed]: does freeing [freed] rectify the single
    output [out]?  [`Yes]: for every input some freed values make [out]
    agree with the specification; [`No]: some input is mismatched
    whatever the freed values; [`Unknown]: the solves of this call
    together hit [budget] conflicts. *)

val joint : t -> budget:int -> bool array -> [ `Yes | `No | `Unknown ]
(** As {!cone}, for all mismatched outputs and every other output the
    freed signals reach, simultaneously. *)

val gate_word : Netlist.gate -> int array -> int
(** [gate_word g v]: gate [g] over the fanin words [v], bit by bit, as
    {!Netlist.eval} evaluates it ([Mux] fanins [s; a; b] give
    [s ? a : b]).  The pool simulates with it.  Raises
    [Invalid_argument] on [Input]. *)
