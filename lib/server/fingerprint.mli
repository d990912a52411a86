(** Cache-key derivation from structurally-hashed AIG cone signatures.

    Both caches of the daemon key on {!Cache.key} pairs produced here:

    - the 64-bit [sig64] index comes from the structural shape of the
      AIG (the manager's strashed node table walked in construction
      order) mixed with 64-bit parallel {e simulation signatures} — each
      primary input is driven with a deterministic pseudorandom word
      derived from its identity, all output (and target) cone values are
      folded in.  Two structurally different cones collide with
      probability ~2⁻⁶⁴; two runs of the same request always agree;
    - the [canon] string is the complete canonical key material
      (netlist/AIG dump, targets, weights, solver options), which the
      cache compares byte-for-byte on every signature match, so a
      collision degrades to a miss — never to a wrong answer. *)

val instance : Eco.Instance.t -> Request.options -> Cache.key
(** Key of one solve job: implementation and specification cones
    (inputs stimulated by name, so both sides see the same words),
    target cones, weights, and every option that can change the
    outcome. *)

val aig_lit : Aig.t -> Aig.lit -> Cache.key
(** Key of one literal-satisfiability query [Cec.check_lit m l] — the
    query every CEC check ends in, so the only one the verdict memo
    keys.  The manager's structure and simulation signatures (inputs
    stimulated by ordinal) with the queried literal's cone value folded
    in; canon is the full manager dump plus the literal. *)
