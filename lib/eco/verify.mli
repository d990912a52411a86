(** Final verification (§2.5 goal 4 / Figure 2's last step): insert the
    patch functions at the target signals of the implementation and check
    equivalence against the specification. *)

val patched_netlist : Instance.t -> Patch.t list -> Netlist.t
(** The implementation with each patched target redefined as the output of
    its patch circuit, whose inputs are wired to the support signals.
    Raises [Failure] if a patch support signal is missing or would create a
    combinational cycle. *)

val check : ?budget:int -> ?certify:bool -> Instance.t -> Patch.t list -> Cec.verdict
(** Equivalence of the patched implementation against the specification
    (output pairing by name): the two netlists share one AIG manager, and
    their miter goes to {!Cec.check_miter} — random simulation, then SAT.
    [?budget] and [?certify] are {!Cec.check_miter}'s. *)
