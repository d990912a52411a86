(* The structural path (§3.6): what happens when the SAT-based pipeline
   times out.  We force the fallback, build patches from miter cofactors —
   using the CEGAR 2QBF certificate to bound the number of miter copies —
   and then let CEGAR_min's max-flow resubstitution shrink the support.

   Run with: dune exec examples/structural_fallback.exe *)

let solve label config instance =
  let outcome = Eco.Engine.solve ~config instance in
  Format.printf "%-22s %a@." label Eco.Engine.pp_outcome outcome;
  List.iter
    (fun (k, v) ->
      if k = "miter_copies" || k = "cegar_min_confirmed" then Format.printf "   %s = %d@." k v)
    outcome.Eco.Engine.notes;
  outcome

let () =
  let impl = Gen.Circuits.multiplier 7 in
  let instance =
    Gen.Mutate.make_instance ~name:"mult7" ~style:(Gen.Mutate.New_cone 8)
      ~dist:Netlist.Weights.T1 ~seed:77 ~n_targets:3 impl
  in
  Format.printf "instance: %a@.@." Eco.Instance.pp instance;
  (* In structural mode the methods differ only in CEGAR_min, which the
     Exact method runs over the structural patches. *)
  let structural m =
    { (Eco.Engine.config_of_method m) with Eco.Engine.force_structural = true }
  in
  let plain = solve "structural" (structural Eco.Engine.Min_assume) instance in
  let improved = solve "structural+CEGAR_min" (structural Eco.Engine.Exact) instance in
  Format.printf "@.CEGAR_min cost %d -> %d, gates %d -> %d@." plain.Eco.Engine.cost
    improved.Eco.Engine.cost plain.Eco.Engine.gates improved.Eco.Engine.gates;
  (* The paper's §3.6.2 claim in miniature: certificate copies vs the full
     2^k enumeration for the 3 remaining targets. *)
  let k = List.length instance.Eco.Instance.targets in
  Format.printf "full enumeration would need %d miter copies for %d targets@."
    (List.length (Eco.Structural.full_certificate k))
    k
