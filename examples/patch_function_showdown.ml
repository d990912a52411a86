(* Two generations of patch-function computation on the same instance
   and the same chosen support:

   - cube enumeration (this paper, §3.5)
   - Craig interpolation from a logged resolution proof (Wu et al. [15])

   Run with: dune exec examples/patch_function_showdown.exe *)

let () =
  let impl = Gen.Circuits.random_dag ~seed:1007 ~inputs:8 ~gates:120 ~outputs:6 () in
  let inst =
    Gen.Mutate.make_instance ~name:"showdown" ~style:(Gen.Mutate.New_cone 5)
      ~dist:Netlist.Weights.T8 ~seed:1007 ~n_targets:1 impl
  in
  let window = Eco.Window.compute inst in
  let miter = Eco.Miter.build inst window in
  let target = List.hd inst.Eco.Instance.targets in
  let m_i = Eco.Miter.quantify_others miter ~keep:target in
  let tc = Eco.Two_copy.build miter ~m_i ~target in
  match Eco.Support.with_min_assume tc with
  | None -> print_endline "instance infeasible (unexpected)"
  | Some sel ->
    Format.printf "target %s, support of %d divisors, cost %d@.@." target
      (List.length sel.Eco.Support.indices)
      sel.Eco.Support.cost;
    let verify name (p : Eco.Patch.t) =
      let v =
        match Eco.Verify.check inst [ p ] with
        | Cec.Equivalent -> "verified"
        | Cec.Counterexample _ -> "WRONG"
        | Cec.Undecided -> "undecided"
      in
      Format.printf "%-22s gates=%-4d support=%-3d %s@." name p.Eco.Patch.gates
        (List.length p.Eco.Patch.support) v
    in
    let cube = Eco.Patch_fun.compute miter ~m_i ~target ~chosen:sel.Eco.Support.indices in
    Format.printf "cube enumeration: %d cubes, %d SAT calls@." cube.Eco.Patch_fun.cubes_enumerated
      cube.Eco.Patch_fun.sat_calls;
    verify "  cube patch" cube.Eco.Patch_fun.patch;
    let interp = Eco.Patch_interp.compute miter ~m_i ~target ~chosen:sel.Eco.Support.indices in
    Format.printf "@.interpolation: %d proof nodes, raw interpolant %d ANDs@."
      interp.Eco.Patch_interp.proof_nodes interp.Eco.Patch_interp.raw_gates;
    verify "  interpolant patch" interp.Eco.Patch_interp.patch
