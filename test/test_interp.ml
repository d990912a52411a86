(* Proof logging and Craig interpolation: proof well-formedness, the three
   interpolant properties, and the interpolation-based patch pipeline. *)

let lit = Sat.Lit.make
let nlit = Sat.Lit.make_neg

let test_proof_logged_unsat () =
  (* (a) & (!a | b) & (!b): a two-step refutation. *)
  let s = Sat.Solver.create ~proof:true () in
  let a = Sat.Solver.new_var s and b = Sat.Solver.new_var s in
  Sat.Solver.add_clause_part s Sat.Proof.Part_a [ lit a ];
  Sat.Solver.add_clause_part s Sat.Proof.Part_a [ nlit a; lit b ];
  Sat.Solver.add_clause_part s Sat.Proof.Part_b [ nlit b ];
  Alcotest.(check bool) "unsat" true (Sat.Solver.solve s = Sat.Solver.Unsat);
  match Sat.Solver.proof s with
  | None -> Alcotest.fail "proof expected"
  | Some proof ->
    Alcotest.(check bool) "empty clause derived" true (Sat.Proof.empty_clause proof <> None);
    Alcotest.(check bool) "proof checks" true (Test_util.proof_valid proof)

let test_proof_search_unsat () =
  (* Pigeonhole php(4): needs real search, exercises learned-clause
     derivations and level-0 unit chains. *)
  let n = 4 in
  let s = Sat.Solver.create ~proof:true () in
  let v = Array.init (n + 1) (fun _ -> Array.init n (fun _ -> Sat.Solver.new_var s)) in
  for i = 0 to n do
    Sat.Solver.add_clause_part s Sat.Proof.Part_a (List.init n (fun j -> lit v.(i).(j)))
  done;
  for j = 0 to n - 1 do
    for i1 = 0 to n do
      for i2 = i1 + 1 to n do
        Sat.Solver.add_clause_part s Sat.Proof.Part_b [ nlit v.(i1).(j); nlit v.(i2).(j) ]
      done
    done
  done;
  Alcotest.(check bool) "unsat" true (Sat.Solver.solve s = Sat.Solver.Unsat);
  match Sat.Solver.proof s with
  | None -> Alcotest.fail "proof expected"
  | Some proof ->
    Alcotest.(check bool) "empty clause" true (Sat.Proof.empty_clause proof <> None);
    Alcotest.(check bool) "well-formed resolutions" true (Test_util.proof_valid proof)

let test_proof_sat_keeps_no_empty () =
  let s = Sat.Solver.create ~proof:true () in
  let a = Sat.Solver.new_var s in
  Sat.Solver.add_clause_part s Sat.Proof.Part_a [ lit a ];
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat.Solver.Sat);
  match Sat.Solver.proof s with
  | Some proof -> Alcotest.(check bool) "no empty clause" true (Sat.Proof.empty_clause proof = None)
  | None -> Alcotest.fail "proof expected"

let test_part_requires_proof_mode () =
  let s = Sat.Solver.create () in
  let a = Sat.Solver.new_var s in
  Alcotest.check_raises "partitions need proof mode"
    (Invalid_argument "Solver.add_clause_part: proof logging is off") (fun () ->
      Sat.Solver.add_clause_part s Sat.Proof.Part_a [ lit a ])

(* Build A = Tseitin(f over shared+private1 forced true),
   B = Tseitin(g ... forced true) with f ∧ g unsatisfiable, extract the
   interpolant and check the three Craig properties semantically. *)
let interpolant_properties =
  Test_util.qcheck ~count:100 "interpolant sits between A and not B"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      (* Functions over 3 shared variables: f implies h, g implies not h for
         a random h, guaranteeing f & g unsatisfiable. *)
      let mgr = Aig.create () in
      let xs = Aig.add_inputs mgr 3 in
      let random_fn () =
        let pool = ref (Array.to_list xs) in
        let pick () = List.nth !pool (Random.State.int rand (List.length !pool)) in
        for _ = 1 to 6 do
          let a = pick () and b = pick () in
          let a = if Random.State.bool rand then Aig.not_ a else a in
          pool := Aig.and_ mgr a b :: !pool
        done;
        pick ()
      in
      let h = random_fn () in
      let f = Aig.and_ mgr (random_fn ()) h in
      let g = Aig.and_ mgr (random_fn ()) (Aig.not_ h) in
      if f = Aig.false_ || g = Aig.false_ then true (* degenerate: skip *)
      else begin
        let solver = Sat.Solver.create ~proof:true () in
        let env_a = Aig.Cnf.create ~part:Sat.Proof.Part_a mgr solver in
        let env_b = Aig.Cnf.create ~part:Sat.Proof.Part_b mgr solver in
        (* Shared variables first so both sides use the same solver vars for
           the xs. *)
        let shared_sat = Array.map (fun x -> Aig.Cnf.lit env_a x) xs in
        Array.iteri
          (fun i x ->
            (* Tie env_b's view of x to the same variable by encoding the
               input in env_b and equating. *)
            let xb = Aig.Cnf.lit env_b x in
            if not (Sat.Lit.equal xb shared_sat.(i)) then begin
              Sat.Solver.add_clause_part solver Sat.Proof.Part_b
                [ Sat.Lit.neg xb; shared_sat.(i) ];
              Sat.Solver.add_clause_part solver Sat.Proof.Part_b
                [ xb; Sat.Lit.neg shared_sat.(i) ]
            end)
          xs;
        Sat.Solver.add_clause_part solver Sat.Proof.Part_a [ Aig.Cnf.lit env_a f ];
        Sat.Solver.add_clause_part solver Sat.Proof.Part_b [ Aig.Cnf.lit env_b g ];
        match Sat.Solver.solve solver with
        | Sat.Solver.Sat | Sat.Solver.Unknown -> false (* must be unsat by construction *)
        | Sat.Solver.Unsat ->
          let proof = Option.get (Sat.Solver.proof solver) in
          if not (Test_util.proof_valid proof) then false
          else begin
            let inv = Hashtbl.create 8 in
            Array.iteri (fun i sl -> Hashtbl.replace inv (Sat.Lit.var sl) xs.(i)) shared_sat;
            let shared_input v =
              match Hashtbl.find_opt inv v with
              | Some l -> l
              | None -> Aig.false_ (* shared tseitin var: sound to ignore in the check below *)
            in
            (* Only proceed when all shared vars are the inputs. *)
            let all_inputs_only =
              List.for_all
                (fun v ->
                  match Sat.Proof.var_class proof v with
                  | `Shared -> Hashtbl.mem inv v
                  | _ -> true)
                (List.init (Sat.Solver.nvars solver) Fun.id)
            in
            if not all_inputs_only then true (* env sharing leaked: skip *)
            else begin
              let i = Aig.Interp.extract mgr ~proof ~shared_input in
              (* f => I and I & g unsat, over all 8 assignments. *)
              List.for_all
                (fun code ->
                  let bits = Array.init 3 (fun k -> (code lsr k) land 1 = 1) in
                  let fv = Aig.eval mgr bits f
                  and gv = Aig.eval mgr bits g
                  and iv = Aig.eval mgr bits i in
                  ((not fv) || iv) && not (iv && gv))
                (List.init 8 Fun.id)
            end
          end
      end)

let tiny_instance () =
  let n name gate fanins = { Netlist.name; gate; fanins = Array.of_list fanins } in
  let impl =
    Netlist.create
      [
        n "a" Netlist.Input [];
        n "b" Netlist.Input [];
        n "c" Netlist.Input [];
        n "w" Netlist.And [ "a"; "b" ];
        n "y" Netlist.Or [ "w"; "c" ];
      ]
      ~outputs:[ "y" ]
  in
  let spec =
    Netlist.create
      [
        n "a" Netlist.Input [];
        n "b" Netlist.Input [];
        n "c" Netlist.Input [];
        n "w" Netlist.Xor [ "a"; "b" ];
        n "y" Netlist.Or [ "w"; "c" ];
      ]
      ~outputs:[ "y" ]
  in
  Eco.Instance.make ~name:"interp" ~impl ~spec ~targets:[ "w" ] ~weights:(Hashtbl.create 4) ()

let test_interp_patch_verifies () =
  let inst = tiny_instance () in
  let window = Eco.Window.compute inst in
  let miter = Eco.Miter.build inst window in
  let m_i = Eco.Miter.quantify_others miter ~keep:"w" in
  let tc = Eco.Two_copy.build miter ~m_i ~target:"w" in
  match Eco.Support.with_min_assume tc with
  | None -> Alcotest.fail "feasible instance"
  | Some sel ->
    let r = Eco.Patch_interp.compute miter ~m_i ~target:"w" ~chosen:sel.Eco.Support.indices in
    Alcotest.(check bool) "proof recorded" true (r.Eco.Patch_interp.proof_nodes > 0);
    (match Eco.Verify.check inst [ r.Eco.Patch_interp.patch ] with
    | Cec.Equivalent -> ()
    | _ -> Alcotest.fail "interpolation patch must verify")

let interp_patches_verify_random =
  Test_util.qcheck ~count:20 "interpolation patches verify on random instances"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let impl = Gen.Circuits.random_dag ~seed ~inputs:5 ~gates:25 ~outputs:3 () in
      match
        Gen.Mutate.make_instance ~name:"ri" ~style:(Gen.Mutate.New_cone 3)
          ~dist:Netlist.Weights.T8 ~seed ~n_targets:1 impl
      with
      | exception Failure _ -> true
      | inst -> (
        let window = Eco.Window.compute inst in
        let miter = Eco.Miter.build inst window in
        let target = List.hd inst.Eco.Instance.targets in
        let m_i = Eco.Miter.quantify_others miter ~keep:target in
        let tc = Eco.Two_copy.build miter ~m_i ~target in
        match Eco.Support.with_min_assume tc with
        | None -> true (* pipeline-infeasible: nothing to compare *)
        | Some sel -> (
          let r = Eco.Patch_interp.compute miter ~m_i ~target ~chosen:sel.Eco.Support.indices in
          match Eco.Verify.check inst [ r.Eco.Patch_interp.patch ] with
          | Cec.Equivalent -> true
          | _ -> false)))

let () =
  Alcotest.run "interp"
    [
      ( "proof",
        [
          Alcotest.test_case "logged unsat" `Quick test_proof_logged_unsat;
          Alcotest.test_case "search unsat (php4)" `Quick test_proof_search_unsat;
          Alcotest.test_case "sat has no empty clause" `Quick test_proof_sat_keeps_no_empty;
          Alcotest.test_case "partition needs proof mode" `Quick test_part_requires_proof_mode;
        ] );
      ( "interpolant",
        [
          interpolant_properties;
          Alcotest.test_case "patch verifies (tiny)" `Quick test_interp_patch_verifies;
          interp_patches_verify_random;
        ] );
    ]
