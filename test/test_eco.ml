(* End-to-end ECO engine tests: all three methods, window computation,
   support optimality, multi-target, infeasibility, verification. *)

let n name gate fanins = { Netlist.name; gate; fanins = Array.of_list fanins }

(* Hand-built tiny instance: impl computes y = (a & b) | c through target w,
   spec wants y = (a ^ b) | c.  Target w = a & b must become a ^ b. *)
let tiny_instance ?(weights = []) () =
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
  let w = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace w k v) weights;
  Eco.Instance.make ~name:"tiny" ~impl ~spec ~targets:[ "w" ] ~weights:w ()

let solve_with m ?(tweak = Fun.id) inst =
  Eco.Engine.solve ~config:(tweak (Eco.Engine.config_of_method m)) inst

let check_solved_verified name (o : Eco.Engine.outcome) =
  (match o.Eco.Engine.status with
  | Eco.Engine.Solved -> ()
  | Eco.Engine.Infeasible -> Alcotest.failf "%s: infeasible" name
  | Eco.Engine.Failed msg -> Alcotest.failf "%s: failed (%s)" name msg);
  match o.Eco.Engine.verified with
  | Some true -> ()
  | Some false -> Alcotest.failf "%s: patch does not verify" name
  | None -> Alcotest.failf "%s: verification undecided" name

let test_tiny_all_methods () =
  let inst = tiny_instance () in
  List.iter
    (fun m ->
      let o = solve_with m inst in
      check_solved_verified "tiny" o;
      Alcotest.(check int) "one patch" 1 (List.length o.Eco.Engine.patches))
    [ Eco.Engine.Baseline; Eco.Engine.Min_assume; Eco.Engine.Exact ]

(* Verification is one netlist CEC per solve.  The structural path runs
   no feasibility check, so the verification query is the run's only
   CEC. *)
let test_tiny_structural () =
  let inst = tiny_instance () in
  let before = Telemetry.local_snapshot () in
  let o =
    solve_with Eco.Engine.Min_assume
      ~tweak:(fun c -> { c with Eco.Engine.force_structural = true })
      inst
  in
  let delta = Telemetry.diff before (Telemetry.local_snapshot ()) in
  check_solved_verified "tiny structural" o;
  Alcotest.(check bool) "used structural" true o.Eco.Engine.used_structural;
  Alcotest.(check int) "one cec.checks" 1
    (Option.value (List.assoc_opt "cec.checks" delta) ~default:0)

let test_window () =
  let inst = tiny_instance () in
  let w = Eco.Window.compute inst in
  Alcotest.(check (list string)) "window po" [ "y" ] w.Eco.Window.window_pos;
  Alcotest.(check (list string)) "window pis" [ "a"; "b"; "c" ] w.Eco.Window.window_pis;
  let div_names = List.map fst w.Eco.Window.divisors in
  Alcotest.(check bool) "inputs are divisors" true
    (List.for_all (fun x -> List.mem x div_names) [ "a"; "b"; "c" ]);
  Alcotest.(check bool) "target excluded" false (List.mem "w" div_names);
  Alcotest.(check bool) "tfo excluded" false (List.mem "y" div_names)

(* The divisor rule as [Window.compute] once ran it: a fresh TFI walk per
   node, whose support must lie within the PIs feeding the window's
   outputs on either side.  The oracle for the one-pass marking. *)
let reference_divisors (inst : Eco.Instance.t) =
  let impl = inst.Eco.Instance.impl in
  let tfo = Netlist.tfo impl inst.Eco.Instance.targets in
  let window_pos = List.filter (Hashtbl.mem tfo) (Netlist.outputs impl) in
  let pi_set = Hashtbl.create 64 in
  List.iter
    (fun p -> Hashtbl.replace pi_set p ())
    (Netlist.support_of impl window_pos @ Netlist.support_of inst.Eco.Instance.spec window_pos);
  List.filter_map
    (fun name ->
      match (Netlist.node impl name).Netlist.gate with
      | Netlist.Const0 | Netlist.Const1 -> None
      | _ ->
        if Hashtbl.mem tfo name then None
        else if List.for_all (Hashtbl.mem pi_set) (Netlist.support_of impl [ name ]) then
          Some (name, Netlist.Weights.cost inst.Eco.Instance.weights name)
        else None)
    (Netlist.topological_order impl)
  |> List.stable_sort (fun (_, c1) (_, c2) -> compare c1 c2)

let check_divisors label inst =
  Alcotest.(check (list (pair string int)))
    (label ^ ": divisors") (reference_divisors inst) (Eco.Window.compute inst).Eco.Window.divisors

let test_window_divisors_suite () =
  List.iter
    (fun spec -> check_divisors spec.Gen.Suite.u_name (Gen.Suite.instantiate spec))
    Gen.Suite.all

(* The window's inputs come from both sides: here only the specification
   reads c under y, so c, and z = !c beside it, are divisors. *)
let test_window_divisors_spec_inputs () =
  let impl =
    Netlist.create
      [
        n "a" Netlist.Input [];
        n "b" Netlist.Input [];
        n "c" Netlist.Input [];
        n "d" Netlist.Input [];
        n "w" Netlist.And [ "a"; "b" ];
        n "y" Netlist.Not [ "w" ];
        n "z" Netlist.Not [ "c" ];
        n "v" Netlist.And [ "c"; "d" ];
      ]
      ~outputs:[ "y"; "z"; "v" ]
  in
  let spec =
    Netlist.create
      [
        n "a" Netlist.Input [];
        n "b" Netlist.Input [];
        n "c" Netlist.Input [];
        n "d" Netlist.Input [];
        n "y" Netlist.Xor [ "a"; "c" ];
        n "z" Netlist.Not [ "c" ];
        n "v" Netlist.And [ "c"; "d" ];
      ]
      ~outputs:[ "y"; "z"; "v" ]
  in
  let inst =
    Eco.Instance.make ~name:"spec-inputs" ~impl ~spec ~targets:[ "w" ]
      ~weights:(Hashtbl.create 1) ()
  in
  check_divisors "spec-only inputs" inst;
  Alcotest.(check (list string))
    "divisors" [ "a"; "b"; "c"; "z" ]
    (List.map fst (Eco.Window.compute inst).Eco.Window.divisors)

(* Random DAGs, including specs whose replacement cones widen the window
   beyond the implementation's own support of the affected outputs. *)
let test_window_divisors_random () =
  for seed = 1 to 30 do
    let impl =
      Gen.Circuits.random_dag ~seed ~inputs:(4 + (seed mod 9)) ~gates:(30 + (7 * seed))
        ~outputs:(2 + (seed mod 5)) ()
    in
    let inst =
      Gen.Mutate.make_instance ~seed ~style:(Gen.Mutate.New_cone (2 + (seed mod 5)))
        ~n_targets:(1 + (seed mod 3)) impl
    in
    check_divisors (Printf.sprintf "random dag %d" seed) inst
  done

let test_patch_function_is_xor () =
  (* The cheapest support is {a, b} and the patch must compute a ^ b. *)
  let inst = tiny_instance () in
  let o = solve_with Eco.Engine.Exact inst in
  check_solved_verified "xor patch" o;
  match o.Eco.Engine.patches with
  | [ p ] ->
    Alcotest.(check int) "two support signals" 2 (List.length p.Eco.Patch.support);
    let support_names = List.sort compare (List.map fst p.Eco.Patch.support) in
    Alcotest.(check (list string)) "support = a,b" [ "a"; "b" ] support_names;
    (* Truth table check of the standalone patch circuit. *)
    List.iter
      (fun (x, y) ->
        let inputs_sorted =
          (* circuit input order follows the support list order *)
          match List.map fst p.Eco.Patch.support with
          | [ "a"; "b" ] -> [| x; y |]
          | [ "b"; "a" ] -> [| y; x |]
          | _ -> Alcotest.fail "unexpected support"
        in
        Alcotest.(check bool)
          (Printf.sprintf "xor %b %b" x y)
          (x <> y)
          (Eco.Patch.eval p inputs_sorted))
      [ (false, false); (false, true); (true, false); (true, true) ]
  | _ -> Alcotest.fail "expected exactly one patch"

let test_weights_steer_support () =
  (* Make a and b expensive; add a redundant signal "ab_x = a xor b" in the
     implementation that the patch can reuse for cost 1. *)
  let impl =
    Netlist.create
      [
        n "a" Netlist.Input [];
        n "b" Netlist.Input [];
        n "c" Netlist.Input [];
        n "ab_x" Netlist.Xor [ "a"; "b" ];
        n "side" Netlist.Or [ "ab_x"; "c" ];
        n "w" Netlist.And [ "a"; "b" ];
        n "y" Netlist.Or [ "w"; "c" ];
        n "y2" Netlist.Buf [ "side" ];
      ]
      ~outputs:[ "y"; "y2" ]
  in
  let spec =
    Netlist.create
      [
        n "a" Netlist.Input [];
        n "b" Netlist.Input [];
        n "c" Netlist.Input [];
        n "ab_x" Netlist.Xor [ "a"; "b" ];
        n "side" Netlist.Or [ "ab_x"; "c" ];
        n "w" Netlist.Xor [ "a"; "b" ];
        n "y" Netlist.Or [ "w"; "c" ];
        n "y2" Netlist.Buf [ "side" ];
      ]
      ~outputs:[ "y"; "y2" ]
  in
  let weights = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace weights k v) [ ("a", 50); ("b", 50); ("ab_x", 1) ];
  let inst = Eco.Instance.make ~name:"steer" ~impl ~spec ~targets:[ "w" ] ~weights () in
  let o = solve_with Eco.Engine.Exact inst in
  check_solved_verified "steer" o;
  Alcotest.(check int) "reuses the xor signal: cost 1" 1 o.Eco.Engine.cost;
  match o.Eco.Engine.patches with
  | [ p ] -> Alcotest.(check (list string)) "support" [ "ab_x" ] (List.map fst p.Eco.Patch.support)
  | _ -> Alcotest.fail "one patch expected"

let test_exact_not_worse_than_min_assume_single_target () =
  (* Paper: SAT_prune guarantees the minimum for one target. *)
  List.iter
    (fun seed ->
      let impl = Gen.Circuits.random_dag ~seed ~inputs:6 ~gates:40 ~outputs:4 () in
      let inst =
        Gen.Mutate.make_instance ~name:"cmp" ~style:(Gen.Mutate.New_cone 3)
          ~dist:Netlist.Weights.T8 ~seed ~n_targets:1 impl
      in
      let oe = solve_with Eco.Engine.Exact inst in
      let om = solve_with Eco.Engine.Min_assume inst in
      check_solved_verified "exact" oe;
      check_solved_verified "min_assume" om;
      if oe.Eco.Engine.cost > om.Eco.Engine.cost then
        Alcotest.failf "seed %d: exact %d > min_assume %d" seed oe.Eco.Engine.cost
          om.Eco.Engine.cost)
    [ 1; 2; 3; 4; 5 ]

let test_min_assume_not_worse_than_baseline () =
  List.iter
    (fun seed ->
      let impl = Gen.Circuits.random_dag ~seed ~inputs:6 ~gates:40 ~outputs:4 () in
      let inst =
        Gen.Mutate.make_instance ~name:"cmp2" ~style:(Gen.Mutate.New_cone 3)
          ~dist:Netlist.Weights.T4 ~seed ~n_targets:1 impl
      in
      let om = solve_with Eco.Engine.Min_assume inst in
      let ob = solve_with Eco.Engine.Baseline inst in
      check_solved_verified "min_assume" om;
      check_solved_verified "baseline" ob;
      if om.Eco.Engine.cost > ob.Eco.Engine.cost then
        Alcotest.failf "seed %d: min_assume %d > baseline %d" seed om.Eco.Engine.cost
          ob.Eco.Engine.cost)
    [ 11; 12; 13 ]

let test_exact_is_minimum_by_brute_force () =
  (* Enumerate all divisor subsets of a tiny instance and confirm that
     SAT_prune's cost is the true minimum. *)
  let inst = tiny_instance ~weights:[ ("a", 3); ("b", 2); ("c", 9) ] () in
  let window = Eco.Window.compute inst in
  let miter = Eco.Miter.build inst window in
  let m_i = Eco.Miter.quantify_others miter ~keep:"w" in
  let tc = Eco.Two_copy.build miter ~m_i ~target:"w" in
  let k = Eco.Two_copy.n_divisors tc in
  let best = ref max_int in
  for mask = 0 to (1 lsl k) - 1 do
    let subset = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init k Fun.id) in
    let assumptions = List.map (Eco.Two_copy.selector tc) subset in
    if Eco.Two_copy.unsat_with tc assumptions then begin
      let cost = Eco.Support.cost_of tc subset in
      if cost < !best then best := cost
    end
  done;
  let outcome = Eco.Sat_prune.minimum_support tc in
  match outcome.Eco.Sat_prune.selection with
  | Some sel -> Alcotest.(check int) "exact = brute-force minimum" !best sel.Eco.Support.cost
  | None -> Alcotest.fail "expected feasible"

(* Every limit of the exact search is counted, so where it stops is a
   property of the instance, not of the clock: a tiny node budget runs
   out having booked no more [hs.nodes] than it was given, and when the
   engine's own budget runs out the minimize_assumptions incumbent
   stands — identically on every run. *)
let test_sat_prune_node_budget () =
  let hs_nodes () = Option.value ~default:0 (List.assoc_opt "hs.nodes" (Telemetry.snapshot ())) in
  let impl = Gen.Circuits.random_dag ~seed:3 ~inputs:12 ~gates:150 ~outputs:8 () in
  let inst =
    Gen.Mutate.make_instance ~name:"budget" ~style:Gen.Mutate.Rewire ~dist:Netlist.Weights.T6
      ~seed:3 ~n_targets:3 impl
  in
  let target = List.hd inst.Eco.Instance.targets in
  let prune () =
    let miter = Eco.Miter.build inst (Eco.Window.compute inst) in
    let tc = Eco.Two_copy.build miter ~m_i:(Eco.Miter.quantify_others miter ~keep:target) ~target in
    let before = hs_nodes () in
    match Eco.Sat_prune.minimum_support ~max_nodes:10 tc with
    | _ -> Alcotest.fail "expected the node budget to run out"
    | exception Eco.Min_assume.Budget_exhausted ->
      Alcotest.(check bool) "hs.nodes within the budget" true (hs_nodes () - before <= 10);
      (hs_nodes () - before, Eco.Two_copy.solver_calls tc)
  in
  let first = prune () in
  Alcotest.(check (pair int int)) "same stop on a second run" first (prune ());
  let solve () =
    let before = Telemetry.snapshot () in
    let o = solve_with Eco.Engine.Exact inst in
    (o, Telemetry.diff before (Telemetry.snapshot ()))
  in
  let ((o1 : Eco.Engine.outcome), d1), ((o2 : Eco.Engine.outcome), d2) = (solve (), solve ()) in
  check_solved_verified "fallback" o1;
  Alcotest.(check bool) "incumbent kept" true (List.mem_assoc "sat_prune_fallback" o1.notes);
  Alcotest.(check (pair int int)) "same cost and gates" (o1.cost, o1.gates) (o2.cost, o2.gates);
  Alcotest.(check (list (pair string int))) "same notes" o1.notes o2.notes;
  Alcotest.(check (list (pair string int))) "identical counter deltas" d1 d2

let test_multi_target () =
  let impl = Gen.Circuits.ripple_adder 6 in
  let inst =
    Gen.Mutate.make_instance ~name:"multi" ~style:(Gen.Mutate.New_cone 4)
      ~dist:Netlist.Weights.T5 ~seed:99 ~n_targets:3 impl
  in
  List.iter
    (fun m ->
      let o = solve_with m inst in
      check_solved_verified "multi-target" o;
      Alcotest.(check int) "three patches" 3 (List.length o.Eco.Engine.patches);
      let names = List.sort compare (List.map (fun p -> p.Eco.Patch.target) o.Eco.Engine.patches) in
      Alcotest.(check (list string)) "targets covered" (List.sort compare inst.Eco.Instance.targets) names)
    [ Eco.Engine.Baseline; Eco.Engine.Min_assume ]

let test_infeasible_detected () =
  (* The target does not reach the output that differs: no patch exists. *)
  let impl =
    Netlist.create
      [
        n "a" Netlist.Input [];
        n "b" Netlist.Input [];
        n "w" Netlist.And [ "a"; "b" ];
        n "y1" Netlist.Buf [ "w" ];
        n "y2" Netlist.Buf [ "a" ];
      ]
      ~outputs:[ "y1"; "y2" ]
  in
  let spec =
    Netlist.create
      [
        n "a" Netlist.Input [];
        n "b" Netlist.Input [];
        n "w" Netlist.And [ "a"; "b" ];
        n "y1" Netlist.Buf [ "w" ];
        n "y2" Netlist.Not [ "a" ];
      ]
      ~outputs:[ "y1"; "y2" ]
  in
  (* y2 differs but w only reaches y1... the window would have no PO from w
     covering y2; make w reach y2 via a dummy AND to hit the SAT check. *)
  let impl2 =
    Netlist.create
      [
        n "a" Netlist.Input [];
        n "b" Netlist.Input [];
        n "w" Netlist.And [ "a"; "b" ];
        n "y1" Netlist.Buf [ "w" ];
        n "y2" Netlist.Or [ "a"; "w" ];
      ]
      ~outputs:[ "y1"; "y2" ]
  in
  ignore impl;
  (* spec2: y2 = !a, unreachable by patching w because a=1,b arbitrary
     forces y2 = 1 regardless of w. *)
  let spec2 =
    Netlist.create
      [
        n "a" Netlist.Input [];
        n "b" Netlist.Input [];
        n "w" Netlist.And [ "a"; "b" ];
        n "y1" Netlist.Buf [ "w" ];
        n "y2" Netlist.Not [ "a" ];
      ]
      ~outputs:[ "y1"; "y2" ]
  in
  ignore spec;
  let weights = Hashtbl.create 4 in
  let inst = Eco.Instance.make ~name:"inf" ~impl:impl2 ~spec:spec2 ~targets:[ "w" ] ~weights () in
  List.iter
    (fun m ->
      let o = solve_with m inst in
      match o.Eco.Engine.status with
      | Eco.Engine.Infeasible -> ()
      | _ -> Alcotest.failf "expected infeasible")
    [ Eco.Engine.Baseline; Eco.Engine.Min_assume; Eco.Engine.Exact ]

let test_verify_rejects_wrong_patch () =
  let inst = tiny_instance () in
  (* A wrong patch: constant 0 at w (impl becomes y = c, differs on a=b=1^c=0? a=1,b=0 -> spec y=1, impl y=c=0). *)
  let m = Aig.create () in
  ignore (Aig.add_output m Aig.false_);
  let p = Eco.Patch.make ~target:"w" ~support:[] m in
  match Eco.Verify.check inst [ p ] with
  | Cec.Counterexample _ -> ()
  | _ -> Alcotest.fail "wrong patch must be rejected"

let test_verify_certified () =
  let counter name = Option.value ~default:0 (List.assoc_opt name (Telemetry.snapshot ())) in
  let inst = tiny_instance () in
  let o = solve_with Eco.Engine.Min_assume inst in
  let checked = counter "cert.checked" and failed = counter "cert.failed" in
  (match Eco.Verify.check ~certify:true inst o.Eco.Engine.patches with
  | Cec.Equivalent -> ()
  | _ -> Alcotest.fail "the engine's patch must verify");
  Alcotest.(check bool) "equivalence certified" true (counter "cert.checked" > checked);
  Alcotest.(check int) "no failure" failed (counter "cert.failed");
  (* The wrong patch of [test_verify_rejects_wrong_patch]: simulation
     finds the counterexample, and certification replays it. *)
  let m = Aig.create () in
  ignore (Aig.add_output m Aig.false_);
  let p = Eco.Patch.make ~target:"w" ~support:[] m in
  let checked = counter "cert.checked" and sim = counter "cec.sim_counterexamples" in
  (match Eco.Verify.check ~certify:true inst [ p ] with
  | Cec.Counterexample _ -> ()
  | _ -> Alcotest.fail "wrong patch must be rejected");
  Alcotest.(check int) "simulation counterexample" 1 (counter "cec.sim_counterexamples" - sim);
  Alcotest.(check int) "counterexample certified" 1 (counter "cert.checked" - checked);
  Alcotest.(check int) "still no failure" failed (counter "cert.failed")

let test_patched_netlist_structure () =
  let inst = tiny_instance () in
  let o = solve_with Eco.Engine.Min_assume inst in
  let patched = Eco.Verify.patched_netlist inst o.Eco.Engine.patches in
  Alcotest.(check (list string)) "outputs preserved" [ "y" ] (Netlist.outputs patched);
  Alcotest.(check (list string)) "inputs preserved" [ "a"; "b"; "c" ] (Netlist.inputs patched);
  (* The patched target exists and is now a buffer. *)
  let w = Netlist.node patched "w" in
  Alcotest.(check bool) "target rewired" true (w.Netlist.gate = Netlist.Buf)

let random_instances_solved =
  Test_util.qcheck ~count:25 "random instances solve and verify"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 1 2))
    (fun (seed, n_targets) ->
      let impl = Gen.Circuits.random_dag ~seed ~inputs:5 ~gates:30 ~outputs:3 () in
      match
        Gen.Mutate.make_instance ~name:"rand" ~style:(Gen.Mutate.New_cone 3)
          ~dist:Netlist.Weights.T8 ~seed ~n_targets impl
      with
      | exception Failure _ -> true (* target picking can fail on tiny DAGs *)
      | inst -> (
        let o = solve_with Eco.Engine.Min_assume inst in
        match (o.Eco.Engine.status, o.Eco.Engine.verified) with
        | Eco.Engine.Solved, Some true -> true
        | _ -> false))

(* Regression: two patches carrying different costs for the same support
   signal.  union_cost used to be last-writer-wins over the patch list; it
   must be order-independent — netlist weight when given, min otherwise. *)
let test_union_cost_conflicting_costs () =
  let mk target support =
    Eco.Patch.of_expr ~target ~support (Twolevel.Factor.Lit (0, true))
  in
  let p1 = mk "t1" [ ("a", 5); ("b", 2) ] in
  let p2 = mk "t2" [ ("a", 3); ("c", 4) ] in
  Alcotest.(check int) "min of carried costs wins" 9 (Eco.Engine.union_cost [ p1; p2 ]);
  Alcotest.(check int) "order independent" (Eco.Engine.union_cost [ p1; p2 ])
    (Eco.Engine.union_cost [ p2; p1 ]);
  let w : Netlist.Weights.weights = Hashtbl.create 4 in
  Hashtbl.replace w "a" 7;
  Hashtbl.replace w "b" 2;
  Hashtbl.replace w "c" 4;
  Alcotest.(check int) "netlist weight overrides both carried costs" 13
    (Eco.Engine.union_cost ~weights:w [ p1; p2 ]);
  Alcotest.(check int) "weighted order independent"
    (Eco.Engine.union_cost ~weights:w [ p1; p2 ])
    (Eco.Engine.union_cost ~weights:w [ p2; p1 ])

(* impl drives y through target w = g9, the AND chain g(i) = g(i-1) . x(i)
   over ten inputs; spec wants their parity, whose on-set has 2^9 = 512
   prime cubes over the ten-input minimum support. *)
let parity10_instance () =
  let x i = Printf.sprintf "x%d" i and g i = if i = 9 then "w" else Printf.sprintf "g%d" i in
  let netlist gate =
    Netlist.create
      (List.init 10 (fun i -> n (x i) Netlist.Input [])
      @ List.init 9 (fun i -> n (g (i + 1)) gate [ (if i = 0 then x 0 else g i); x (i + 1) ])
      @ [ n "y" Netlist.Buf [ "w" ] ])
      ~outputs:[ "y" ]
  in
  Eco.Instance.make ~name:"parity10" ~impl:(netlist Netlist.And) ~spec:(netlist Netlist.Xor)
    ~targets:[ "w" ] ~weights:(Hashtbl.create 1) ()

(* Regression: when cube enumeration aborts mid-target (conflict budget
   or cube cap) the partial solver effort must still reach the outcome and
   the telemetry counters, and the engine must fall back to structural. *)
let test_abort_keeps_solver_effort () =
  let inst = parity10_instance () in
  Alcotest.(check bool) "the cube cap binds" true (Eco.Engine.max_cubes < 512);
  let before = Telemetry.snapshot () in
  let o = solve_with Eco.Engine.Min_assume inst in
  check_solved_verified "aborted enumeration" o;
  Alcotest.(check bool) "fell back to structural" true o.Eco.Engine.used_structural;
  let delta = Telemetry.diff before (Telemetry.snapshot ()) in
  let d name = try List.assoc name delta with Not_found -> 0 in
  Alcotest.(check int) "one enumeration abort" 1 (d "patch_fun.aborts");
  Alcotest.(check bool) "partial SAT calls recorded" true (d "patch_fun.sat_calls" > 0);
  Alcotest.(check bool) "outcome charges the aborted calls" true
    (o.Eco.Engine.sat_calls > 0);
  Alcotest.(check int) "eco.sat_calls matches the outcome" o.Eco.Engine.sat_calls
    (d "eco.sat_calls");
  Alcotest.(check bool) "aborted cube note present" true
    (List.mem_assoc "aborted_cubes_w" o.Eco.Engine.notes)

(* Regression: a later target whose solo support search comes back SAT
   (no patch function over the window's divisors) used to fail the whole
   unit with Failed("target cannot rectify"), discarding the
   already-substituted patches even though feasibility was proven.  The
   engine must instead route the step to the structural fallback, like a
   budget timeout.  Built-in windows make every window PI a divisor, which
   leaves enough expressive power for any feasible decomposition — so the
   test supplies a restricted divisor set through ?window, as an external
   windowing heuristic might. *)
let test_step_infeasible_falls_back () =
  let impl =
    Netlist.create
      [
        n "a" Netlist.Input [];
        n "b" Netlist.Input [];
        n "w1" Netlist.And [ "a"; "b" ];
        n "w2" Netlist.Or [ "a"; "b" ];
        n "y1" Netlist.Buf [ "w1" ];
        n "y2" Netlist.Buf [ "w2" ];
      ]
      ~outputs:[ "y1"; "y2" ]
  in
  let spec =
    Netlist.create
      [
        n "a" Netlist.Input [];
        n "b" Netlist.Input [];
        n "y1" Netlist.Not [ "a" ];
        n "y2" Netlist.Xor [ "a"; "b" ];
      ]
      ~outputs:[ "y1"; "y2" ]
  in
  let weights = Hashtbl.create 4 in
  let inst =
    Eco.Instance.make ~name:"stepinf" ~impl ~spec ~targets:[ "w1"; "w2" ] ~weights ()
  in
  (* w1 needs n1 = !a — expressible over divisor {a}.  w2 needs n2 = a ^ b,
     which no function of a alone provides: its support query is SAT. *)
  let window =
    {
      Eco.Window.window_pos = [ "y1"; "y2" ];
      window_pis = [ "a"; "b" ];
      divisors = [ ("a", 1) ];
    }
  in
  let o = Eco.Engine.solve ~config:(Eco.Engine.config_of_method Eco.Engine.Min_assume) ~window inst in
  check_solved_verified "step-infeasible fallback" o;
  Alcotest.(check bool) "used structural fallback" true o.Eco.Engine.used_structural;
  Alcotest.(check bool) "the infeasible step is on record" true
    (List.mem_assoc "step_infeasible" o.Eco.Engine.notes);
  Alcotest.(check (list string)) "both targets patched" [ "w1"; "w2" ]
    (List.sort compare (List.map (fun p -> p.Eco.Patch.target) o.Eco.Engine.patches))

(* {2 Patch circuits} *)

let redundant_patch () =
  (* a ∧ b computed twice and ORed: 5 ANDs where 1 suffices. *)
  let m = Aig.create () in
  let a = Aig.add_input m and b = Aig.add_input m in
  let f1 = Aig.and_ m a b in
  let f2 = Aig.not_ (Aig.or_ m (Aig.not_ a) (Aig.not_ b)) in
  ignore (Aig.add_output m (Aig.or_ m f1 f2));
  Eco.Patch.make ~target:"t" ~support:[ ("a", 1); ("b", 2) ] m

let test_import_into_order () =
  (* Regression for the quadratic import path: a wide-support patch must
     import with its inputs mapped in declaration order. *)
  let k = 12 in
  let m = Aig.create () in
  let ins = Array.init k (fun _ -> Aig.add_input m) in
  (* Alternating-phase AND chain: sensitive to any input permutation. *)
  let body =
    Array.to_list (Array.mapi (fun i l -> if i land 1 = 0 then l else Aig.not_ l) ins)
  in
  ignore (Aig.add_output m (Aig.and_list m body));
  let support = List.init k (fun i -> (Printf.sprintf "s%d" i, 1)) in
  let p = Eco.Patch.make ~target:"t" ~support m in
  let host = Aig.create () in
  let host_ins = Array.to_list (Array.init k (fun _ -> Aig.add_input host)) in
  let lit = Eco.Patch.import_into p host ~support_lits:host_ins in
  let bits = Array.init k (fun i -> i land 1 = 0) in
  Alcotest.(check bool) "on-set row" true (Aig.eval host bits lit);
  bits.(3) <- true;
  Alcotest.(check bool) "off-set row" false (Aig.eval host bits lit)

let test_sweep_zero_queries () =
  let p = redundant_patch () in
  let counter name = Option.value ~default:0 (List.assoc_opt name (Telemetry.snapshot ())) in
  let runs = counter "eco.sweep.runs" and proved = counter "eco.sweep.proved" in
  let p' = Eco.Patch.sweep ~max_queries:0 p in
  Alcotest.(check int) "sweep booked" (runs + 1) (counter "eco.sweep.runs");
  Alcotest.(check int) "no SAT-confirmed merge" proved (counter "eco.sweep.proved");
  Alcotest.(check (list (pair string int))) "support intact" p.Eco.Patch.support
    p'.Eco.Patch.support;
  List.iter
    (fun bits ->
      Alcotest.(check bool) "same function" (Eco.Patch.eval p bits) (Eco.Patch.eval p' bits))
    [ [| false; false |]; [| false; true |]; [| true; false |]; [| true; true |] ]

let () =
  Alcotest.run "eco"
    [
      ( "engine",
        [
          Alcotest.test_case "tiny instance, all methods" `Quick test_tiny_all_methods;
          Alcotest.test_case "tiny structural" `Quick test_tiny_structural;
          Alcotest.test_case "window computation" `Quick test_window;
          Alcotest.test_case "window divisors: suite units" `Quick test_window_divisors_suite;
          Alcotest.test_case "window divisors: random dags" `Quick test_window_divisors_random;
          Alcotest.test_case "window divisors: spec-only inputs" `Quick
            test_window_divisors_spec_inputs;
          Alcotest.test_case "patch is the xor" `Quick test_patch_function_is_xor;
          Alcotest.test_case "weights steer support" `Quick test_weights_steer_support;
          Alcotest.test_case "multi target" `Slow test_multi_target;
          Alcotest.test_case "infeasible detected" `Quick test_infeasible_detected;
          Alcotest.test_case "verify rejects wrong patch" `Quick test_verify_rejects_wrong_patch;
          Alcotest.test_case "certified verify" `Quick test_verify_certified;
          Alcotest.test_case "patched netlist structure" `Quick test_patched_netlist_structure;
          Alcotest.test_case "union cost conflict resolution" `Quick
            test_union_cost_conflicting_costs;
          Alcotest.test_case "abort keeps solver effort" `Quick
            test_abort_keeps_solver_effort;
          Alcotest.test_case "step-infeasible falls back to structural" `Quick
            test_step_infeasible_falls_back;
        ] );
      ( "optimality",
        [
          Alcotest.test_case "exact <= min_assume (single target)" `Slow
            test_exact_not_worse_than_min_assume_single_target;
          Alcotest.test_case "min_assume <= baseline" `Slow test_min_assume_not_worse_than_baseline;
          Alcotest.test_case "exact = brute force minimum" `Quick
            test_exact_is_minimum_by_brute_force;
          Alcotest.test_case "exact: counted node budget" `Quick test_sat_prune_node_budget;
        ] );
      ( "patch",
        [
          Alcotest.test_case "import_into order" `Quick test_import_into_order;
          Alcotest.test_case "sweep: zero query cap" `Quick test_sweep_zero_queries;
        ] );
      ("property", [ random_instances_solved ]);
    ]
