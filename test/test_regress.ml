(* Edge cases and failure injection across the libraries. *)

let lit = Sat.Lit.make
let nlit = Sat.Lit.make_neg
let fails_failure f = match f () with exception Failure _ -> true | _ -> false
let fails_invalid f = match f () with exception Invalid_argument _ -> true | _ -> false

let test_solver_edges () =
  let s = Sat.Solver.create () in
  Alcotest.(check bool) "value before solve" true
    (fails_invalid (fun () -> ignore (Sat.Solver.value s (lit 0))));
  Alcotest.(check bool) "new_vars 0" true (fails_invalid (fun () -> ignore (Sat.Solver.new_vars s 0)));
  let a = Sat.Solver.new_var s in
  let b = Sat.Solver.new_var s in
  Sat.Solver.add_clause s [ lit a; lit b ];
  (* Duplicate assumptions are harmless. *)
  Alcotest.(check bool) "dup assumptions" true
    (Sat.Solver.solve ~assumptions:[ lit a; lit a; lit a ] s = Sat.Solver.Sat);
  (* Contradictory assumptions: unsat with a small core. *)
  (match Sat.Solver.solve ~assumptions:[ lit a; nlit a ] s with
  | Sat.Solver.Unsat ->
    let core = Sat.Solver.final_conflict s in
    Alcotest.(check bool) "core nonempty" true (core <> [])
  | _ -> Alcotest.fail "contradictory assumptions must be unsat");
  (* Model covers all variables. *)
  (match Sat.Solver.solve s with
  | Sat.Solver.Sat -> Alcotest.(check int) "model width" 2 (Array.length (Sat.Solver.model s))
  | _ -> Alcotest.fail "sat");
  Alcotest.(check bool) "final_conflict after sat" true
    (fails_invalid (fun () -> ignore (Sat.Solver.final_conflict s)))

let test_dimacs_failures () =
  Alcotest.(check bool) "missing header" true
    (fails_failure (fun () -> ignore (Sat.Dimacs.parse_string "1 2 0\n")));
  Alcotest.(check bool) "bad token" true
    (fails_failure (fun () -> ignore (Sat.Dimacs.parse_string "p cnf 2 1\n1 x 0\n")));
  let s = Sat.Solver.create () in
  ignore (Sat.Solver.new_var s);
  Alcotest.(check bool) "load into non-fresh" true
    (fails_invalid (fun () ->
         Sat.Dimacs.load_into s { Sat.Dimacs.num_vars = 1; clauses = [] }))

let test_verilog_failures () =
  Alcotest.(check bool) "eof mid-module" true
    (fails_failure (fun () -> ignore (Netlist.Verilog.of_string "module m (a);\ninput a;")));
  Alcotest.(check bool) "weights bad line" true
    (fails_failure (fun () -> ignore (Netlist.Weights.of_string "a b c\n")))

let test_instance_validation () =
  let n name gate fanins = { Netlist.name; gate; fanins = Array.of_list fanins } in
  let impl =
    Netlist.create [ n "a" Netlist.Input []; n "y" Netlist.Buf [ "a" ] ] ~outputs:[ "y" ]
  in
  let spec_bad_io =
    Netlist.create
      [ n "a" Netlist.Input []; n "b" Netlist.Input []; n "y" Netlist.And [ "a"; "b" ] ]
      ~outputs:[ "y" ]
  in
  let w = Hashtbl.create 4 in
  Alcotest.(check bool) "io mismatch" true
    (fails_failure (fun () ->
         ignore (Eco.Instance.make ~impl ~spec:spec_bad_io ~targets:[ "y" ] ~weights:w ())));
  let spec = Netlist.create [ n "a" Netlist.Input []; n "y" Netlist.Not [ "a" ] ] ~outputs:[ "y" ] in
  Alcotest.(check bool) "unknown target" true
    (fails_failure (fun () ->
         ignore (Eco.Instance.make ~impl ~spec ~targets:[ "zz" ] ~weights:w ())));
  Alcotest.(check bool) "input target" true
    (fails_failure (fun () ->
         ignore (Eco.Instance.make ~impl ~spec ~targets:[ "a" ] ~weights:w ())));
  Alcotest.(check bool) "duplicate target" true
    (fails_failure (fun () ->
         ignore (Eco.Instance.make ~impl ~spec ~targets:[ "y"; "y" ] ~weights:w ())));
  (* An empty target list is no longer a validation failure: it denotes a
     blind instance whose targets are to be discovered (lib/diff). *)
  let blind = Eco.Instance.make ~impl ~spec ~targets:[] ~weights:w () in
  Alcotest.(check (list string)) "no targets = blind instance" [] blind.Eco.Instance.targets

let test_patch_validation () =
  let m = Aig.create () in
  let x = Aig.add_input m in
  ignore (Aig.add_output m x);
  Alcotest.(check bool) "support arity" true
    (fails_invalid (fun () -> ignore (Eco.Patch.make ~target:"t" ~support:[] m)));
  let p = Eco.Patch.make ~target:"t" ~support:[ ("s", 1) ] m in
  let dst = Aig.create () in
  Alcotest.(check bool) "import arity" true
    (fails_invalid (fun () -> ignore (Eco.Patch.import_into p dst ~support_lits:[])));
  (* Two outputs rejected. *)
  let m2 = Aig.create () in
  let y = Aig.add_input m2 in
  ignore (Aig.add_output m2 y);
  ignore (Aig.add_output m2 (Aig.not_ y));
  Alcotest.(check bool) "one output only" true
    (fails_invalid (fun () -> ignore (Eco.Patch.make ~target:"t" ~support:[ ("s", 1) ] m2)))

let test_netlist_eval_missing_input () =
  let n name gate fanins = { Netlist.name; gate; fanins = Array.of_list fanins } in
  let t =
    Netlist.create [ n "a" Netlist.Input []; n "y" Netlist.Buf [ "a" ] ] ~outputs:[ "y" ]
  in
  Alcotest.(check bool) "missing input value" true
    (fails_failure (fun () -> ignore (Netlist.eval t [])))

let test_engine_no_verify () =
  let n name gate fanins = { Netlist.name; gate; fanins = Array.of_list fanins } in
  let impl =
    Netlist.create
      [ n "a" Netlist.Input []; n "b" Netlist.Input []; n "w" Netlist.And [ "a"; "b" ];
        n "y" Netlist.Buf [ "w" ] ]
      ~outputs:[ "y" ]
  in
  let spec =
    Netlist.create
      [ n "a" Netlist.Input []; n "b" Netlist.Input []; n "w" Netlist.Or [ "a"; "b" ];
        n "y" Netlist.Buf [ "w" ] ]
      ~outputs:[ "y" ]
  in
  let inst = Eco.Instance.make ~impl ~spec ~targets:[ "w" ] ~weights:(Hashtbl.create 4) () in
  let config = { Eco.Engine.default_config with Eco.Engine.verify = false } in
  let o = Eco.Engine.solve ~config inst in
  Alcotest.(check bool) "solved" true (o.Eco.Engine.status = Eco.Engine.Solved);
  Alcotest.(check bool) "verification skipped" true (o.Eco.Engine.verified = None)

let test_window_unreachable_target () =
  (* A target that reaches no output must be rejected by Window.compute. *)
  let n name gate fanins = { Netlist.name; gate; fanins = Array.of_list fanins } in
  let impl =
    Netlist.create
      [ n "a" Netlist.Input []; n "dangle" Netlist.Not [ "a" ]; n "y" Netlist.Buf [ "a" ] ]
      ~outputs:[ "y" ]
  in
  let spec =
    Netlist.create
      [ n "a" Netlist.Input []; n "dangle" Netlist.Not [ "a" ]; n "y" Netlist.Not [ "a" ] ]
      ~outputs:[ "y" ]
  in
  let inst = Eco.Instance.make ~impl ~spec ~targets:[ "dangle" ] ~weights:(Hashtbl.create 4) () in
  Alcotest.(check bool) "no output reached" true
    (fails_failure (fun () -> ignore (Eco.Window.compute inst)))

let test_sop_support_mismatch () =
  Alcotest.(check bool) "cube arity" true
    (fails_invalid (fun () ->
         ignore (Twolevel.Sop.create 3 [ Twolevel.Cube.full 4 ])));
  Alcotest.(check bool) "cube var range" true
    (fails_invalid (fun () -> ignore (Twolevel.Cube.of_literals 3 [ (5, true) ])))

let test_factor_idempotent_semantics () =
  (* Factoring a factored-then-flattened cover keeps the function. *)
  let sop =
    Twolevel.Sop.create 4
      [
        Twolevel.Cube.of_literals 4 [ (0, true); (1, true) ];
        Twolevel.Cube.of_literals 4 [ (0, true); (2, false) ];
        Twolevel.Cube.of_literals 4 [ (3, true) ];
      ]
  in
  let e = Twolevel.Factor.factor sop in
  List.iter
    (fun code ->
      let bits = Array.init 4 (fun i -> (code lsr i) land 1 = 1) in
      Alcotest.(check bool) "same" (Twolevel.Sop.eval sop bits) (Twolevel.Factor.eval_expr e bits))
    (List.init 16 Fun.id)

let () =
  Alcotest.run "regress"
    [
      ( "failure-injection",
        [
          Alcotest.test_case "solver edges" `Quick test_solver_edges;
          Alcotest.test_case "dimacs failures" `Quick test_dimacs_failures;
          Alcotest.test_case "verilog/weights failures" `Quick test_verilog_failures;
          Alcotest.test_case "instance validation" `Quick test_instance_validation;
          Alcotest.test_case "patch validation" `Quick test_patch_validation;
          Alcotest.test_case "netlist eval missing input" `Quick test_netlist_eval_missing_input;
          Alcotest.test_case "engine verify off" `Quick test_engine_no_verify;
          Alcotest.test_case "window unreachable target" `Quick test_window_unreachable_target;
          Alcotest.test_case "sop support mismatch" `Quick test_sop_support_mismatch;
          Alcotest.test_case "factor semantics" `Quick test_factor_idempotent_semantics;
        ] );
    ]
