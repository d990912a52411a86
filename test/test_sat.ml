(* CDCL solver: unit tests plus randomized cross-checks against brute
   force. *)

let lit = Sat.Lit.make
let nlit = Sat.Lit.make_neg

let test_lit_encoding () =
  Alcotest.(check int) "var of pos" 3 (Sat.Lit.var (lit 3));
  Alcotest.(check int) "var of neg" 3 (Sat.Lit.var (nlit 3));
  Alcotest.(check bool) "pos polarity" false (Sat.Lit.is_neg (lit 3));
  Alcotest.(check bool) "neg polarity" true (Sat.Lit.is_neg (nlit 3));
  Alcotest.(check int) "neg involutive" (lit 5) (Sat.Lit.neg (Sat.Lit.neg (lit 5)));
  Alcotest.(check int) "dimacs pos" 4 (Sat.Lit.to_dimacs (lit 3));
  Alcotest.(check int) "dimacs neg" (-4) (Sat.Lit.to_dimacs (nlit 3));
  Alcotest.(check int) "dimacs roundtrip" (nlit 7) (Sat.Lit.of_dimacs (Sat.Lit.to_dimacs (nlit 7)));
  Alcotest.check_raises "of_dimacs 0" (Invalid_argument "Lit.of_dimacs: 0") (fun () ->
      ignore (Sat.Lit.of_dimacs 0))

let test_trivial_sat () =
  let s = Sat.Solver.create () in
  let a = Sat.Solver.new_var s in
  Sat.Solver.add_clause s [ lit a ];
  (match Sat.Solver.solve s with
  | Sat.Solver.Sat -> Alcotest.(check bool) "a true" true (Sat.Solver.value s (lit a))
  | _ -> Alcotest.fail "expected SAT");
  Alcotest.(check bool) "still okay" true (Sat.Solver.okay s)

let test_trivial_unsat () =
  let s = Sat.Solver.create () in
  let a = Sat.Solver.new_var s in
  Sat.Solver.add_clause s [ lit a ];
  Sat.Solver.add_clause s [ nlit a ];
  (match Sat.Solver.solve s with
  | Sat.Solver.Unsat -> ()
  | _ -> Alcotest.fail "expected UNSAT");
  Alcotest.(check bool) "okay false after empty conflict" false (Sat.Solver.okay s)

let test_empty_clause () =
  let s = Sat.Solver.create () in
  Sat.Solver.add_clause s [];
  Alcotest.(check bool) "okay" false (Sat.Solver.okay s);
  Alcotest.(check bool) "unsat" true (Sat.Solver.solve s = Sat.Solver.Unsat)

let test_tautology_dropped () =
  let s = Sat.Solver.create () in
  let a = Sat.Solver.new_var s in
  Sat.Solver.add_clause s [ lit a; nlit a ];
  Alcotest.(check int) "no clause stored" 0 (Sat.Solver.nclauses s);
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat.Solver.Sat)

let test_implication_chain () =
  let s = Sat.Solver.create () in
  let n = 50 in
  let v = Sat.Solver.new_vars s n in
  for i = 0 to n - 2 do
    Sat.Solver.add_clause s [ nlit (v + i); lit (v + i + 1) ]
  done;
  Sat.Solver.add_clause s [ lit v ];
  (match Sat.Solver.solve s with
  | Sat.Solver.Sat ->
    for i = 0 to n - 1 do
      Alcotest.(check bool) (Printf.sprintf "chain %d" i) true (Sat.Solver.value s (lit (v + i)))
    done
  | _ -> Alcotest.fail "expected SAT")

let test_assumptions_flip () =
  let s = Sat.Solver.create () in
  let a = Sat.Solver.new_var s and b = Sat.Solver.new_var s in
  Sat.Solver.add_clause s [ lit a; lit b ];
  (* Both polarities of [a] are satisfiable under assumptions. *)
  Alcotest.(check bool) "a=1" true (Sat.Solver.solve ~assumptions:[ lit a ] s = Sat.Solver.Sat);
  Alcotest.(check bool) "a=0" true (Sat.Solver.solve ~assumptions:[ nlit a ] s = Sat.Solver.Sat);
  Alcotest.(check bool) "model respects assumption" true (Sat.Solver.value s (nlit a));
  Alcotest.(check bool) "b forced" true (Sat.Solver.value s (lit b));
  (* Solver state is reusable afterwards. *)
  Alcotest.(check bool) "no assumptions" true (Sat.Solver.solve s = Sat.Solver.Sat)

let test_final_conflict_subset () =
  let s = Sat.Solver.create () in
  let a = Sat.Solver.new_var s
  and b = Sat.Solver.new_var s
  and c = Sat.Solver.new_var s in
  Sat.Solver.add_clause s [ nlit a; nlit b ];
  (match Sat.Solver.solve ~assumptions:[ lit a; lit b; lit c ] s with
  | Sat.Solver.Unsat ->
    let core = Sat.Solver.final_conflict s in
    Alcotest.(check bool) "a in core" true (List.mem (lit a) core);
    Alcotest.(check bool) "b in core" true (List.mem (lit b) core);
    Alcotest.(check bool) "c not in core" false (List.mem (lit c) core)
  | _ -> Alcotest.fail "expected UNSAT under assumptions");
  (* The clause set itself stays satisfiable. *)
  Alcotest.(check bool) "still sat" true (Sat.Solver.solve s = Sat.Solver.Sat)

let test_final_conflict_level0 () =
  (* The assumption fails against a unit clause: core is the assumption
     alone. *)
  let s = Sat.Solver.create () in
  let a = Sat.Solver.new_var s in
  let b = Sat.Solver.new_var s in
  ignore b;
  Sat.Solver.add_clause s [ nlit a ];
  (match Sat.Solver.solve ~assumptions:[ lit b; lit a ] s with
  | Sat.Solver.Unsat ->
    let core = Sat.Solver.final_conflict s in
    Alcotest.(check (list int)) "core = [a]" [ lit a ] core
  | _ -> Alcotest.fail "expected UNSAT")

(* Pigeonhole principle, [pigeons] into [holes]: unsatisfiable when
   there are more pigeons, and hard for resolution. *)
let pigeonhole s ~pigeons ~holes =
  let v = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.Solver.new_var s)) in
  for i = 0 to pigeons - 1 do
    Sat.Solver.add_clause s (List.init holes (fun j -> lit v.(i).(j)))
  done;
  for j = 0 to holes - 1 do
    for i1 = 0 to pigeons - 1 do
      for i2 = i1 + 1 to pigeons - 1 do
        Sat.Solver.add_clause s [ nlit v.(i1).(j); nlit v.(i2).(j) ]
      done
    done
  done

let test_budget_unknown () =
  (* php(6) needs hundreds of conflicts; a budget of 5 must give Unknown. *)
  let s = Sat.Solver.create () in
  pigeonhole s ~pigeons:7 ~holes:6;
  Sat.Solver.set_budget s 5;
  Alcotest.(check bool) "unknown" true (Sat.Solver.solve s = Sat.Solver.Unknown);
  Sat.Solver.clear_budget s;
  Alcotest.(check bool) "unsat without budget" true (Sat.Solver.solve s = Sat.Solver.Unsat)

(* PHP 9->8 takes about 19,000 conflicts, well past the 4,000 learned
   clauses that trigger database reduction: learnts are deleted, their
   watches purged and their table slots reused, and the answer must
   stay Unsat.  In proof mode every derivation must still check. *)
let test_reduce_db ~proof () =
  let s = Sat.Solver.create ~proof () in
  pigeonhole s ~pigeons:9 ~holes:8;
  Alcotest.(check bool) "unsat" true (Sat.Solver.solve s = Sat.Solver.Unsat);
  Alcotest.(check bool) "learnts deleted" true (Sat.Solver.n_deleted s > 0);
  match Sat.Solver.proof s with
  | None -> ()
  | Some p ->
    Alcotest.(check bool) "empty clause derived" true (Sat.Proof.empty_clause p <> None);
    Alcotest.(check bool) "proof checks" true (Test_util.proof_valid p)

let test_incremental_narrowing () =
  (* Adding clauses between solves narrows the model set monotonically. *)
  let s = Sat.Solver.create () in
  let n = 8 in
  let v = Sat.Solver.new_vars s n in
  Alcotest.(check bool) "initial sat" true (Sat.Solver.solve s = Sat.Solver.Sat);
  for i = 0 to n - 1 do
    Sat.Solver.add_clause s [ lit (v + i) ];
    Alcotest.(check bool) (Printf.sprintf "sat after %d units" i) true (Sat.Solver.solve s = Sat.Solver.Sat)
  done;
  for i = 0 to n - 1 do
    Alcotest.(check bool) "forced true" true (Sat.Solver.value s (lit (v + i)))
  done;
  Sat.Solver.add_clause s [ nlit v ];
  Alcotest.(check bool) "now unsat" true (Sat.Solver.solve s = Sat.Solver.Unsat)

let test_xor_bank () =
  (* x_i xor x_{i+1} = c_i chains exercise long implications both ways. *)
  let s = Sat.Solver.create () in
  let n = 30 in
  let v = Sat.Solver.new_vars s n in
  let xor_clause a b rhs =
    (* a xor b = rhs *)
    if rhs then begin
      Sat.Solver.add_clause s [ lit a; lit b ];
      Sat.Solver.add_clause s [ nlit a; nlit b ]
    end
    else begin
      Sat.Solver.add_clause s [ lit a; nlit b ];
      Sat.Solver.add_clause s [ nlit a; lit b ]
    end
  in
  for i = 0 to n - 2 do
    xor_clause (v + i) (v + i + 1) (i mod 2 = 0)
  done;
  (match Sat.Solver.solve ~assumptions:[ lit v ] s with
  | Sat.Solver.Sat ->
    (* Values are fully determined by the first variable. *)
    let expected = Array.make n true in
    for i = 0 to n - 2 do
      expected.(i + 1) <- (if i mod 2 = 0 then not expected.(i) else expected.(i))
    done;
    for i = 0 to n - 1 do
      Alcotest.(check bool) (Printf.sprintf "xor chain %d" i) expected.(i)
        (Sat.Solver.value s (lit (v + i)))
    done
  | _ -> Alcotest.fail "expected SAT")

(* Trajectory pin.  A fixed incremental session on an adder miter: first
   the equivalence of a ripple-carry and a carry-select adder, then
   queries that assume some inputs and one sum bit, with an occasional
   clause added in between.  The answers, models, cores and search
   counters below were recorded on the solver before its kernel was
   rewritten for speed: a change to the search itself (propagation order,
   branching, learning, deletion) moves them, a pure speed-up does not. *)
let pin_trajectory () =
  let n = 8 in
  let a = (Netlist.Convert.to_aig (Gen.Circuits.ripple_adder n)).Netlist.Convert.mgr in
  let b = (Netlist.Convert.to_aig (Gen.Circuits.carry_select_adder n)).Netlist.Convert.mgr in
  let m, miter = Cec.build_miter a b in
  let map = Aig.fresh_map a in
  Array.iteri (fun i l -> map.(Aig.node_of l) <- (Aig.inputs m).(i)) (Aig.inputs a);
  let sums = Aig.import m a ~map (Array.to_list (Aig.outputs a)) in
  let s = Sat.Solver.create () in
  let env = Aig.Cnf.create m s in
  let diff = Aig.Cnf.lit env miter in
  let xs = Array.map (Aig.Cnf.lit env) (Aig.inputs m) in
  let outs = Array.of_list (List.map (Aig.Cnf.lit env) sums) in
  let state = ref 23 in
  let coin () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    (!state lsr 16) land 1 = 1
  in
  let query assumptions =
    let answer =
      match Sat.Solver.solve ~assumptions s with
      | Sat.Solver.Sat ->
        let bit x = if Sat.Solver.value s x then "1" else "0" in
        "sat " ^ String.concat "" (Array.to_list (Array.map bit xs))
      | Sat.Solver.Unsat ->
        "unsat " ^ String.concat " " (List.map string_of_int (Sat.Solver.final_conflict s))
      | Sat.Solver.Unknown -> "unknown"
    in
    Printf.sprintf "%s c=%d d=%d p=%d" answer (Sat.Solver.n_conflicts s)
      (Sat.Solver.n_decisions s) (Sat.Solver.n_propagations s)
  in
  let first = query [ diff ] in
  first
  :: List.init 12 (fun q ->
         if q = 6 then Sat.Solver.add_clause s [ Sat.Lit.neg xs.(0); xs.(1) ];
         let inputs =
           List.filter_map
             (fun x -> if coin () || coin () then Some (Sat.Lit.apply_sign x (coin ())) else None)
             (Array.to_list xs)
         in
         let out = Sat.Lit.apply_sign outs.(q mod 4) (coin ()) in
         query ((if q mod 5 = 0 then [ diff ] else []) @ inputs @ [ out ]))

let test_trajectory_pin () =
  Alcotest.(check (list string))
    "answers and counters"
    [
      "unsat 263 c=57 d=88 p=1906";
      "unsat 263 c=57 d=88 p=1906";
      "unsat 51 52 56 58 275 c=57 d=88 p=1978";
      "sat 10110110101111100 c=58 d=91 p=2142";
      "unsat 38 40 45 51 53 287 c=58 d=91 p=2208";
      "sat 10101110010110111 c=58 d=95 p=2340";
      "unsat 263 c=58 d=95 p=2340";
      "sat 11110001100111110 c=58 d=95 p=2472";
      "unsat 51 56 c=58 d=95 p=2476";
      "sat 00100100110101111 c=58 d=98 p=2608";
      "sat 11011001000101100 c=58 d=101 p=2740";
      "unsat 263 c=58 d=101 p=2740";
      "sat 11100111110001001 c=58 d=104 p=2872";
    ]
    (pin_trajectory ())

let random_cross_check =
  Test_util.qcheck ~count:300 "random CNF agrees with brute force"
    QCheck2.Gen.(pair (int_range 0 1_000_000) (pair (int_range 3 9) (int_range 1 30)))
    (fun (seed, (nv, nc)) ->
      let rand = Random.State.make [| seed |] in
      let clauses = Test_util.random_cnf rand nv nc 3 in
      let s = Sat.Solver.create () in
      ignore (Sat.Solver.new_vars s nv);
      List.iter (Sat.Solver.add_clause s) clauses;
      let got = Sat.Solver.solve s in
      match (got, Test_util.brute_force_sat nv clauses) with
      | Sat.Solver.Sat, Some _ ->
        (* The model must satisfy every clause. *)
        List.for_all (fun cls -> List.exists (fun l -> Sat.Solver.value s l) cls) clauses
      | Sat.Solver.Unsat, None -> true
      | _ -> false)

let random_core_check =
  Test_util.qcheck ~count:200 "assumption core is inconsistent and sound"
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 3 8))
    (fun (seed, nv) ->
      let rand = Random.State.make [| seed |] in
      let clauses = Test_util.random_cnf rand nv (2 * nv) 3 in
      let s = Sat.Solver.create () in
      ignore (Sat.Solver.new_vars s nv);
      List.iter (Sat.Solver.add_clause s) clauses;
      let assumptions = List.init nv (fun v -> Sat.Lit.of_var v (Random.State.bool rand)) in
      match Sat.Solver.solve ~assumptions s with
      | Sat.Solver.Sat | Sat.Solver.Unknown -> true
      | Sat.Solver.Unsat ->
        let core = Sat.Solver.final_conflict s in
        (* Core literals are assumptions... *)
        List.for_all (fun l -> List.mem l assumptions) core
        &&
        (* ... and the formula plus core is really unsatisfiable. *)
        Test_util.brute_force_sat nv (clauses @ List.map (fun l -> [ l ]) core) = None)

let dimacs_roundtrip =
  Test_util.qcheck ~count:100 "dimacs parse/print roundtrip"
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 1 8))
    (fun (seed, nv) ->
      let rand = Random.State.make [| seed |] in
      let clauses = Test_util.random_cnf rand nv nv 3 in
      let cnf = { Sat.Dimacs.num_vars = nv; clauses } in
      let cnf' = Sat.Dimacs.parse_string (Sat.Dimacs.to_string cnf) in
      cnf'.Sat.Dimacs.clauses = clauses && cnf'.Sat.Dimacs.num_vars >= nv)

let test_dimacs_parse () =
  let cnf = Sat.Dimacs.parse_string "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  Alcotest.(check int) "vars" 3 cnf.Sat.Dimacs.num_vars;
  Alcotest.(check int) "clauses" 2 (List.length cnf.Sat.Dimacs.clauses);
  let s = Sat.Solver.create () in
  Sat.Dimacs.load_into s cnf;
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat.Solver.Sat)

let () =
  Alcotest.run "sat"
    [
      ( "unit",
        [
          Alcotest.test_case "literal encoding" `Quick test_lit_encoding;
          Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
          Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "tautology dropped" `Quick test_tautology_dropped;
          Alcotest.test_case "implication chain" `Quick test_implication_chain;
          Alcotest.test_case "assumptions flip" `Quick test_assumptions_flip;
          Alcotest.test_case "final conflict subset" `Quick test_final_conflict_subset;
          Alcotest.test_case "final conflict at level 0" `Quick test_final_conflict_level0;
          Alcotest.test_case "budget gives unknown" `Quick test_budget_unknown;
          Alcotest.test_case "incremental narrowing" `Quick test_incremental_narrowing;
          Alcotest.test_case "xor chains" `Quick test_xor_bank;
          Alcotest.test_case "dimacs parse" `Quick test_dimacs_parse;
          Alcotest.test_case "reduce_db keeps unsat" `Quick (test_reduce_db ~proof:false);
          Alcotest.test_case "reduce_db keeps unsat (proof)" `Quick (test_reduce_db ~proof:true);
          Alcotest.test_case "trajectory pin" `Quick test_trajectory_pin;
        ] );
      ("property", [ random_cross_check; random_core_check; dimacs_roundtrip ]);
    ]
