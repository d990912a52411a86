(* Combinational equivalence checking. *)

let to_aig t = (Netlist.Convert.to_aig t).Netlist.Convert.mgr

let test_adder_architectures_equivalent () =
  (* Ripple-carry vs carry-select: same function, different structure. *)
  let a = to_aig (Gen.Circuits.ripple_adder 8) in
  let b = to_aig (Gen.Circuits.carry_select_adder 8) in
  match Cec.check a b with
  | Cec.Equivalent -> ()
  | Cec.Counterexample _ -> Alcotest.fail "adders must be equivalent"
  | Cec.Undecided -> Alcotest.fail "undecided without budget"

let test_inequivalent_detected () =
  let a = to_aig (Gen.Circuits.ripple_adder 6) in
  let impl = Gen.Circuits.ripple_adder 6 in
  (* Break one sum bit. *)
  let broken =
    Netlist.create
      (List.map
         (fun n ->
           if n.Netlist.name = "s3" then { n with Netlist.gate = Netlist.Not } else n)
         (Netlist.nodes impl))
      ~outputs:(Netlist.outputs impl)
  in
  let b = to_aig broken in
  match Cec.check a b with
  | Cec.Counterexample cex ->
    (* The counterexample must actually distinguish the two. *)
    let out_a = List.init (Aig.num_outputs a) (fun i -> Aig.eval a cex (Aig.output a i)) in
    let out_b = List.init (Aig.num_outputs b) (fun i -> Aig.eval b cex (Aig.output b i)) in
    Alcotest.(check bool) "cex distinguishes" true (out_a <> out_b)
  | _ -> Alcotest.fail "expected a counterexample"

let test_check_lit () =
  let m = Aig.create () in
  let x = Aig.add_input m and y = Aig.add_input m in
  (match Cec.check_lit m (Aig.and_ m x (Aig.not_ x)) with
  | Cec.Equivalent -> ()
  | _ -> Alcotest.fail "x & !x is constant false");
  (match Cec.check_lit m (Aig.and_ m x y) with
  | Cec.Counterexample cex ->
    Alcotest.(check bool) "x" true cex.(0);
    Alcotest.(check bool) "y" true cex.(1)
  | _ -> Alcotest.fail "x & y is satisfiable");
  match Cec.check_lit m Aig.false_ with
  | Cec.Equivalent -> ()
  | _ -> Alcotest.fail "constant false"

let test_budget_undecided () =
  (* An inequivalence hidden from random simulation: two mid-size
     multipliers differing only on one product minterm would do, but a
     cheaper trick is a deep parity whose miter needs real search.  Budget 1
     conflict must give Undecided or an answer; never a wrong answer. *)
  let a = to_aig (Gen.Circuits.multiplier 6) in
  let b = to_aig (Gen.Circuits.multiplier 6) in
  match Cec.check ~budget:1 a b with
  | Cec.Counterexample _ -> Alcotest.fail "identical circuits cannot differ"
  | Cec.Equivalent | Cec.Undecided -> ()

(* [a * b] against [b * a]: a miter random simulation cannot settle and
   plain CDCL needs thousands of conflicts for, at 5 bits. *)
let commuted_multiplier_miter n =
  let mul = to_aig (Gen.Circuits.multiplier n) in
  let m = Aig.create () in
  let xs = Aig.add_inputs m n in
  let ys = Aig.add_inputs m n in
  let side first second =
    let map = Aig.fresh_map mul in
    Array.iteri
      (fun i l -> map.(Aig.node_of l) <- (if i < n then first.(i) else second.(i - n)))
      (Aig.inputs mul);
    Aig.import m mul ~map (Array.to_list (Aig.outputs mul))
  in
  (m, Aig.or_list m (List.map2 (Aig.xor_ m) (side xs ys) (side ys xs)))

let counter name = Option.value ~default:0 (List.assoc_opt name (Telemetry.snapshot ()))

let test_one_attempt () =
  let m, miter = commuted_multiplier_miter 5 in
  let checked = counter "cert.checked" and failed = counter "cert.failed" in
  (match Cec.check_lit ~certify:true m miter with
  | Cec.Equivalent -> ()
  | Cec.Counterexample _ | Cec.Undecided -> Alcotest.fail "a * b = b * a");
  Alcotest.(check int) "one certification" 1 (counter "cert.checked" - checked);
  Alcotest.(check int) "certified" 0 (counter "cert.failed" - failed);
  let before = counter "sat.solves" in
  (match Cec.check_lit m miter with
  | Cec.Equivalent -> ()
  | Cec.Counterexample _ | Cec.Undecided -> Alcotest.fail "a * b = b * a");
  Alcotest.(check int) "one solve on one solver" 1 (counter "sat.solves" - before)

(* The memo contract: uncertified [check_lit] consults [lookup] first and
   stores decisive verdicts; a certifying check never touches the memo;
   [Undecided] is never stored. *)
let test_memo_contract () =
  let table = Hashtbl.create 8 in
  let lookups = ref 0 and stores = ref 0 in
  Cec.set_memo
    (Some
       {
         Cec.lookup =
           (fun _ l ->
             incr lookups;
             Hashtbl.find_opt table l);
         store =
           (fun _ l v ->
             incr stores;
             Hashtbl.replace table l v);
       });
  Fun.protect ~finally:(fun () -> Cec.set_memo None) @@ fun () ->
  let m = Aig.create () in
  let x = Aig.add_input m and y = Aig.add_input m in
  let l = Aig.and_ m x y in
  let solves = counter "sat.solves" in
  let first = Cec.check_lit m l in
  Alcotest.(check (pair int int)) "miss, then store" (1, 1) (!lookups, !stores);
  let second = Cec.check_lit m l in
  Alcotest.(check (pair int int)) "served by lookup" (2, 1) (!lookups, !stores);
  Alcotest.(check bool) "same verdict" true (first = second);
  Alcotest.(check int) "one solve" 1 (counter "sat.solves" - solves);
  let checked = counter "cert.checked" in
  (match Cec.check_lit ~certify:true m l with
  | Cec.Counterexample _ -> ()
  | Cec.Equivalent | Cec.Undecided -> Alcotest.fail "x & y is satisfiable");
  Alcotest.(check (pair int int)) "certify bypasses the memo" (2, 1) (!lookups, !stores);
  Alcotest.(check int) "certified" 1 (counter "cert.checked" - checked);
  let hard, miter = commuted_multiplier_miter 5 in
  (match Cec.check_lit ~budget:1 hard miter with
  | Cec.Undecided -> ()
  | Cec.Equivalent | Cec.Counterexample _ ->
    Alcotest.fail "one conflict cannot decide a * b = b * a");
  Alcotest.(check (pair int int)) "undecided is not stored" (3, 1) (!lookups, !stores)

let test_arity_mismatch () =
  let a = to_aig (Gen.Circuits.parity_tree 3) in
  let b = to_aig (Gen.Circuits.parity_tree 4) in
  Alcotest.check_raises "input arity" (Invalid_argument "Cec.build_miter: input arity")
    (fun () -> ignore (Cec.check a b))

let sim_catches_easy_bugs =
  Test_util.qcheck ~count:50 "random netlist vs mutated copy"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let t = Gen.Circuits.random_dag ~seed ~inputs:6 ~gates:30 ~outputs:4 () in
      let a = to_aig t in
      let b = to_aig t in
      (* Identical: must be equivalent. *)
      Cec.check a b = Cec.Equivalent)

let () =
  Alcotest.run "cec"
    [
      ( "unit",
        [
          Alcotest.test_case "adder architectures" `Quick test_adder_architectures_equivalent;
          Alcotest.test_case "inequivalence detected" `Quick test_inequivalent_detected;
          Alcotest.test_case "check_lit" `Quick test_check_lit;
          Alcotest.test_case "budget undecided" `Quick test_budget_undecided;
          Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch;
          Alcotest.test_case "hard query decided in one attempt" `Quick test_one_attempt;
          Alcotest.test_case "memo contract" `Quick test_memo_contract;
        ] );
      ("property", [ sim_catches_easy_bugs ]);
    ]
