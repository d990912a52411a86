(* SAT sweeping: function preservation, merging power, bounds. *)

let to_aig t = (Netlist.Convert.to_aig t).Netlist.Convert.mgr

let truth_tables m =
  List.init (Aig.num_outputs m) (fun i -> Test_util.truth_table m (Aig.output m i))

let test_preserves_adder () =
  let m = to_aig (Gen.Circuits.ripple_adder 4) in
  let swept, stats = Aig.Fraig.sweep m in
  Alcotest.(check int) "inputs preserved" (Aig.num_inputs m) (Aig.num_inputs swept);
  Alcotest.(check int) "outputs preserved" (Aig.num_outputs m) (Aig.num_outputs swept);
  Alcotest.(check bool) "no growth" true
    (stats.Aig.Fraig.nodes_after <= stats.Aig.Fraig.nodes_before);
  (* 9 inputs: exhaustive functional comparison. *)
  List.iteri
    (fun i (a, b) -> Alcotest.(check bool) (Printf.sprintf "output %d" i) true (a = b))
    (List.combine (truth_tables m) (truth_tables swept))

let test_merges_duplicated_logic () =
  (* Two structurally different computations of the same function must
     merge: x XOR y built two ways feeding separate outputs. *)
  let m = Aig.create () in
  let x = Aig.add_input m and y = Aig.add_input m in
  let xor1 = Aig.or_ m (Aig.and_ m x (Aig.not_ y)) (Aig.and_ m (Aig.not_ x) y) in
  let xor2 = Aig.not_ (Aig.or_ m (Aig.and_ m x y) (Aig.and_ m (Aig.not_ x) (Aig.not_ y))) in
  ignore (Aig.add_output m (Aig.and_ m xor1 x));
  ignore (Aig.add_output m (Aig.and_ m xor2 y));
  let swept, stats = Aig.Fraig.sweep m in
  Alcotest.(check bool) "proved at least one merge" true (stats.Aig.Fraig.proved >= 1);
  Alcotest.(check bool) "node count shrank" true
    (stats.Aig.Fraig.nodes_after < stats.Aig.Fraig.nodes_before);
  List.iteri
    (fun i (a, b) -> Alcotest.(check bool) (Printf.sprintf "output %d" i) true (a = b))
    (List.combine (truth_tables m) (truth_tables swept))

let sweep_preserves_random_functions =
  Test_util.qcheck ~count:100 "sweep preserves random netlist functions"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let m = to_aig (Gen.Circuits.random_dag ~seed ~inputs:5 ~gates:40 ~outputs:4 ()) in
      let swept, stats = Aig.Fraig.sweep m in
      stats.Aig.Fraig.nodes_after <= stats.Aig.Fraig.nodes_before
      && truth_tables m = truth_tables swept)

let test_patch_sweep () =
  (* A deliberately redundant patch circuit: sweep must shrink it and keep
     the support/arity intact. *)
  let m = Aig.create () in
  let a = Aig.add_input m and b = Aig.add_input m in
  let f1 = Aig.and_ m a b in
  let f2 = Aig.not_ (Aig.or_ m (Aig.not_ a) (Aig.not_ b)) in
  ignore (Aig.add_output m (Aig.or_ m f1 f2));
  let p = Eco.Patch.make ~target:"t" ~support:[ ("a", 1); ("b", 2) ] m in
  let p' = Eco.Patch.sweep p in
  Alcotest.(check bool) "gates shrink" true (p'.Eco.Patch.gates <= p.Eco.Patch.gates);
  Alcotest.(check (list (pair string int))) "support intact" p.Eco.Patch.support p'.Eco.Patch.support;
  List.iter
    (fun (x, y) ->
      Alcotest.(check bool) "same function" (Eco.Patch.eval p [| x; y |])
        (Eco.Patch.eval p' [| x; y |]))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_zero_queries_returns_valid () =
  (* With no SAT queries allowed the sweep must still return a correct
     AIG, merging nothing it has not proved. *)
  let m = to_aig (Gen.Circuits.multiplier 4) in
  let swept, stats = Aig.Fraig.sweep ~max_queries:0 m in
  Alcotest.(check bool) "function preserved without queries" true
    (truth_tables m = truth_tables swept);
  Alcotest.(check int) "no SAT-confirmed merge" 0 stats.Aig.Fraig.proved

let test_low_budget_books_undecided () =
  (* a * b and b * a over shared inputs: simulation pairs their output
     bits, and one conflict is too few to prove any of them, so those
     queries come back undecided, are booked apart from refutations, and
     merge nothing. *)
  let mul = to_aig (Gen.Circuits.multiplier 4) in
  let m = Aig.create () in
  let xs = Aig.add_inputs m 4 and ys = Aig.add_inputs m 4 in
  let side first second =
    let map = Aig.fresh_map mul in
    Array.iteri
      (fun i l -> map.(Aig.node_of l) <- (if i < 4 then first.(i) else second.(i - 4)))
      (Aig.inputs mul);
    Aig.import m mul ~map (Array.to_list (Aig.outputs mul))
  in
  List.iter (fun l -> ignore (Aig.add_output m l)) (side xs ys @ side ys xs);
  let swept, stats = Aig.Fraig.sweep ~budget:1 m in
  Alcotest.(check bool) "some query undecided" true (stats.Aig.Fraig.undecided > 0);
  Alcotest.(check bool) "function preserved" true (truth_tables m = truth_tables swept)

let () =
  Alcotest.run "fraig"
    [
      ( "sweep",
        [
          Alcotest.test_case "preserves adder" `Quick test_preserves_adder;
          Alcotest.test_case "merges duplicated logic" `Quick test_merges_duplicated_logic;
          Alcotest.test_case "patch sweep" `Quick test_patch_sweep;
          Alcotest.test_case "zero query cap safety" `Quick test_zero_queries_returns_valid;
          Alcotest.test_case "low budget books undecided" `Quick test_low_budget_books_undecided;
          sweep_preserves_random_functions;
        ] );
    ]
