(* Generator library: functional correctness of the circuit families,
   mutation soundness, suite integrity. *)

let eval_bits t assignments = Netlist.eval t assignments

let int_of_outs outs names =
  List.fold_left (fun acc (i, name) -> if List.assoc name outs then acc lor (1 lsl i) else acc) 0
    (List.mapi (fun i n -> (i, n)) names)

let adder_inputs n a b cin =
  List.concat
    [
      List.init n (fun i -> (Printf.sprintf "a%d" i, (a lsr i) land 1 = 1));
      List.init n (fun i -> (Printf.sprintf "b%d" i, (b lsr i) land 1 = 1));
      [ ("cin", cin) ];
    ]

let check_adder mk n =
  let t = mk n in
  for a = 0 to (1 lsl n) - 1 do
    for b = 0 to (1 lsl n) - 1 do
      List.iter
        (fun cin ->
          let outs = eval_bits t (adder_inputs n a b cin) in
          let sum = int_of_outs outs (List.init n (fun i -> Printf.sprintf "s%d" i)) in
          let cout = List.assoc "cout" outs in
          let expected = a + b + if cin then 1 else 0 in
          Alcotest.(check int)
            (Printf.sprintf "%d+%d+%b sum" a b cin)
            (expected land ((1 lsl n) - 1))
            sum;
          Alcotest.(check bool) "carry" (expected lsr n = 1) cout)
        [ false; true ]
    done
  done

let test_ripple_adder () = check_adder Gen.Circuits.ripple_adder 3
let test_carry_select_adder () = check_adder Gen.Circuits.carry_select_adder 4

let test_multiplier () =
  let n = 3 in
  let t = Gen.Circuits.multiplier n in
  for a = 0 to (1 lsl n) - 1 do
    for b = 0 to (1 lsl n) - 1 do
      let ins =
        List.init n (fun i -> (Printf.sprintf "a%d" i, (a lsr i) land 1 = 1))
        @ List.init n (fun i -> (Printf.sprintf "b%d" i, (b lsr i) land 1 = 1))
      in
      let outs = eval_bits t ins in
      let p = int_of_outs outs (List.init (2 * n) (fun i -> Printf.sprintf "p%d" i)) in
      Alcotest.(check int) (Printf.sprintf "%d*%d" a b) (a * b) p
    done
  done

let test_comparator () =
  let n = 3 in
  let t = Gen.Circuits.comparator n in
  for a = 0 to (1 lsl n) - 1 do
    for b = 0 to (1 lsl n) - 1 do
      let ins =
        List.init n (fun i -> (Printf.sprintf "a%d" i, (a lsr i) land 1 = 1))
        @ List.init n (fun i -> (Printf.sprintf "b%d" i, (b lsr i) land 1 = 1))
      in
      let outs = eval_bits t ins in
      Alcotest.(check bool) (Printf.sprintf "%d<%d" a b) (a < b) (List.assoc "lt" outs);
      Alcotest.(check bool) (Printf.sprintf "%d=%d" a b) (a = b) (List.assoc "eq" outs);
      Alcotest.(check bool) (Printf.sprintf "%d>%d" a b) (a > b) (List.assoc "gt" outs)
    done
  done

let test_alu () =
  let n = 3 in
  let t = Gen.Circuits.alu n in
  let mask = (1 lsl n) - 1 in
  for a = 0 to mask do
    for b = 0 to mask do
      List.iter
        (fun (op0, op1, f, nm) ->
          let ins =
            List.init n (fun i -> (Printf.sprintf "a%d" i, (a lsr i) land 1 = 1))
            @ List.init n (fun i -> (Printf.sprintf "b%d" i, (b lsr i) land 1 = 1))
            @ [ ("op0", op0); ("op1", op1) ]
          in
          let outs = eval_bits t ins in
          let got = int_of_outs outs (List.init n (fun i -> Printf.sprintf "f%d" i)) in
          Alcotest.(check int) (Printf.sprintf "%s %d %d" nm a b) (f a b land mask) got)
        [
          (false, false, ( + ), "add");
          (true, false, ( land ), "and");
          (false, true, ( lor ), "or");
          (true, true, ( lxor ), "xor");
        ]
    done
  done

let test_parity () =
  let n = 5 in
  let t = Gen.Circuits.parity_tree n in
  for code = 0 to (1 lsl n) - 1 do
    let ins = List.init n (fun i -> (Printf.sprintf "x%d" i, (code lsr i) land 1 = 1)) in
    let expected = List.fold_left (fun acc (_, b) -> acc <> b) false ins in
    Alcotest.(check bool) (Printf.sprintf "parity %d" code) expected
      (List.assoc "par" (eval_bits t ins))
  done

let test_mux_tree () =
  let d = 3 in
  let t = Gen.Circuits.mux_tree d in
  for sel = 0 to (1 lsl d) - 1 do
    let data_val = 0b10110101 in
    let ins =
      List.init d (fun i -> (Printf.sprintf "s%d" i, (sel lsr i) land 1 = 1))
      @ List.init (1 lsl d) (fun i -> (Printf.sprintf "d%d" i, (data_val lsr i) land 1 = 1))
    in
    Alcotest.(check bool)
      (Printf.sprintf "select %d" sel)
      ((data_val lsr sel) land 1 = 1)
      (List.assoc "y" (eval_bits t ins))
  done

let test_decoder () =
  let n = 3 in
  let t = Gen.Circuits.decoder n in
  for code = 0 to (1 lsl n) - 1 do
    let ins = List.init n (fun i -> (Printf.sprintf "x%d" i, (code lsr i) land 1 = 1)) in
    let outs = eval_bits t ins in
    List.iteri
      (fun j (_, v) -> Alcotest.(check bool) (Printf.sprintf "y%d@%d" j code) (j = code) v)
      outs
  done

let test_majority () =
  let n = 5 in
  let t = Gen.Circuits.majority n in
  for code = 0 to (1 lsl n) - 1 do
    let ins = List.init n (fun i -> (Printf.sprintf "x%d" i, (code lsr i) land 1 = 1)) in
    let ones = List.length (List.filter snd ins) in
    Alcotest.(check bool)
      (Printf.sprintf "majority %d" code)
      (ones > n / 2)
      (List.assoc "maj" (eval_bits t ins))
  done

let test_random_dag_wellformed () =
  List.iter
    (fun seed ->
      let t = Gen.Circuits.random_dag ~seed ~inputs:7 ~gates:50 ~outputs:5 () in
      Alcotest.(check int) "inputs" 7 (List.length (Netlist.inputs t));
      Alcotest.(check int) "outputs" 5 (List.length (Netlist.outputs t));
      (* Deterministic per seed. *)
      let t' = Gen.Circuits.random_dag ~seed ~inputs:7 ~gates:50 ~outputs:5 () in
      let ins = List.map (fun nm -> (nm, true)) (Netlist.inputs t) in
      Alcotest.(check bool) "deterministic" true (Netlist.eval t ins = Netlist.eval t' ins))
    [ 1; 2; 3 ]

let test_restructure_preserves_function () =
  let t = Gen.Circuits.ripple_adder 4 in
  let r = Gen.Mutate.restructure t in
  Alcotest.(check (list string)) "inputs" (Netlist.inputs t) (Netlist.inputs r);
  Alcotest.(check (list string)) "outputs" (Netlist.outputs t) (Netlist.outputs r);
  let rand = Random.State.make [| 5 |] in
  for _ = 1 to 50 do
    let ins = List.map (fun nm -> (nm, Random.State.bool rand)) (Netlist.inputs t) in
    Alcotest.(check bool) "same function" true (Netlist.eval t ins = Netlist.eval r ins)
  done

let test_derive_spec_changes_function () =
  List.iter
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let impl = Gen.Circuits.random_dag ~seed ~inputs:6 ~gates:40 ~outputs:4 () in
      let targets = Gen.Mutate.pick_targets ~rand impl 2 in
      let spec = Gen.Mutate.derive_spec ~rand ~style:(Gen.Mutate.New_cone 4) impl ~targets in
      (* Interfaces match. *)
      Alcotest.(check (list string)) "inputs" (Netlist.inputs impl) (Netlist.inputs spec);
      Alcotest.(check (list string)) "outputs" (Netlist.outputs impl) (Netlist.outputs spec))
    [ 21; 22; 23 ]

let test_pick_targets_properties () =
  let impl = Gen.Circuits.ripple_adder 6 in
  let rand = Random.State.make [| 9 |] in
  let targets = Gen.Mutate.pick_targets ~rand impl 4 in
  Alcotest.(check int) "count" 4 (List.length targets);
  Alcotest.(check int) "distinct" 4 (List.length (List.sort_uniq compare targets));
  List.iter
    (fun t ->
      let node = Netlist.node impl t in
      Alcotest.(check bool) "not an input" true (node.Netlist.gate <> Netlist.Input);
      Alcotest.(check bool) "reaches an output" true
        (Netlist.outputs_reached_by impl [ t ] <> []))
    targets

let test_pick_targets_clamp () =
  (* Two eligible gates only: asking for more must clamp to the full
     eligible set (recording the shortfall in gen.targets_clamped), not
     spin forever or raise. *)
  let impl =
    Netlist.create
      [
        { Netlist.name = "a"; gate = Netlist.Input; fanins = [||] };
        { Netlist.name = "b"; gate = Netlist.Input; fanins = [||] };
        { Netlist.name = "g"; gate = Netlist.And; fanins = [| "a"; "b" |] };
        { Netlist.name = "y"; gate = Netlist.Not; fanins = [| "g" |] };
      ]
      ~outputs:[ "y" ]
  in
  let clamped () =
    match List.assoc_opt "gen.targets_clamped" (Telemetry.snapshot ()) with
    | Some v -> v
    | None -> 0
  in
  let before = clamped () in
  let rand = Random.State.make [| 7 |] in
  let targets = Gen.Mutate.pick_targets ~rand impl 5 in
  Alcotest.(check (list string)) "clamped to the eligible set" [ "g"; "y" ] targets;
  Alcotest.(check int) "shortfall recorded" (before + 3) (clamped ());
  (* Exact requests stay exact and leave the counter alone. *)
  let exact = Gen.Mutate.pick_targets ~rand:(Random.State.make [| 7 |]) impl 2 in
  Alcotest.(check int) "exact request" 2 (List.length exact);
  Alcotest.(check int) "no extra bump" (before + 3) (clamped ());
  (* No eligible signal at all is still an error. *)
  Alcotest.check_raises "no eligible signals"
    (Failure "Mutate.pick_targets: no eligible target signals") (fun () ->
      let inputs_only =
        Netlist.create
          [
            { Netlist.name = "a"; gate = Netlist.Input; fanins = [||] };
            { Netlist.name = "g"; gate = Netlist.And; fanins = [| "a"; "a" |] };
          ]
          ~outputs:[ "a" ]
      in
      ignore (Gen.Mutate.pick_targets ~rand:(Random.State.make [| 7 |]) inputs_only 1))

(* Target picking asks whether a node reaches an output by membership in
   the outputs' TFI.  The oracle is the check it replaced, one
   transitive-fanout walk per node.  Each walk rebuilds the fanout map, so
   on circuits of more than 1,000 nodes (unit20 alone) one node in eight
   is checked. *)
let test_reaches_output_matches_tfo () =
  List.iter
    (fun spec ->
      let t = Gen.Suite.base_circuit spec in
      let table = Netlist.tfi t (Netlist.outputs t) in
      let stride = if Netlist.num_nodes t > 1_000 then 8 else 1 in
      List.iteri
        (fun i name ->
          if i mod stride = 0 then begin
            let expected = Netlist.outputs_reached_by t [ name ] <> [] in
            if Hashtbl.mem table name <> expected then
              Alcotest.failf "%s: %s reaches an output: table %b, tfo %b" spec.Gen.Suite.u_name
                name (not expected) expected
          end)
        (Netlist.topological_order t))
    Gen.Suite.all

(* The planted targets of every suite unit.  Every committed reference row
   (BENCH_table1.json, BENCH_discovery.json, perfbench's service
   reference) was solved for these targets, so a drift in the generator
   fails here first. *)
let planted_targets =
  [
    ("unit1", [ "o0" ]);
    ("unit2", [ "n1" ]);
    ("unit3", [ "n388" ]);
    ("unit4", [ "n69" ]);
    ("unit5", [ "n524"; "n569" ]);
    ("unit6", [ "n484"; "n522" ]);
    ("unit7", [ "n230" ]);
    ("unit8", [ "s1" ]);
    ("unit9", [ "n38"; "n163"; "n178"; "o21" ]);
    ("unit10", [ "n24"; "n29" ]);
    ("unit11", [ "y3"; "n57"; "y51"; "n60"; "y56"; "y59"; "y60"; "y63" ]);
    ("unit12", [ "n36" ]);
    ("unit13", [ "o0" ]);
    ( "unit14",
      [ "n54"; "n84"; "n115"; "n161"; "n332"; "n339"; "n342"; "n350"; "n389"; "n391"; "o3";
        "o8" ] );
    ("unit15", [ "n184" ]);
    ("unit16", [ "n212"; "n313" ]);
    ("unit17", [ "n188"; "n578"; "n583"; "n592"; "n630"; "o8"; "o9"; "o15" ]);
    ("unit18", [ "n273" ]);
    ("unit19", [ "n110"; "n146"; "n388"; "n419" ]);
    ("unit20", [ "n354"; "n1976"; "n2022"; "o137" ]);
  ]

let test_suite_planted_targets () =
  List.iter
    (fun (name, expected) ->
      Alcotest.(check (list string))
        (name ^ " targets")
        expected
        (Gen.Suite.instantiate (Gen.Suite.find name)).Eco.Instance.targets)
    planted_targets;
  Alcotest.(check int) "every unit pinned" (List.length Gen.Suite.all) (List.length planted_targets)

let test_suite_well_formed () =
  Alcotest.(check int) "twenty units" 20 (List.length Gen.Suite.all);
  List.iteri
    (fun i spec ->
      Alcotest.(check int) "ids in order" (i + 1) spec.Gen.Suite.id;
      Alcotest.(check string) "names match" (Printf.sprintf "unit%d" (i + 1)) spec.Gen.Suite.u_name)
    Gen.Suite.all;
  (* All 8 weight distributions appear. *)
  let dists = List.sort_uniq compare (List.map (fun s -> s.Gen.Suite.dist) Gen.Suite.all) in
  Alcotest.(check int) "all distributions used" 8 (List.length dists)

let test_suite_instances_valid () =
  (* Instantiate a representative subset (fast ones) and validate. *)
  List.iter
    (fun name ->
      let spec = Gen.Suite.find name in
      let inst = Gen.Suite.instantiate spec in
      Alcotest.(check int) "target count" spec.Gen.Suite.n_targets
        (List.length inst.Eco.Instance.targets);
      (* Deterministic. *)
      let inst' = Gen.Suite.instantiate spec in
      Alcotest.(check (list string)) "deterministic targets" inst.Eco.Instance.targets
        inst'.Eco.Instance.targets)
    [ "unit1"; "unit2"; "unit4"; "unit8"; "unit12" ]

let () =
  Alcotest.run "gen"
    [
      ( "circuits",
        [
          Alcotest.test_case "ripple adder" `Quick test_ripple_adder;
          Alcotest.test_case "carry-select adder" `Quick test_carry_select_adder;
          Alcotest.test_case "multiplier" `Quick test_multiplier;
          Alcotest.test_case "comparator" `Quick test_comparator;
          Alcotest.test_case "alu" `Quick test_alu;
          Alcotest.test_case "parity" `Quick test_parity;
          Alcotest.test_case "mux tree" `Quick test_mux_tree;
          Alcotest.test_case "decoder" `Quick test_decoder;
          Alcotest.test_case "majority" `Quick test_majority;
          Alcotest.test_case "random dag" `Quick test_random_dag_wellformed;
        ] );
      ( "mutate",
        [
          Alcotest.test_case "restructure preserves function" `Quick
            test_restructure_preserves_function;
          Alcotest.test_case "derive_spec interface" `Quick test_derive_spec_changes_function;
          Alcotest.test_case "pick_targets" `Quick test_pick_targets_properties;
          Alcotest.test_case "pick_targets clamp" `Quick test_pick_targets_clamp;
          Alcotest.test_case "outputs' TFI matches per-node TFO" `Quick
            test_reaches_output_matches_tfo;
        ] );
      ( "suite",
        [
          Alcotest.test_case "well formed" `Quick test_suite_well_formed;
          Alcotest.test_case "instances valid" `Quick test_suite_instances_valid;
          Alcotest.test_case "planted targets" `Quick test_suite_planted_targets;
        ] );
    ]
