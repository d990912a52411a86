(* Netlist frontend: construction/validation, graph analyses, evaluation,
   Verilog round trips, weights, AIG conversion. *)

let n name gate fanins = { Netlist.name; gate; fanins = Array.of_list fanins }

let small_netlist () =
  Netlist.create
    [
      n "a" Netlist.Input [];
      n "b" Netlist.Input [];
      n "c" Netlist.Input [];
      n "w1" Netlist.And [ "a"; "b" ];
      n "w2" Netlist.Not [ "c" ];
      n "y" Netlist.Or [ "w1"; "w2" ];
    ]
    ~outputs:[ "y" ]

let test_create_and_query () =
  let t = small_netlist () in
  Alcotest.(check (list string)) "inputs" [ "a"; "b"; "c" ] (Netlist.inputs t);
  Alcotest.(check (list string)) "outputs" [ "y" ] (Netlist.outputs t);
  Alcotest.(check int) "gates" 3 (Netlist.num_gates t);
  Alcotest.(check int) "nodes" 6 (Netlist.num_nodes t);
  Alcotest.(check bool) "mem" true (Netlist.mem t "w1");
  Alcotest.(check bool) "not mem" false (Netlist.mem t "zz")

let test_validation_errors () =
  let fails f = try f (); false with Failure _ -> true in
  Alcotest.(check bool) "dangling fanin" true
    (fails (fun () -> ignore (Netlist.create [ n "g" Netlist.Not [ "missing" ] ] ~outputs:[])));
  Alcotest.(check bool) "duplicate names" true
    (fails (fun () ->
         ignore (Netlist.create [ n "a" Netlist.Input []; n "a" Netlist.Input [] ] ~outputs:[])));
  Alcotest.(check bool) "bad arity" true
    (fails (fun () ->
         ignore
           (Netlist.create
              [ n "a" Netlist.Input []; n "g" Netlist.Not [ "a"; "a" ] ]
              ~outputs:[ "g" ])));
  Alcotest.(check bool) "cycle" true
    (fails (fun () ->
         ignore
           (Netlist.create
              [ n "p" Netlist.And [ "q"; "q" ]; n "q" Netlist.And [ "p"; "p" ] ]
              ~outputs:[ "p" ])));
  Alcotest.(check bool) "unknown output" true
    (fails (fun () -> ignore (Netlist.create [ n "a" Netlist.Input [] ] ~outputs:[ "nope" ])))

let test_topological_order () =
  let t = small_netlist () in
  let order = Netlist.topological_order t in
  let pos name =
    let rec go i = function
      | [] -> raise Not_found
      | x :: _ when x = name -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 order
  in
  Alcotest.(check bool) "a before w1" true (pos "a" < pos "w1");
  Alcotest.(check bool) "w1 before y" true (pos "w1" < pos "y");
  Alcotest.(check bool) "w2 before y" true (pos "w2" < pos "y")

let test_eval () =
  let t = small_netlist () in
  let run a b c = List.assoc "y" (Netlist.eval t [ ("a", a); ("b", b); ("c", c) ]) in
  Alcotest.(check bool) "11_ -> 1" true (run true true true);
  Alcotest.(check bool) "000 -> 1" true (run false false false);
  Alcotest.(check bool) "101 -> 0" false (run true false true)

let test_tfo_tfi () =
  let t = small_netlist () in
  let tfo = Netlist.tfo t [ "w1" ] in
  Alcotest.(check bool) "w1 in own tfo" true (Hashtbl.mem tfo "w1");
  Alcotest.(check bool) "y in tfo" true (Hashtbl.mem tfo "y");
  Alcotest.(check bool) "w2 not in tfo" false (Hashtbl.mem tfo "w2");
  let tfi = Netlist.tfi t [ "w1" ] in
  Alcotest.(check bool) "a in tfi" true (Hashtbl.mem tfi "a");
  Alcotest.(check bool) "c not in tfi" false (Hashtbl.mem tfi "c");
  Alcotest.(check (list string)) "support" [ "a"; "b" ] (Netlist.support_of t [ "w1" ]);
  Alcotest.(check (list string)) "outputs reached" [ "y" ] (Netlist.outputs_reached_by t [ "w2" ])

let test_levels () =
  let t = small_netlist () in
  let lvl = Netlist.level_from_inputs t in
  Alcotest.(check int) "input level" 0 (Hashtbl.find lvl "a");
  Alcotest.(check int) "w1 level" 1 (Hashtbl.find lvl "w1");
  Alcotest.(check int) "y level" 2 (Hashtbl.find lvl "y");
  let to_po = Netlist.level_to_outputs t in
  Alcotest.(check int) "y to po" 0 (Hashtbl.find to_po "y");
  Alcotest.(check int) "a to po" 2 (Hashtbl.find to_po "a")

let test_verilog_roundtrip () =
  let t = small_netlist () in
  let text = Netlist.Verilog.to_string ~name:"small" t in
  let t' = Netlist.Verilog.of_string text in
  Alcotest.(check (list string)) "inputs survive" (Netlist.inputs t) (Netlist.inputs t');
  Alcotest.(check (list string)) "outputs survive" (Netlist.outputs t) (Netlist.outputs t');
  (* Same function on all 8 patterns. *)
  List.iter
    (fun code ->
      let bits = [ ("a", code land 1 = 1); ("b", code land 2 = 2); ("c", code land 4 = 4) ] in
      Alcotest.(check bool)
        (Printf.sprintf "pattern %d" code)
        (List.assoc "y" (Netlist.eval t bits))
        (List.assoc "y" (Netlist.eval t' bits)))
    (List.init 8 Fun.id)

let test_verilog_parse_forms () =
  let src =
    "// comment\nmodule m (a, y);\n  input a;\n  output y;\n  wire w; /* block */\n  not g1 (w, a);\n  not (y, w);\nendmodule\n"
  in
  let t = Netlist.Verilog.of_string src in
  Alcotest.(check bool) "double negation" true
    (List.assoc "y" (Netlist.eval t [ ("a", true) ]));
  let bad = "module m (a); input a; assign b = a; endmodule" in
  Alcotest.check_raises "unsupported construct" (Failure "Verilog: unsupported construct assign")
    (fun () -> ignore (Netlist.Verilog.of_string bad))

(* The printer as it was when each node's I/O test was a [List.mem] over
   the input and output lists: the oracle for the byte-identity checks. *)
let reference_verilog ?(name = "top") t =
  let keyword = function
    | Netlist.And -> "and"
    | Netlist.Or -> "or"
    | Netlist.Nand -> "nand"
    | Netlist.Nor -> "nor"
    | Netlist.Xor -> "xor"
    | Netlist.Xnor -> "xnor"
    | Netlist.Not -> "not"
    | Netlist.Buf -> "buf"
    | Netlist.Input | Netlist.Const0 | Netlist.Const1 | Netlist.Mux -> assert false
  in
  let buf = Buffer.create 4096 in
  let ins = Netlist.inputs t and outs = Netlist.outputs t in
  Buffer.add_string buf (Printf.sprintf "module %s (%s);\n" name (String.concat ", " (ins @ outs)));
  if ins <> [] then Buffer.add_string buf (Printf.sprintf "  input %s;\n" (String.concat ", " ins));
  if outs <> [] then
    Buffer.add_string buf (Printf.sprintf "  output %s;\n" (String.concat ", " outs));
  let is_io n = List.mem n ins || List.mem n outs in
  let wires = List.filter (fun n -> not (is_io n)) (Netlist.topological_order t) in
  if wires <> [] then
    Buffer.add_string buf (Printf.sprintf "  wire %s;\n" (String.concat ", " wires));
  let gate_idx = ref 0 in
  List.iter
    (fun nm ->
      let n = Netlist.node t nm in
      incr gate_idx;
      match n.Netlist.gate with
      | Netlist.Input -> ()
      | Netlist.Const0 ->
        Buffer.add_string buf (Printf.sprintf "  buf g%d (%s, 1'b0);\n" !gate_idx nm)
      | Netlist.Const1 ->
        Buffer.add_string buf (Printf.sprintf "  buf g%d (%s, 1'b1);\n" !gate_idx nm)
      | Netlist.Mux ->
        let s = n.Netlist.fanins.(0) and a = n.Netlist.fanins.(1) and b = n.Netlist.fanins.(2) in
        Buffer.add_string buf (Printf.sprintf "  wire %s_sn, %s_t0, %s_t1;\n" nm nm nm);
        Buffer.add_string buf (Printf.sprintf "  not g%d_n (%s_sn, %s);\n" !gate_idx nm s);
        Buffer.add_string buf (Printf.sprintf "  and g%d_a (%s_t1, %s, %s);\n" !gate_idx nm s a);
        Buffer.add_string buf
          (Printf.sprintf "  and g%d_b (%s_t0, %s_sn, %s);\n" !gate_idx nm nm b);
        Buffer.add_string buf (Printf.sprintf "  or g%d (%s, %s_t1, %s_t0);\n" !gate_idx nm nm nm)
      | g ->
        Buffer.add_string buf
          (Printf.sprintf "  %s g%d (%s, %s);\n" (keyword g) !gate_idx nm
             (String.concat ", " (Array.to_list n.Netlist.fanins))))
    (Netlist.topological_order t);
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf

(* Outputs read by other gates, an input that is also an output, a
   constant and a mux: every branch of the printer, and a "wire" line that
   must leave out every port. *)
let test_verilog_ports_not_wires () =
  let t =
    Netlist.create
      [
        n "a" Netlist.Input [];
        n "b" Netlist.Input [];
        n "s" Netlist.Input [];
        n "k" Netlist.Const1 [];
        n "z" Netlist.Const0 [];
        n "g" Netlist.And [ "a"; "b" ];
        n "h" Netlist.Not [ "g" ];
        n "m" Netlist.Mux [ "s"; "g"; "k" ];
        n "w" Netlist.Nor [ "m"; "z"; "h" ];
        n "y" Netlist.Xnor [ "w"; "a" ];
      ]
      ~outputs:[ "g"; "h"; "y"; "a" ]
  in
  let text = Netlist.Verilog.to_string ~name:"ports" t in
  Alcotest.(check string) "same text as the reference printer"
    (reference_verilog ~name:"ports" t) text;
  let wire_line =
    List.find (String.starts_with ~prefix:"  wire ") (String.split_on_char '\n' text)
  in
  let wires =
    String.sub wire_line 7 (String.length wire_line - 8)
    |> String.split_on_char ',' |> List.map String.trim |> List.sort compare
  in
  Alcotest.(check (list string)) "only internal signals are wires" [ "k"; "m"; "w"; "z" ] wires

let test_verilog_suite_identical () =
  List.iter
    (fun spec ->
      let inst = Gen.Suite.instantiate spec in
      List.iter
        (fun (side, nl) ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s" spec.Gen.Suite.u_name side)
            (reference_verilog ~name:side nl) (Netlist.Verilog.to_string ~name:side nl))
        [ ("impl", inst.Eco.Instance.impl); ("spec", inst.Eco.Instance.spec) ])
    Gen.Suite.all

let test_weights () =
  let w = Netlist.Weights.of_string "a 5\nw1 20\n# comment\n" in
  Alcotest.(check int) "present" 5 (Netlist.Weights.cost w "a");
  Alcotest.(check int) "default" 1 (Netlist.Weights.cost w "zz");
  Alcotest.(check int) "total" 26 (Netlist.Weights.total w [ "a"; "w1"; "zz" ]);
  let w' = Netlist.Weights.of_string (Netlist.Weights.to_string w) in
  Alcotest.(check int) "roundtrip" 20 (Netlist.Weights.cost w' "w1")

let test_weight_distributions () =
  let t = Gen.Circuits.ripple_adder 8 in
  let rand = Random.State.make [| 3 |] in
  List.iter
    (fun dist ->
      let w = Netlist.Weights.generate ~rand dist t in
      (* Every node is priced positively. *)
      List.iter
        (fun name ->
          let c = Netlist.Weights.cost w name in
          if c <= 0 then
            Alcotest.failf "%s: non-positive weight for %s"
              (Netlist.Weights.distribution_name dist)
              name)
        (Netlist.topological_order t))
    Netlist.Weights.all_distributions

let test_to_aig_matches_eval () =
  let t = small_netlist () in
  let conv = Netlist.Convert.to_aig t in
  let y = Hashtbl.find conv.Netlist.Convert.lit_of_name "y" in
  List.iter
    (fun code ->
      let a = code land 1 = 1 and b = code land 2 = 2 and c = code land 4 = 4 in
      let expected = List.assoc "y" (Netlist.eval t [ ("a", a); ("b", b); ("c", c) ]) in
      Alcotest.(check bool)
        (Printf.sprintf "pattern %d" code)
        expected
        (Aig.eval conv.Netlist.Convert.mgr [| a; b; c |] y))
    (List.init 8 Fun.id)

let test_to_aig_cut () =
  let t = small_netlist () in
  let conv = Netlist.Convert.to_aig ~cut:[ "w1" ] t in
  (match conv.Netlist.Convert.target_inputs with
  | [ ("w1", l) ] ->
    Alcotest.(check bool) "cut is an input" true
      (Aig.is_input conv.Netlist.Convert.mgr (Aig.node_of l));
    (* y = n | !c where n is the free input (index 3). *)
    let y = Hashtbl.find conv.Netlist.Convert.lit_of_name "y" in
    Alcotest.(check bool) "y(n=1)" true
      (Aig.eval conv.Netlist.Convert.mgr [| false; false; true; true |] y);
    Alcotest.(check bool) "y(n=0,c=1)" false
      (Aig.eval conv.Netlist.Convert.mgr [| false; false; true; false |] y)
  | _ -> Alcotest.fail "expected one target input")

let of_aig_roundtrip =
  Test_util.qcheck ~count:100 "netlist -> AIG -> netlist preserves functions"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let t = Gen.Circuits.random_dag ~seed ~inputs:5 ~gates:25 ~outputs:3 () in
      let conv = Netlist.Convert.to_aig t in
      let back = Netlist.Convert.of_aig conv.Netlist.Convert.mgr ~prefix:"q$" in
      let ins = Netlist.inputs t in
      List.for_all
        (fun code ->
          let bits = List.mapi (fun i name -> (name, (code lsr i) land 1 = 1)) ins in
          let bits' = List.mapi (fun i (_, v) -> (Printf.sprintf "q$pi%d" i, v)) bits in
          let outs = Netlist.eval t bits in
          let outs' = Netlist.eval back bits' in
          List.for_all2 (fun (_, v) (_, v') -> v = v') outs outs')
        (List.init 32 Fun.id))

let test_rename () =
  let t = small_netlist () in
  let t' = Netlist.rename t ~prefix:"x_" in
  Alcotest.(check (list string)) "inputs unchanged" (Netlist.inputs t) (Netlist.inputs t');
  Alcotest.(check bool) "internal renamed" true (Netlist.mem t' "x_w1");
  Alcotest.(check bool) "output name kept" true (Netlist.mem t' "y")

let () =
  Alcotest.run "netlist"
    [
      ( "unit",
        [
          Alcotest.test_case "create and query" `Quick test_create_and_query;
          Alcotest.test_case "validation errors" `Quick test_validation_errors;
          Alcotest.test_case "topological order" `Quick test_topological_order;
          Alcotest.test_case "eval" `Quick test_eval;
          Alcotest.test_case "tfo/tfi/support" `Quick test_tfo_tfi;
          Alcotest.test_case "levels" `Quick test_levels;
          Alcotest.test_case "verilog roundtrip" `Quick test_verilog_roundtrip;
          Alcotest.test_case "verilog forms" `Quick test_verilog_parse_forms;
          Alcotest.test_case "verilog ports are not wires" `Quick test_verilog_ports_not_wires;
          Alcotest.test_case "verilog: suite units print as before" `Quick
            test_verilog_suite_identical;
          Alcotest.test_case "weights" `Quick test_weights;
          Alcotest.test_case "weight distributions" `Quick test_weight_distributions;
          Alcotest.test_case "to_aig matches eval" `Quick test_to_aig_matches_eval;
          Alcotest.test_case "to_aig with cut" `Quick test_to_aig_cut;
          Alcotest.test_case "rename" `Quick test_rename;
        ] );
      ("property", [ of_aig_roundtrip ]);
    ]
