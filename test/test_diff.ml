(* Target discovery (lib/diff): anchoring, the MCS search, and the
   discovery-quality regression on blind suite units — plus the window
   PI-order determinism the discovery path relies on. *)

let node name gate fanins = { Netlist.name; gate; fanins }

let netlist nodes ~outputs = Netlist.create nodes ~outputs

let two_gate_pair () =
  (* impl: y = a AND b, z = a XOR b;  spec flips only y to OR. *)
  let impl =
    netlist
      [
        node "a" Netlist.Input [||];
        node "b" Netlist.Input [||];
        node "y" Netlist.And [| "a"; "b" |];
        node "z" Netlist.Xor [| "a"; "b" |];
      ]
      ~outputs:[ "y"; "z" ]
  in
  let spec =
    netlist
      [
        node "a" Netlist.Input [||];
        node "b" Netlist.Input [||];
        node "y" Netlist.Or [| "a"; "b" |];
        node "z" Netlist.Xor [| "a"; "b" |];
      ]
      ~outputs:[ "y"; "z" ]
  in
  (impl, spec)

let test_single_gate_change () =
  let impl, spec = two_gate_pair () in
  let weights = Netlist.Weights.uniform impl 1 in
  let r = Diff.Discover.run ~impl ~spec ~weights () in
  Alcotest.(check (list string)) "anchors the untouched output" [ "z" ] r.Diff.Discover.anchored;
  Alcotest.(check (list string)) "mismatches the changed output" [ "y" ] r.Diff.Discover.mismatched;
  Alcotest.(check (list string)) "cuts exactly the changed gate" [ "y" ] r.Diff.Discover.targets;
  Alcotest.(check bool) "minimum" true r.Diff.Discover.minimum

let test_already_equivalent () =
  let impl, _ = two_gate_pair () in
  let weights = Netlist.Weights.uniform impl 1 in
  let r = Diff.Discover.run ~impl ~spec:impl ~weights () in
  Alcotest.(check (list string)) "no targets needed" [] r.Diff.Discover.targets;
  Alcotest.(check int) "all outputs anchored" 2 (List.length r.Diff.Discover.anchored)

let test_deep_cut () =
  (* impl: y = (a AND b) OR c through g;  spec changes the inner AND to
     XOR — the minimum cut is the inner gate or anything above it, all of
     weight 1, so discovery must return a singleton. *)
  let impl =
    netlist
      [
        node "a" Netlist.Input [||];
        node "b" Netlist.Input [||];
        node "c" Netlist.Input [||];
        node "g" Netlist.And [| "a"; "b" |];
        node "y" Netlist.Or [| "g"; "c" |];
      ]
      ~outputs:[ "y" ]
  in
  let spec =
    netlist
      [
        node "a" Netlist.Input [||];
        node "b" Netlist.Input [||];
        node "c" Netlist.Input [||];
        node "g" Netlist.Xor [| "a"; "b" |];
        node "y" Netlist.Or [| "g"; "c" |];
      ]
      ~outputs:[ "y" ]
  in
  let weights = Netlist.Weights.uniform impl 1 in
  let r = Diff.Discover.run ~impl ~spec ~weights () in
  Alcotest.(check int) "singleton cut" 1 (List.length r.Diff.Discover.targets);
  Alcotest.(check bool) "minimum" true r.Diff.Discover.minimum

let test_weighted_cut () =
  (* Same rewrite reachable through two cuts; the cheap one must win.
     impl: g = a AND b (weight 9), y = NOT g (weight 1); spec negates the
     cone — both {g} and {y} rectify, so the minimum-weight answer is
     {y}. *)
  let impl =
    netlist
      [
        node "a" Netlist.Input [||];
        node "b" Netlist.Input [||];
        node "g" Netlist.And [| "a"; "b" |];
        node "y" Netlist.Not [| "g" |];
      ]
      ~outputs:[ "y" ]
  in
  let spec =
    netlist
      [
        node "a" Netlist.Input [||];
        node "b" Netlist.Input [||];
        node "g" Netlist.And [| "a"; "b" |];
        node "y" Netlist.Buf [| "g" |];
      ]
      ~outputs:[ "y" ]
  in
  let weights = Netlist.Weights.of_string "g 9\ny 1\n" in
  let r = Diff.Discover.run ~impl ~spec ~weights () in
  Alcotest.(check (list string)) "cheapest cut wins" [ "y" ] r.Diff.Discover.targets;
  Alcotest.(check int) "cost" 1 r.Diff.Discover.cost

(* {2 The rectifiability oracle against explicit expansion} *)

(* One netlist pair in one manager, as discovery converts it. *)
type converted = {
  impl : Netlist.t;
  spec : Netlist.t;
  mgr : Aig.t;
  impl_lit : string -> Aig.lit;
  spec_lit : string -> Aig.lit;
  mismatched : string list;
}

let convert ~impl ~spec =
  let conv_impl = Netlist.Convert.to_aig impl in
  let mgr = conv_impl.Netlist.Convert.mgr in
  let conv_spec =
    Netlist.Convert.to_aig ~mgr ~pi_map:conv_impl.Netlist.Convert.lit_of_name spec
  in
  let impl_lit = Hashtbl.find conv_impl.Netlist.Convert.lit_of_name in
  let spec_lit = Hashtbl.find conv_spec.Netlist.Convert.lit_of_name in
  let mismatched =
    List.filter
      (fun o -> Cec.check_lit mgr (Aig.xor_ mgr (impl_lit o) (spec_lit o)) <> Cec.Equivalent)
      (Netlist.outputs impl)
  in
  { impl; spec; mgr; impl_lit; spec_lit; mismatched }

(* The reference: cut [freed] open in a fresh conversion, quantify every
   freed signal out of the miter over [outputs] explicitly, and ask one
   CEC query. *)
let expanded_verdict c freed outputs =
  let conv_impl = Netlist.Convert.to_aig ~cut:freed c.impl in
  let mgr = conv_impl.Netlist.Convert.mgr in
  let conv_spec =
    Netlist.Convert.to_aig ~mgr ~pi_map:conv_impl.Netlist.Convert.lit_of_name c.spec
  in
  let lit conv o = Hashtbl.find conv.Netlist.Convert.lit_of_name o in
  let phi =
    Aig.or_list mgr (List.map (fun o -> Aig.xor_ mgr (lit conv_impl o) (lit conv_spec o)) outputs)
  in
  let quantified =
    List.fold_left
      (fun acc (_, v) -> Aig.forall mgr ~var:v acc)
      phi conv_impl.Netlist.Convert.target_inputs
  in
  match Cec.check_lit mgr quantified with
  | Cec.Equivalent -> `Yes
  | Cec.Counterexample _ -> `No
  | Cec.Undecided -> `Unknown

let verdict_name = function `Yes -> "yes" | `No -> "no" | `Unknown -> "unknown"

(* Random pairs from lib/gen, proposals of 1-10 freed signals (both sides
   of the old eight-signal switch between explicit expansion and 2QBF).
   One oracle answers every proposal of a pair, so the copies and
   recalled verdicts it carries between proposals are under test too. *)
let test_oracle_vs_expansion () =
  let compared = ref 0 and sufficient = ref 0 in
  (* [`No] verdicts by where they came from. *)
  let pooled = ref 0 and solved = ref 0 in
  for seed = 1 to 12 do
    let base = Gen.Circuits.random_dag ~seed ~inputs:6 ~gates:26 ~outputs:4 () in
    let rand = Random.State.make [| seed |] in
    let targets = Gen.Mutate.pick_targets ~rand base 2 in
    let spec = Gen.Mutate.derive_spec ~rand ~restructure:(seed mod 2 = 0) base ~targets in
    let c = convert ~impl:base ~spec in
    if c.mismatched <> [] then begin
      let candidates =
        List.filter
          (fun name ->
            match (Netlist.node base name).Netlist.gate with
            | Netlist.Input | Netlist.Const0 | Netlist.Const1 -> false
            | _ -> true)
          (Netlist.topological_order base)
        |> Array.of_list
      in
      let n = Array.length candidates in
      let oracle =
        Diff.Rectify.create c.mgr ~impl:base ~impl_lit:c.impl_lit ~spec_lit:c.spec_lit
          ~mismatched:c.mismatched ~candidates
      in
      for round = 1 to 20 do
        let size = 1 + ((seed + round) mod 10) in
        let freed = Array.make n false in
        while Array.fold_left (fun k b -> if b then k + 1 else k) 0 freed < min size n do
          freed.(Random.State.int rand n) <- true
        done;
        let names = List.filteri (fun i _ -> freed.(i)) (Array.to_list candidates) in
        let agree what ask expected =
          let before = Telemetry.local_snapshot () in
          let got = ask () in
          let moved name =
            List.mem_assoc name (Telemetry.diff before (Telemetry.local_snapshot ()))
          in
          incr compared;
          if got = `Yes then incr sufficient;
          if got = `No then
            if moved "diff.pool_refuted" then incr pooled
            else if not (moved "diff.recalled") then incr solved;
          Alcotest.(check string)
            (Printf.sprintf "seed %d round %d %s [%s]" seed round what (String.concat "," names))
            (verdict_name expected) (verdict_name got)
        in
        List.iter
          (fun o ->
            agree o
              (fun () -> Diff.Rectify.cone oracle ~budget:1_000_000 o freed)
              (expanded_verdict c names [ o ]))
          c.mismatched;
        let reached = Netlist.outputs_reached_by base names in
        let affected =
          c.mismatched @ List.filter (fun o -> not (List.mem o c.mismatched)) reached
        in
        agree "joint"
          (fun () -> Diff.Rectify.joint oracle ~budget:1_000_000 freed)
          (expanded_verdict c names affected)
      done
    end
  done;
  (* Both verdicts must actually occur for the comparison to mean much. *)
  Alcotest.(check bool) "compared many checks" true (!compared > 200);
  Alcotest.(check bool) "some sufficient" true (!sufficient > 0);
  Alcotest.(check bool) "some insufficient" true (!sufficient < !compared);
  (* So must both ways to a [`No]: from the pool of remembered inputs,
     and from the solvers. *)
  Alcotest.(check bool) "some refuted from the pool" true (!pooled > 0);
  Alcotest.(check bool) "some refuted by the solvers" true (!solved > 0)

(* A witness input that a solve found for one proposal refutes another
   on its own.  impl: y = (a AND b) OR (NOT c) OR (NOT d); spec drops
   the AND term, so a = b = c = d = 1 is the only mismatched input, and
   freeing either inverter leaves it mismatched. *)
let test_pool_refutes () =
  let inputs = List.map (fun n -> node n Netlist.Input [||]) [ "a"; "b"; "c"; "d" ] in
  let inverters = [ node "nc" Netlist.Not [| "c" |]; node "nd" Netlist.Not [| "d" |] ] in
  let impl =
    netlist
      (inputs @ inverters
      @ [ node "g" Netlist.And [| "a"; "b" |]; node "y" Netlist.Or [| "g"; "nc"; "nd" |] ])
      ~outputs:[ "y" ]
  in
  let spec =
    netlist (inputs @ inverters @ [ node "y" Netlist.Or [| "nc"; "nd" |] ]) ~outputs:[ "y" ]
  in
  let c = convert ~impl ~spec in
  let candidates = [| "nc"; "nd"; "g"; "y" |] in
  let oracle =
    Diff.Rectify.create c.mgr ~impl ~impl_lit:c.impl_lit ~spec_lit:c.spec_lit
      ~mismatched:c.mismatched ~candidates
  in
  let ask freed =
    let before = Telemetry.local_snapshot () in
    let verdict =
      Diff.Rectify.cone oracle ~budget:1_000_000 "y"
        (Array.map (fun n -> List.mem n freed) candidates)
    in
    let delta = Telemetry.diff before (Telemetry.local_snapshot ()) in
    let counter name = List.assoc_opt name delta |> Option.value ~default:0 in
    (verdict_name verdict, counter "sat.solves", counter "diff.pool_refuted")
  in
  let verdict, solves, pooled = ask [ "nc" ] in
  Alcotest.(check string) "{nc}: no" "no" verdict;
  Alcotest.(check bool) "{nc}: the solvers decide" true (solves > 0);
  Alcotest.(check int) "{nc}: the pool is empty" 0 pooled;
  let verdict, solves, pooled = ask [ "nd" ] in
  Alcotest.(check string) "{nd}: no" "no" verdict;
  Alcotest.(check int) "{nd}: no solve" 0 solves;
  Alcotest.(check int) "{nd}: refuted from the pool" 1 pooled;
  let verdict, _, pooled = ask [ "g" ] in
  Alcotest.(check string) "{g}: yes" "yes" verdict;
  Alcotest.(check int) "{g}: not refuted" 0 pooled

(* The pool's word-level gates agree with [Netlist.eval] on each of 63
   random patterns, for every gate kind; kinds that take any number of
   fanins are tried with two and three. *)
let test_gate_word () =
  let rand = Random.State.make [| 31 |] in
  let word () =
    Random.State.bits rand lor (Random.State.bits rand lsl 30) lor (Random.State.bits rand lsl 60)
  in
  let kinds =
    [ (Netlist.Const0, [ 0 ]); (Netlist.Const1, [ 0 ]); (Netlist.Buf, [ 1 ]); (Netlist.Not, [ 1 ]);
      (Netlist.Mux, [ 3 ]) ]
    @ List.map
        (fun g -> (g, [ 2; 3 ]))
        [ Netlist.And; Netlist.Or; Netlist.Nand; Netlist.Nor; Netlist.Xor; Netlist.Xnor ]
  in
  List.iter
    (fun (gate, arities) ->
      List.iter
        (fun n ->
          let ins = List.init n (Printf.sprintf "i%d") in
          let gnet =
            netlist
              (List.map (fun i -> node i Netlist.Input [||]) ins
              @ [ node "g" gate (Array.of_list ins) ])
              ~outputs:[ "g" ]
          in
          let words = Array.init n (fun _ -> word ()) in
          let expected = ref 0 in
          for bit = 0 to Sys.int_size - 1 do
            let at v = (v lsr bit) land 1 = 1 in
            if List.assoc "g" (Netlist.eval gnet (List.mapi (fun k i -> (i, at words.(k))) ins))
            then expected := !expected lor (1 lsl bit)
          done;
          Alcotest.(check int)
            (Printf.sprintf "%d-input %s" n (Netlist.gate_name gate))
            !expected
            (Diff.Rectify.gate_word gate words))
        arities)
    kinds

(* A conflict cap too small for the checks turns verdicts into
   [`Unknown], and the run must then not claim a minimum. *)
let test_conflict_cap () =
  let blind, _ = Gen.Suite.instantiate_blind (Gen.Suite.find "unit3") in
  let run ?check_budget () =
    Diff.Discover.run ?check_budget ~impl:blind.Eco.Instance.impl ~spec:blind.Eco.Instance.spec
      ~weights:blind.Eco.Instance.weights ()
  in
  Alcotest.(check bool) "minimum at the default cap" true (run ()).Diff.Discover.minimum;
  let before = Telemetry.local_snapshot () in
  let capped = run ~check_budget:1 () in
  let unknown =
    Telemetry.diff before (Telemetry.local_snapshot ())
    |> List.assoc_opt "sat.result.unknown"
    |> Option.value ~default:0
  in
  Alcotest.(check bool) "some solve ran out of conflicts" true (unknown > 0);
  Alcotest.(check bool) "no minimum under a one-conflict cap" false capped.Diff.Discover.minimum;
  Alcotest.(check bool) "still proposes targets" true (capped.Diff.Discover.targets <> [])

let suite_units names = List.map Gen.Suite.find names

(* {2 Discovery-quality regression (fixed seeds, blind instances)} *)

(* The smoke-suite acceptance bar: on every listed unit, discovery from
   the blind instance must produce a rectifiable set — the engine reaches
   Solved with the patch verified — and when the search stayed exact the
   discovered set must cost no more than the planted one. *)
let check_blind_unit (spec : Gen.Suite.unit_spec) =
  let blind, planted = Gen.Suite.instantiate_blind spec in
  Alcotest.(check (list string)) (spec.Gen.Suite.u_name ^ ": blind") [] blind.Eco.Instance.targets;
  let d = Eco.Engine.discover_targets blind in
  Alcotest.(check bool)
    (spec.Gen.Suite.u_name ^ ": discovered a target set")
    true
    (d.Diff.Discover.targets <> []);
  let planted_cost = Netlist.Weights.total blind.Eco.Instance.weights planted in
  if d.Diff.Discover.minimum then
    Alcotest.(check bool)
      (Printf.sprintf "%s: planted-or-cheaper (%d <= %d)" spec.Gen.Suite.u_name
         d.Diff.Discover.cost planted_cost)
      true
      (d.Diff.Discover.cost <= planted_cost);
  let solved = Eco.Instance.with_targets blind d.Diff.Discover.targets in
  let outcome = Eco.Engine.solve solved in
  Alcotest.(check bool)
    (spec.Gen.Suite.u_name ^ ": engine solves the discovered set")
    true
    (outcome.Eco.Engine.status = Eco.Engine.Solved);
  Alcotest.(check (option bool))
    (spec.Gen.Suite.u_name ^ ": patch verified")
    (Some true) outcome.Eco.Engine.verified

let test_blind_suite () =
  List.iter check_blind_unit (suite_units [ "unit1"; "unit3"; "unit8"; "unit12" ])

(* {2 Window determinism} *)

let reorder_nodes netlist_t =
  (* Same netlist, nodes declared in reverse (non-topological) order;
     [Netlist.create] accepts any order. *)
  Netlist.create (List.rev (Netlist.nodes netlist_t)) ~outputs:(Netlist.outputs netlist_t)

let test_window_pi_order () =
  let inst = Gen.Suite.instantiate (Gen.Suite.find "unit5") in
  let w = Eco.Window.compute inst in
  (* window_pis follows the implementation's PI declaration order ... *)
  let expected =
    let keep = Hashtbl.create 16 in
    List.iter (fun p -> Hashtbl.replace keep p ()) w.Eco.Window.window_pis;
    List.filter (Hashtbl.mem keep) (Netlist.inputs inst.Eco.Instance.impl)
  in
  Alcotest.(check (list string)) "PI declaration order" expected w.Eco.Window.window_pis;
  (* ... and is invariant under the spec netlist's traversal order. *)
  let inst' =
    Eco.Instance.make ~name:"reordered" ~impl:inst.Eco.Instance.impl
      ~spec:(reorder_nodes inst.Eco.Instance.spec)
      ~targets:inst.Eco.Instance.targets ~weights:inst.Eco.Instance.weights ()
  in
  let w' = Eco.Window.compute inst' in
  Alcotest.(check (list string))
    "invariant under spec traversal order" w.Eco.Window.window_pis w'.Eco.Window.window_pis;
  Alcotest.(check (list string))
    "window outputs unchanged" w.Eco.Window.window_pos w'.Eco.Window.window_pos

let () =
  Alcotest.run "diff"
    [
      ( "discover",
        [
          Alcotest.test_case "single gate change" `Quick test_single_gate_change;
          Alcotest.test_case "already equivalent" `Quick test_already_equivalent;
          Alcotest.test_case "deep cut" `Quick test_deep_cut;
          Alcotest.test_case "weighted cut" `Quick test_weighted_cut;
          Alcotest.test_case "oracle matches explicit expansion" `Quick test_oracle_vs_expansion;
          Alcotest.test_case "pool refutes without a solve" `Quick test_pool_refutes;
          Alcotest.test_case "pool gates match Netlist.eval" `Quick test_gate_word;
          Alcotest.test_case "conflict cap clears minimum" `Quick test_conflict_cap;
        ] );
      ("blind suite", [ Alcotest.test_case "fixed seeds" `Slow test_blind_suite ]);
      ("window", [ Alcotest.test_case "PI order determinism" `Quick test_window_pi_order ]);
    ]
