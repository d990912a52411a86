(* Patch resynthesis: truth tables, SAT-exact synthesis, the memo table,
   DAG-aware rewriting, and the Patch.improve commit discipline. *)

let tt = Alcotest.testable Synth.Tt.pp Synth.Tt.equal

(* {2 Truth tables} *)

let test_tt_basics () =
  let x0 = Synth.Tt.var 3 0 and x1 = Synth.Tt.var 3 1 in
  Alcotest.(check bool) "projections differ" false (Synth.Tt.equal x0 x1);
  Alcotest.check tt "of_fun matches var"
    (Synth.Tt.of_fun 3 (fun bits -> bits.(1)))
    x1;
  Alcotest.(check (option (pair int bool))) "as_var" (Some (1, true)) (Synth.Tt.as_var x1);
  Alcotest.(check (list int)) "support" [ 1 ] (Synth.Tt.support x1);
  Alcotest.(check (option bool)) "const" (Some false)
    (Synth.Tt.is_const (Synth.Tt.const 4 false))

let test_tt_of_aig_of_sop () =
  (* MAJ3 three ways: of_fun, of_sop, of_aig — all three must agree. *)
  let maj bits = (bits.(0) && bits.(1)) || (bits.(1) && bits.(2)) || (bits.(0) && bits.(2)) in
  let by_fun = Synth.Tt.of_fun 3 maj in
  let sop =
    Twolevel.Sop.create 3
      [
        Twolevel.Cube.of_literals 3 [ (0, true); (1, true) ];
        Twolevel.Cube.of_literals 3 [ (1, true); (2, true) ];
        Twolevel.Cube.of_literals 3 [ (0, true); (2, true) ];
      ]
  in
  Alcotest.check tt "of_sop" by_fun (Synth.Tt.of_sop sop);
  let m = Aig.create () in
  let a = Aig.add_input m and b = Aig.add_input m and c = Aig.add_input m in
  let out = Aig.or_list m [ Aig.and_ m a b; Aig.and_ m b c; Aig.and_ m a c ] in
  Alcotest.check tt "of_aig" by_fun (Synth.Tt.of_aig m out)

(* {2 Exact synthesis} *)

let solution_tt (s : Synth.Exact.solution) = Synth.Tt.of_aig s.Synth.Exact.aig (Aig.output s.Synth.Exact.aig 0)

let exact_exn name t =
  match Synth.Exact.synthesize t with
  | Some s ->
    Alcotest.check tt (name ^ " function") t (solution_tt s);
    s
  | None -> Alcotest.failf "%s: exact synthesis found nothing" name

let test_exact_known_sizes () =
  (* Trivia first: constants and projections need no gates at all. *)
  let s = exact_exn "const" (Synth.Tt.const 2 true) in
  Alcotest.(check int) "const gates" 0 s.Synth.Exact.gates;
  let s = exact_exn "var" (Synth.Tt.var 4 2) in
  Alcotest.(check int) "var gates" 0 s.Synth.Exact.gates;
  (* Known optima over AIGs: AND 1; XOR 3 (depth 2); MUX 3; MAJ3 4. *)
  let s = exact_exn "and2" (Synth.Tt.of_fun 2 (fun b -> b.(0) && b.(1))) in
  Alcotest.(check int) "and2 gates" 1 s.Synth.Exact.gates;
  let s = exact_exn "xor2" (Synth.Tt.of_fun 2 (fun b -> b.(0) <> b.(1))) in
  Alcotest.(check int) "xor2 gates" 3 s.Synth.Exact.gates;
  Alcotest.(check int) "xor2 depth" 2 s.Synth.Exact.depth;
  let s = exact_exn "mux" (Synth.Tt.of_fun 3 (fun b -> if b.(0) then b.(1) else b.(2))) in
  Alcotest.(check int) "mux gates" 3 s.Synth.Exact.gates;
  let s =
    exact_exn "maj3"
      (Synth.Tt.of_fun 3 (fun b ->
           (b.(0) && b.(1)) || (b.(1) && b.(2)) || (b.(0) && b.(2))))
  in
  Alcotest.(check int) "maj3 gates" 4 s.Synth.Exact.gates

let test_exact_depth_bound () =
  (* XOR needs two levels of ANDs; a depth bound of 1 makes it
     unrealisable at any gate count, and the engine must say so rather
     than return a violating circuit. *)
  let xor = Synth.Tt.of_fun 2 (fun b -> b.(0) <> b.(1)) in
  Alcotest.(check bool) "xor2 at depth 1 is unsat" true
    (Synth.Exact.synthesize ~depth_bound:1 xor = None);
  match Synth.Exact.synthesize ~depth_bound:2 xor with
  | Some s ->
    Alcotest.(check bool) "depth bound honoured" true (s.Synth.Exact.depth <= 2);
    Alcotest.check tt "function" xor (solution_tt s)
  | None -> Alcotest.fail "xor2 at depth 2 must be realisable"

let test_exact_budget_exhaustion () =
  (* A parity of 5 variables needs 12 ANDs — far beyond max_gates 3 — so
     the search must fall back with None, never a wrong circuit. *)
  let parity = Synth.Tt.of_fun 5 (fun b -> Array.fold_left (fun a x -> a <> x) false b) in
  Alcotest.(check bool) "hopeless bound yields None" true
    (Synth.Exact.synthesize ~max_gates:3 parity = None)

(* The mockturtle "table 2" 5-input benchmarks (hex as in kitty): exact
   synthesis within budget must never be beaten by algebraic factoring,
   and its result must simulate back to the table. *)
let test_exact_vs_factoring_mockturtle () =
  List.iter
    (fun hex ->
      let bits = Int64.of_string ("0x" ^ hex) in
      let t = Synth.Tt.make 5 bits in
      (* Factoring route: tabulate → cover → factored expression → AIG. *)
      let cubes =
        List.filter_map
          (fun row ->
            if Synth.Tt.eval t row then
              Some
                (Twolevel.Cube.of_literals 5
                   (List.init 5 (fun i -> (i, (row lsr i) land 1 = 1))))
            else None)
          (List.init 32 Fun.id)
      in
      let sop = Twolevel.Sop.scc_minimize (Twolevel.Sop.create 5 cubes) in
      let fm, fout = Twolevel.Factor.synthesize sop in
      let factored_gates = Aig.count_cone_ands fm [ fout ] in
      match Synth.Exact.synthesize ~max_gates:(max 1 factored_gates) t with
      | Some s ->
        Alcotest.check tt (hex ^ " function") t (solution_tt s);
        Alcotest.(check bool)
          (hex ^ " exact <= factoring")
          true
          (s.Synth.Exact.gates <= factored_gates)
      | None ->
        (* max_gates = factored gate count, so "nothing found" can only
           mean budget exhaustion — acceptable, but flag absurd cases. *)
        Alcotest.(check bool) (hex ^ " fallback plausible") true (factored_gates > 6))
    [ "88888888"; "80808080"; "80008000"; "e8e8e8e8" ]

let exact_fuzz =
  Test_util.qcheck ~count:60 "exact synthesis matches random tables"
    QCheck2.Gen.(pair (int_range 1 3) (int_range 0 0xFF))
    (fun (k, bits) ->
      let t = Synth.Tt.make k (Int64.of_int bits) in
      match Synth.Exact.synthesize ~max_gates:8 t with
      | Some s ->
        Synth.Tt.equal t (solution_tt s)
        && s.Synth.Exact.gates = Aig.count_cone_ands s.Synth.Exact.aig [ Aig.output s.Synth.Exact.aig 0 ]
      | None ->
        (* Every ≤ 3-input function fits in 8 AIG nodes (parity-3, the
           worst case, takes 6); None here would be a real bug. *)
        false)

(* One random cube from fuzz literals: clamp to the variable range and
   keep the first phase of a repeated variable ([Cube.of_literals] rejects
   contradictory literals). *)
let cube_of k lits =
  let lits =
    List.sort_uniq compare (List.filter (fun (v, _) -> v < k) lits)
    |> List.fold_left (fun acc (v, ph) -> if List.mem_assoc v acc then acc else (v, ph) :: acc) []
  in
  match lits with [] -> None | _ -> Some (Twolevel.Cube.of_literals k lits)

let sop_fuzz =
  (* Random small SOPs: the exact engine against the semantic oracle. *)
  let gen =
    QCheck2.Gen.(
      pair (int_range 2 4)
        (list_size (int_range 1 5) (list_size (int_range 1 3) (pair (int_range 0 3) bool))))
  in
  Test_util.qcheck ~count:25 "exact synthesis matches random SOPs" gen
    (fun (k, cube_lits) ->
      let cubes = List.filter_map (cube_of k) cube_lits in
      match cubes with
      | [] -> true
      | _ -> (
        let sop = Twolevel.Sop.create k cubes in
        let t = Synth.Tt.of_sop sop in
        match Synth.Exact.synthesize ~max_gates:10 ~budget:5_000 t with
        | None -> Synth.Tt.support t <> [] (* only big functions may bail *)
        | Some s ->
          let st = solution_tt s in
          Synth.Tt.equal t st
          && List.for_all
               (fun row ->
                 let bits = Array.init k (fun i -> (row lsr i) land 1 = 1) in
                 Synth.Tt.eval st row = Twolevel.Sop.eval sop bits)
               (List.init (1 lsl k) Fun.id)))

(* {2 Memo table} *)

let test_table_memoises () =
  let t = Synth.Tt.of_fun 4 (fun b -> (b.(0) && b.(1)) <> (b.(2) && b.(3))) in
  let r1 = Synth.Table.lookup t in
  let size1 = Synth.Table.size () in
  let r2 = Synth.Table.lookup t in
  Alcotest.(check bool) "lookup finds a circuit" true (r1 <> None);
  Alcotest.(check bool) "second lookup hits" true (r2 <> None);
  Alcotest.(check int) "no duplicate entry" size1 (Synth.Table.size ());
  match (r1, r2) with
  | Some a, Some b ->
    Alcotest.(check int) "hits share the entry" a.Synth.Exact.gates b.Synth.Exact.gates
  | _ -> ()

(* {2 DAG-aware rewriting} *)

let output_tables m =
  Array.to_list (Array.map (fun o -> Synth.Tt.of_aig m o) (Aig.outputs m))

let test_rewrite_shrinks_redundant () =
  (* (a ∧ b) ∨ (a ∧ c) takes 3 ANDs as written; the optimal a ∧ (b ∨ c)
     takes 2.  A 4-cut sees the whole cone, so rewriting must find it. *)
  let m = Aig.create () in
  let a = Aig.add_input m and b = Aig.add_input m and c = Aig.add_input m in
  ignore (Aig.add_output m (Aig.or_ m (Aig.and_ m a b) (Aig.and_ m a c)));
  let m' = Synth.Rewrite.run m in
  Alcotest.(check int) "gates shrink" 2 (Aig.count_cone_ands m' [ Aig.output m' 0 ]);
  Alcotest.(check (list tt)) "function preserved" (output_tables m) (output_tables m')

let test_rewrite_preserves_shared_logic () =
  (* Two outputs sharing a subcircuit: rewriting one cone must not break
     or duplicate the other (the MFFC gain counter must see the sharing). *)
  let m = Aig.create () in
  let a = Aig.add_input m and b = Aig.add_input m and c = Aig.add_input m in
  let shared = Aig.and_ m a b in
  ignore (Aig.add_output m (Aig.or_ m shared (Aig.and_ m a c)));
  ignore (Aig.add_output m (Aig.xor_ m shared c));
  let m' = Synth.Rewrite.run m in
  Alcotest.(check (list tt)) "functions preserved" (output_tables m) (output_tables m');
  Alcotest.(check bool) "no growth" true
    (Aig.count_cone_ands m' (Array.to_list (Aig.outputs m'))
    <= Aig.count_cone_ands m (Array.to_list (Aig.outputs m)))

let test_rewrite_expired_deadline () =
  let m = Aig.create () in
  let a = Aig.add_input m and b = Aig.add_input m in
  ignore (Aig.add_output m (Aig.xor_ m a b));
  let d = Deadline.after 1e-6 in
  Unix.sleepf 0.01;
  let m' = Synth.Rewrite.run ~deadline:d m in
  Alcotest.(check (list tt)) "verbatim rebuild" (output_tables m) (output_tables m')

let rewrite_fuzz =
  (* Function preservation is the property; a tiny SAT budget keeps the
     cold memo-table fills cheap (an uncracked cut function just falls
     back to the verbatim rebuild, which is equally interesting here). *)
  Test_util.qcheck ~count:40 "rewriting preserves random DAG functions"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let nl = Gen.Circuits.random_dag ~seed ~inputs:5 ~gates:30 ~outputs:3 () in
      let m = (Netlist.Convert.to_aig nl).Netlist.Convert.mgr in
      let m' = Synth.Rewrite.run ~budget:300 m in
      Aig.num_inputs m' = Aig.num_inputs m
      && Aig.num_outputs m' = Aig.num_outputs m
      && output_tables m = output_tables m')

(* {2 Patch integration} *)

let redundant_patch () =
  (* a ∧ b computed twice and ORed: 5 ANDs where 1 suffices. *)
  let m = Aig.create () in
  let a = Aig.add_input m and b = Aig.add_input m in
  let f1 = Aig.and_ m a b in
  let f2 = Aig.not_ (Aig.or_ m (Aig.not_ a) (Aig.not_ b)) in
  ignore (Aig.add_output m (Aig.or_ m f1 f2));
  Eco.Patch.make ~target:"t" ~support:[ ("a", 1); ("b", 2) ] m

let test_improve_exact () =
  let p = redundant_patch () in
  let p' = Eco.Patch.improve p in
  Alcotest.(check int) "optimal size" 1 p'.Eco.Patch.gates;
  Alcotest.(check bool) "depth never grows" true (p'.Eco.Patch.depth <= p.Eco.Patch.depth);
  Alcotest.(check (list (pair string int))) "support intact" p.Eco.Patch.support
    p'.Eco.Patch.support;
  List.iter
    (fun (x, y) ->
      Alcotest.(check bool)
        (Printf.sprintf "same function at %b,%b" x y)
        (Eco.Patch.eval p [| x; y |])
        (Eco.Patch.eval p' [| x; y |]))
    [ (false, false); (false, true); (true, false); (true, true) ]

(* The engine's one resynthesis site: [resynth] changes only the reported
   circuits, and its effort shows up as its own phase. *)
let test_engine_resynth () =
  let inst = Gen.Suite.instantiate (Gen.Suite.find "unit10") in
  let run resynth =
    Telemetry.reset ();
    let config =
      {
        (Eco.Engine.config_of_method Eco.Engine.Exact) with
        Eco.Engine.force_structural = true;
        resynth;
      }
    in
    let o = Eco.Engine.solve ~config inst in
    let synth_phase =
      List.exists
        (fun s -> s.Telemetry.path = "eco/synth" && s.Telemetry.calls > 0)
        (Telemetry.phases ())
    in
    (o, synth_phase)
  in
  let off, off_phase = run false in
  let on, on_phase = run true in
  Alcotest.(check bool) "same status" true (off.Eco.Engine.status = on.Eco.Engine.status);
  Alcotest.(check int) "same cost" off.Eco.Engine.cost on.Eco.Engine.cost;
  Alcotest.(check (option bool)) "same verdict" off.Eco.Engine.verified on.Eco.Engine.verified;
  Alcotest.(check (option bool)) "verified" (Some true) on.Eco.Engine.verified;
  Alcotest.(check bool)
    (Printf.sprintf "gates %d -> %d shrink" off.Eco.Engine.gates on.Eco.Engine.gates)
    true
    (on.Eco.Engine.gates < off.Eco.Engine.gates);
  Alcotest.(check bool) "depth never grows" true (on.Eco.Engine.depth <= off.Eco.Engine.depth);
  Alcotest.(check bool) "no synth phase when off" false off_phase;
  Alcotest.(check bool) "synth phase when on" true on_phase

let improve_fuzz =
  (* Random SOP → factored patch → improve: the result
     must stay semantically equal to the SOP and Pareto-dominate or equal
     the factored circuit on (gates, depth).  This is the commit rule the
     engine relies on for the "gates never grow" CI gate. *)
  let gen =
    QCheck2.Gen.(
      pair (int_range 2 4)
        (list_size (int_range 1 6) (list_size (int_range 1 4) (pair (int_range 0 3) bool))))
  in
  Test_util.qcheck ~count:20 "improve keeps SOP semantics and Pareto-improves" gen
    (fun (k, cube_lits) ->
      let cubes = List.filter_map (cube_of k) cube_lits in
      match cubes with
      | [] -> true
      | _ ->
        let sop = Twolevel.Sop.scc_minimize (Twolevel.Sop.create k cubes) in
        let expr = Twolevel.Factor.factor sop in
        let support = List.init k (fun i -> (Printf.sprintf "d%d" i, 1)) in
        let p = Eco.Patch.of_expr ~sop ~target:"t" ~support expr in
        let p' = Eco.Patch.improve p in
        p'.Eco.Patch.gates <= p.Eco.Patch.gates
        && p'.Eco.Patch.depth <= p.Eco.Patch.depth
        && List.for_all
             (fun row ->
               let bits = Array.init k (fun i -> (row lsr i) land 1 = 1) in
               Eco.Patch.eval p' bits = Twolevel.Sop.eval sop bits)
             (List.init (1 lsl k) Fun.id))

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

let test_sweep_expired_deadline () =
  let p = redundant_patch () in
  let before =
    match List.assoc_opt "eco.sweep.runs" (Telemetry.snapshot ()) with
    | Some v -> v
    | None -> 0
  in
  (* [Deadline.after] maps non-positive spans to [never], so an expired
     deadline has to actually expire. *)
  let d = Deadline.after 1e-6 in
  Unix.sleepf 0.01;
  let p' = Eco.Patch.sweep ~deadline:d p in
  let after =
    match List.assoc_opt "eco.sweep.runs" (Telemetry.snapshot ()) with
    | Some v -> v
    | None -> 0
  in
  Alcotest.(check bool) "expired deadline skips the sweep" true (p == p');
  Alcotest.(check int) "no sweep booked" before after

let () =
  Alcotest.run "synth"
    [
      ( "tt",
        [
          Alcotest.test_case "basics" `Quick test_tt_basics;
          Alcotest.test_case "of_aig/of_sop agree" `Quick test_tt_of_aig_of_sop;
        ] );
      ( "exact",
        [
          Alcotest.test_case "known optima" `Quick test_exact_known_sizes;
          Alcotest.test_case "depth bound" `Quick test_exact_depth_bound;
          Alcotest.test_case "budget exhaustion" `Quick test_exact_budget_exhaustion;
          Alcotest.test_case "vs factoring (mockturtle)" `Slow test_exact_vs_factoring_mockturtle;
          exact_fuzz;
          sop_fuzz;
        ] );
      ("table", [ Alcotest.test_case "memoises" `Quick test_table_memoises ]);
      ( "rewrite",
        [
          Alcotest.test_case "shrinks redundancy" `Quick test_rewrite_shrinks_redundant;
          Alcotest.test_case "shared logic" `Quick test_rewrite_preserves_shared_logic;
          Alcotest.test_case "expired deadline" `Quick test_rewrite_expired_deadline;
          rewrite_fuzz;
        ] );
      ( "patch",
        [
          Alcotest.test_case "improve: exact" `Quick test_improve_exact;
          Alcotest.test_case "engine: resynth switch" `Quick test_engine_resynth;
          improve_fuzz;
          Alcotest.test_case "import_into order" `Quick test_import_into_order;
          Alcotest.test_case "sweep: expired deadline" `Quick test_sweep_expired_deadline;
        ] );
    ]
