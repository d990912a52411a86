(* Differential fuzzing of the CDCL solver against the BDD oracle.

   Each seeded case generates a small random CNF, decides it with
   [Sat.Solver] (in proof-logging mode) and cross-checks the verdict
   against a BDD built from the same clauses.  SAT answers must come with
   a model satisfying every clause; UNSAT answers must come with a
   resolution proof that [Proof.check] accepts and that derives the empty
   clause.  A second batch repeats the game under random assumption
   literals and validates the [final_conflict] core against the oracle. *)

let bdd_lit man l =
  if Sat.Lit.is_neg l then Bdd.nvar man (Sat.Lit.var l) else Bdd.var man (Sat.Lit.var l)

let bdd_of_cnf man clauses =
  List.fold_left
    (fun acc cls ->
      Bdd.and_ man acc (List.fold_left (fun c l -> Bdd.or_ man c (bdd_lit man l)) Bdd.fls cls))
    Bdd.tru clauses

let model_satisfies solver clauses =
  List.for_all (List.exists (fun l -> Sat.Solver.value solver l)) clauses

let random_instance seed =
  let rand = Random.State.make [| 0xfa57; seed |] in
  let nv = 3 + Random.State.int rand 8 in
  let nc = nv + Random.State.int rand (3 * nv) in
  let clauses = Test_util.random_cnf rand nv nc 4 in
  (rand, nv, clauses)

let n_plain_cases = 220
let n_assumption_cases = 130

let test_against_bdd_oracle () =
  let sat_seen = ref 0 and unsat_seen = ref 0 in
  for seed = 0 to n_plain_cases - 1 do
    let _, nv, clauses = random_instance seed in
    let man = Bdd.create nv in
    let expect_sat = not (Bdd.is_false (bdd_of_cnf man clauses)) in
    let ctx = Printf.sprintf "seed %d" seed in
    let solver = Sat.Solver.create ~proof:true () in
    ignore (Sat.Solver.new_vars solver nv);
    List.iter (Sat.Solver.add_clause solver) clauses;
    (match Sat.Solver.solve solver with
    | Sat.Solver.Sat ->
      incr sat_seen;
      Alcotest.(check bool) (ctx ^ ": oracle agrees sat") true expect_sat;
      Alcotest.(check bool) (ctx ^ ": model satisfies cnf") true (model_satisfies solver clauses)
    | Sat.Solver.Unsat -> (
      incr unsat_seen;
      Alcotest.(check bool) (ctx ^ ": oracle agrees unsat") false expect_sat;
      match Sat.Solver.proof solver with
      | None -> Alcotest.fail (ctx ^ ": proof-logging solver lost its proof")
      | Some proof ->
        Alcotest.(check bool) (ctx ^ ": derives empty clause") true
          (Sat.Proof.empty_clause proof <> None);
        Alcotest.(check bool) (ctx ^ ": resolution proof checks") true (Sat.Proof.check proof))
    | Sat.Solver.Unknown -> Alcotest.fail (ctx ^ ": unexpected Unknown without budget"));
    (* The plain (non-proof) solver, with all its simplifications enabled,
       must agree. *)
    let plain = Sat.Solver.create () in
    ignore (Sat.Solver.new_vars plain nv);
    List.iter (Sat.Solver.add_clause plain) clauses;
    Alcotest.(check bool)
      (ctx ^ ": proof and plain solvers agree")
      expect_sat
      (Sat.Solver.solve plain = Sat.Solver.Sat)
  done;
  (* The generator must exercise both verdicts, or the fuzz is vacuous. *)
  Alcotest.(check bool) "saw satisfiable cases" true (!sat_seen > 20);
  Alcotest.(check bool) "saw unsatisfiable cases" true (!unsat_seen > 20)

let test_assumptions_against_bdd_oracle () =
  for seed = 0 to n_assumption_cases - 1 do
    let rand, nv, clauses = random_instance (1000 + seed) in
    let ctx = Printf.sprintf "seed %d" (1000 + seed) in
    let n_assumed = 1 + Random.State.int rand nv in
    let assumed_vars =
      List.sort_uniq compare (List.init n_assumed (fun _ -> Random.State.int rand nv))
    in
    let assumptions =
      List.map (fun v -> Sat.Lit.of_var v (Random.State.bool rand)) assumed_vars
    in
    let man = Bdd.create nv in
    let cnf = bdd_of_cnf man clauses in
    let restrict_by bdd lits =
      List.fold_left
        (fun acc l -> Bdd.restrict man (Sat.Lit.var l) (Sat.Lit.is_pos l) acc)
        bdd lits
    in
    let expect_sat = not (Bdd.is_false (restrict_by cnf assumptions)) in
    let solver = Sat.Solver.create () in
    ignore (Sat.Solver.new_vars solver nv);
    List.iter (Sat.Solver.add_clause solver) clauses;
    match Sat.Solver.solve ~assumptions solver with
    | Sat.Solver.Sat ->
      Alcotest.(check bool) (ctx ^ ": oracle agrees sat") true expect_sat;
      Alcotest.(check bool) (ctx ^ ": model satisfies cnf") true (model_satisfies solver clauses);
      Alcotest.(check bool)
        (ctx ^ ": model satisfies assumptions")
        true
        (List.for_all (Sat.Solver.value solver) assumptions)
    | Sat.Solver.Unsat ->
      Alcotest.(check bool) (ctx ^ ": oracle agrees unsat") false expect_sat;
      let core = Sat.Solver.final_conflict solver in
      Alcotest.(check bool)
        (ctx ^ ": core within assumptions")
        true
        (List.for_all (fun l -> List.mem l assumptions) core);
      (* The reported core must itself be enough to contradict the CNF. *)
      Alcotest.(check bool)
        (ctx ^ ": core refutes the cnf")
        true
        (Bdd.is_false (restrict_by cnf core))
    | Sat.Solver.Unknown -> Alcotest.fail (ctx ^ ": unexpected Unknown without budget")
  done

(* Same 350 seeded instances, this time through the SatELite-style
   preprocessor.  SAT answers must produce extended models (covering
   eliminated variables) that satisfy the ORIGINAL clauses; UNSAT answers
   must agree with the BDD oracle; cores must still refute the CNF.  Adds
   a second solve after extra clauses to exercise incremental
   forward-simplification and reintroduction of eliminated variables. *)

let simp_model_satisfies simp clauses =
  List.for_all (List.exists (fun l -> Sat.Simplify.value simp l)) clauses

let test_simplify_against_bdd_oracle () =
  let eliminated_total = ref 0 in
  let run_one seed ~assumptions_on =
    let rand, nv, clauses = random_instance seed in
    let ctx = Printf.sprintf "simp seed %d" seed in
    let assumptions =
      if not assumptions_on then []
      else begin
        let n_assumed = 1 + Random.State.int rand nv in
        let assumed_vars =
          List.sort_uniq compare (List.init n_assumed (fun _ -> Random.State.int rand nv))
        in
        List.map (fun v -> Sat.Lit.of_var v (Random.State.bool rand)) assumed_vars
      end
    in
    let man = Bdd.create nv in
    let cnf = bdd_of_cnf man clauses in
    let restrict_by bdd lits =
      List.fold_left
        (fun acc l -> Bdd.restrict man (Sat.Lit.var l) (Sat.Lit.is_pos l) acc)
        bdd lits
    in
    let expect_sat = not (Bdd.is_false (restrict_by cnf assumptions)) in
    let solver = Sat.Solver.create () in
    let simp = Sat.Simplify.create ~enabled:true solver in
    ignore (Sat.Solver.new_vars solver nv);
    List.iter (Sat.Simplify.add_clause simp) clauses;
    (match Sat.Simplify.solve ~assumptions simp with
    | Sat.Solver.Sat ->
      Alcotest.(check bool) (ctx ^ ": oracle agrees sat") true expect_sat;
      Alcotest.(check bool)
        (ctx ^ ": extended model satisfies original cnf")
        true
        (simp_model_satisfies simp clauses);
      Alcotest.(check bool)
        (ctx ^ ": extended model satisfies assumptions")
        true
        (List.for_all (Sat.Simplify.value simp) assumptions)
    | Sat.Solver.Unsat ->
      Alcotest.(check bool) (ctx ^ ": oracle agrees unsat") false expect_sat;
      let core = Sat.Solver.final_conflict solver in
      Alcotest.(check bool)
        (ctx ^ ": core refutes the cnf")
        true
        (Bdd.is_false (restrict_by cnf core))
    | Sat.Solver.Unknown -> Alcotest.fail (ctx ^ ": unexpected Unknown without budget"));
    let s = Sat.Simplify.stats simp in
    eliminated_total := !eliminated_total + s.Sat.Simplify.eliminated;
    (* Incremental round: add fresh clauses (possibly over eliminated
       variables, forcing reintroduction) and solve again. *)
    let extra = Test_util.random_cnf rand nv (1 + Random.State.int rand nv) 3 in
    let clauses2 = clauses @ extra in
    let expect_sat2 = not (Bdd.is_false (restrict_by (bdd_of_cnf man clauses2) assumptions)) in
    List.iter (Sat.Simplify.add_clause simp) extra;
    match Sat.Simplify.solve ~assumptions simp with
    | Sat.Solver.Sat ->
      Alcotest.(check bool) (ctx ^ ": incremental oracle agrees sat") true expect_sat2;
      Alcotest.(check bool)
        (ctx ^ ": incremental model satisfies original cnf")
        true
        (simp_model_satisfies simp clauses2)
    | Sat.Solver.Unsat ->
      Alcotest.(check bool) (ctx ^ ": incremental oracle agrees unsat") false expect_sat2
    | Sat.Solver.Unknown -> Alcotest.fail (ctx ^ ": unexpected Unknown without budget")
  in
  for seed = 0 to n_plain_cases - 1 do
    run_one seed ~assumptions_on:false
  done;
  for seed = 0 to n_assumption_cases - 1 do
    run_one (1000 + seed) ~assumptions_on:true
  done;
  (* Wide batch: with <= 10 variables no resolvent can reach the
     preprocessor's clause-length limit, so the small instances above never
     exercise the "over-long resolvent vetoes the elimination" path.  Each
     instance plants a gadget around pivot variable 0, which occurs exactly
     twice — positively and negatively in two wide clauses with disjoint
     all-positive tails t1..t11 / t12..t22 — so its only resolvent is
     (t1 v .. v t22): 22 literals, over the limit.  The tails are frozen
     (the interface-variable pattern), which keeps them from being
     eliminated as pure literals, and no other clause mentions them, so
     nothing can subsume or strengthen the wide clauses: the pivot's
     elimination attempt is guaranteed to meet the over-long resolvent.
     Eliminating it anyway while dropping that resolvent (the historical
     bug) erases the constraint "some tail is true"; even seeds then solve
     under all-tails-false assumptions, where only the dropped resolvent
     makes the instance UNSAT, and odd seeds solve outright and check the
     extended model.  A plain solver on the same CNF is the oracle. *)
  for seed = 0 to 29 do
    let rand = Random.State.make [| 0x71de; seed |] in
    let nv = 31 in
    let tail lo = List.init 11 (fun i -> Sat.Lit.make (lo + i)) in
    let wide = [ Sat.Lit.make 0 :: tail 1; Sat.Lit.make_neg 0 :: tail 12 ] in
    (* unrelated noise on a separate variable block, for pass diversity *)
    let noise =
      List.map
        (List.map (fun l -> Sat.Lit.of_var (Sat.Lit.var l + 23) (Sat.Lit.is_neg l)))
        (Test_util.random_cnf rand 8 16 3)
    in
    let clauses = noise @ wide in
    let assumptions =
      if seed mod 2 = 0 then List.init 22 (fun i -> Sat.Lit.make_neg (1 + i)) else []
    in
    let ctx = Printf.sprintf "wide seed %d" seed in
    let plain = Sat.Solver.create () in
    ignore (Sat.Solver.new_vars plain nv);
    List.iter (Sat.Solver.add_clause plain) clauses;
    let expect = Sat.Solver.solve ~assumptions plain in
    let solver = Sat.Solver.create () in
    let simp = Sat.Simplify.create ~enabled:true solver in
    ignore (Sat.Solver.new_vars solver nv);
    for v = 1 to 22 do
      Sat.Simplify.freeze_var simp v
    done;
    List.iter (Sat.Simplify.add_clause simp) clauses;
    (match (Sat.Simplify.solve ~assumptions simp, expect) with
    | Sat.Solver.Sat, Sat.Solver.Sat ->
      Alcotest.(check bool)
        (ctx ^ ": extended model satisfies original cnf")
        true
        (simp_model_satisfies simp clauses)
    | Sat.Solver.Unsat, Sat.Solver.Unsat -> ()
    | got, want ->
      Alcotest.failf "%s: verdict mismatch (simplified %s, plain %s)" ctx
        (match got with
        | Sat.Solver.Sat -> "sat"
        | Sat.Solver.Unsat -> "unsat"
        | Sat.Solver.Unknown -> "unknown")
        (match want with
        | Sat.Solver.Sat -> "sat"
        | Sat.Solver.Unsat -> "unsat"
        | Sat.Solver.Unknown -> "unknown"));
    let s = Sat.Simplify.stats simp in
    eliminated_total := !eliminated_total + s.Sat.Simplify.eliminated
  done;
  (* The pass is vacuous if elimination never fires across the instances. *)
  Alcotest.(check bool) "preprocessing eliminated variables" true (!eliminated_total > 0)

let () =
  Alcotest.run "fuzz_sat"
    [
      ( "differential",
        [
          Alcotest.test_case "cdcl vs bdd oracle + proof check" `Quick test_against_bdd_oracle;
          Alcotest.test_case "assumptions and cores vs bdd oracle" `Quick
            test_assumptions_against_bdd_oracle;
          Alcotest.test_case "simplify-enabled cdcl vs bdd oracle" `Quick
            test_simplify_against_bdd_oracle;
        ] );
    ]
