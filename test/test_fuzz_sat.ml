(* Differential fuzzing of the CDCL solver against the BDD oracle.

   Each seeded case generates a small random CNF, decides it with
   [Sat.Solver] (in proof-logging mode) and cross-checks the verdict
   against a BDD built from the same clauses.  SAT answers must come with
   a model satisfying every clause; UNSAT answers must come with a
   resolution proof that derives the empty clause from the problem's
   clauses and replays under the standalone checker.  A second batch repeats the game under random assumption
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
        let problem = Hashtbl.create 64 in
        List.iter (fun c -> Hashtbl.replace problem (List.sort_uniq compare c) ()) clauses;
        let leaf_ok lits = Hashtbl.mem problem (List.sort_uniq compare (Array.to_list lits)) in
        Alcotest.(check bool) (ctx ^ ": resolution proof checks") true
          (Test_util.proof_valid ~leaf_ok proof))
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

let () =
  Alcotest.run "fuzz_sat"
    [
      ( "differential",
        [
          Alcotest.test_case "cdcl vs bdd oracle + proof check" `Quick test_against_bdd_oracle;
          Alcotest.test_case "assumptions and cores vs bdd oracle" `Quick
            test_assumptions_against_bdd_oracle;
        ] );
    ]
