(* Resolution proof logging: hand-built derivations replay to exactly the
   recorded literals, and [set_empty] roots a well-formed empty-clause
   derivation (the objects the certification layer consumes). *)

let lit = Sat.Lit.make
let nlit = Sat.Lit.make_neg

(* Reference resolution over sorted literal lists, independent of the
   cert checker. *)
let resolve a b pivot =
  let keep l = Sat.Lit.var l <> pivot in
  List.sort_uniq compare (List.filter keep a @ List.filter keep b)

let replay proof base steps =
  let clause_of id =
    match Sat.Proof.node proof id with
    | Sat.Proof.Leaf { lits; _ } -> Array.to_list lits
    | Sat.Proof.Derived { lits; _ } -> Array.to_list lits
  in
  List.fold_left (fun acc (pivot, ante) -> resolve acc (clause_of ante) pivot) (clause_of base) steps

(* The checker validates a proof through its empty-clause root: refute the
   derived unit [x] with the leaf (~x). *)
let refute_unit p d x =
  let leaf = Sat.Proof.add_leaf p Sat.Proof.Part_b [| nlit x |] in
  Sat.Proof.set_empty p (Sat.Proof.add_derived p [||] ~base:d ~steps:[ (x, leaf) ])

let test_derived_replay () =
  let p = Sat.Proof.create () in
  (* (x0 | x1), (~x0 | x2), (~x1 | x2) |- (x2) *)
  let c0 = Sat.Proof.add_leaf p Sat.Proof.Part_a [| lit 0; lit 1 |] in
  let c1 = Sat.Proof.add_leaf p Sat.Proof.Part_a [| nlit 0; lit 2 |] in
  let c2 = Sat.Proof.add_leaf p Sat.Proof.Part_a [| nlit 1; lit 2 |] in
  let steps = [ (0, c1); (1, c2) ] in
  let d = Sat.Proof.add_derived p [| lit 2 |] ~base:c0 ~steps in
  refute_unit p d 2;
  Alcotest.(check bool) "well-formed" true (Test_util.proof_valid p);
  (match Sat.Proof.node p d with
  | Sat.Proof.Derived { lits; base; steps = s } ->
    Alcotest.(check (list int)) "recorded lits" [ lit 2 ] (Array.to_list lits);
    Alcotest.(check int) "base" c0 base;
    Alcotest.(check (list (pair int int))) "steps" steps (Array.to_list s)
  | Sat.Proof.Leaf _ -> Alcotest.fail "expected a derived node");
  Alcotest.(check (list int))
    "independent replay reproduces the recorded literals" [ lit 2 ] (replay p c0 steps)

let test_derived_replay_long_chain () =
  (* Implication chain x0 -> x1 -> ... -> x5 resolved against (x0): every
     prefix derivation replays to the expected unit clause. *)
  let p = Sat.Proof.create () in
  let x0 = Sat.Proof.add_leaf p Sat.Proof.Part_a [| lit 0 |] in
  let links =
    List.init 5 (fun i -> Sat.Proof.add_leaf p Sat.Proof.Part_a [| nlit i; lit (i + 1) |])
  in
  let steps = List.mapi (fun i ante -> (i, ante)) links in
  let d = Sat.Proof.add_derived p [| lit 5 |] ~base:x0 ~steps in
  refute_unit p d 5;
  Alcotest.(check bool) "well-formed" true (Test_util.proof_valid p);
  Alcotest.(check (list int)) "replay" [ lit 5 ] (replay p x0 steps);
  match Sat.Proof.node p d with
  | Sat.Proof.Derived { lits; _ } ->
    Alcotest.(check (list int)) "recorded" [ lit 5 ] (Array.to_list lits)
  | Sat.Proof.Leaf _ -> Alcotest.fail "expected a derived node"

let test_check_rejects_wrong_conclusion () =
  let p = Sat.Proof.create () in
  let c0 = Sat.Proof.add_leaf p Sat.Proof.Part_a [| lit 0; lit 1 |] in
  let c1 = Sat.Proof.add_leaf p Sat.Proof.Part_a [| nlit 0; lit 2 |] in
  (* Claimed conclusion drops x2, which the resolution does not justify;
     refuting the claim would otherwise close the proof. *)
  let d = Sat.Proof.add_derived p [| lit 1 |] ~base:c0 ~steps:[ (0, c1) ] in
  refute_unit p d 1;
  Alcotest.(check bool) "rejected" false (Test_util.proof_valid p)

let test_set_empty_roots_derivation () =
  let p = Sat.Proof.create () in
  let c0 = Sat.Proof.add_leaf p Sat.Proof.Part_a [| lit 0 |] in
  let c1 = Sat.Proof.add_leaf p Sat.Proof.Part_b [| nlit 0 |] in
  Alcotest.(check (option int)) "no root before set_empty" None (Sat.Proof.empty_clause p);
  let e = Sat.Proof.add_derived p [||] ~base:c0 ~steps:[ (0, c1) ] in
  Sat.Proof.set_empty p e;
  Alcotest.(check (option int)) "root recorded" (Some e) (Sat.Proof.empty_clause p);
  Alcotest.(check bool) "well-formed" true (Test_util.proof_valid p);
  Alcotest.(check (list int)) "replays to the empty clause" [] (replay p c0 [ (0, c1) ])

let test_solver_unsat_proof_is_rooted () =
  (* A proof-logging solver on an unsatisfiable instance must end with a
     well-formed, rooted empty-clause derivation. *)
  let s = Sat.Solver.create ~proof:true () in
  ignore (Sat.Solver.new_vars s 2);
  List.iter
    (Sat.Solver.add_clause s)
    [ [ lit 0; lit 1 ]; [ nlit 0; lit 1 ]; [ lit 0; nlit 1 ]; [ nlit 0; nlit 1 ] ];
  (match Sat.Solver.solve s with
  | Sat.Solver.Unsat -> ()
  | _ -> Alcotest.fail "expected UNSAT");
  match Sat.Solver.proof s with
  | None -> Alcotest.fail "proof logging was enabled"
  | Some p ->
    Alcotest.(check bool) "rooted" true (Sat.Proof.empty_clause p <> None);
    Alcotest.(check bool) "well-formed" true (Test_util.proof_valid p)

let () =
  Alcotest.run "proof"
    [
      ( "unit",
        [
          Alcotest.test_case "derived replay" `Quick test_derived_replay;
          Alcotest.test_case "long chain replay" `Quick test_derived_replay_long_chain;
          Alcotest.test_case "wrong conclusion rejected" `Quick test_check_rejects_wrong_conclusion;
          Alcotest.test_case "set_empty roots derivation" `Quick test_set_empty_roots_derivation;
          Alcotest.test_case "solver UNSAT proof rooted" `Quick test_solver_unsat_proof_is_rooted;
        ] );
    ]
