(* AIG manager: strashing, simulation, cofactoring, quantification,
   cross-manager import, AIGER round trips. *)

(* A random AIG over [n] inputs built from a seed, returning some root. *)
let random_aig_root rand m inputs =
  let pool = ref (Array.to_list inputs) in
  let pick () = List.nth !pool (Random.State.int rand (List.length !pool)) in
  for _ = 1 to 20 + Random.State.int rand 30 do
    let a = pick () and b = pick () in
    let a = if Random.State.bool rand then Aig.not_ a else a in
    let b = if Random.State.bool rand then Aig.not_ b else b in
    let f =
      match Random.State.int rand 3 with
      | 0 -> Aig.and_ m a b
      | 1 -> Aig.or_ m a b
      | _ -> Aig.xor_ m a b
    in
    pool := f :: !pool
  done;
  pick ()

let test_constants () =
  let m = Aig.create () in
  let x = Aig.add_input m in
  Alcotest.(check int) "x & 0" Aig.false_ (Aig.and_ m x Aig.false_);
  Alcotest.(check int) "x & 1" x (Aig.and_ m x Aig.true_);
  Alcotest.(check int) "x & x" x (Aig.and_ m x x);
  Alcotest.(check int) "x & !x" Aig.false_ (Aig.and_ m x (Aig.not_ x));
  Alcotest.(check int) "!!x" x (Aig.not_ (Aig.not_ x));
  Alcotest.(check int) "x | !x" Aig.true_ (Aig.or_ m x (Aig.not_ x));
  Alcotest.(check int) "x ^ x" Aig.false_ (Aig.xor_ m x x);
  Alcotest.(check int) "x ^ 0" x (Aig.xor_ m x Aig.false_);
  Alcotest.(check int) "ite(1,a,b)=a" x (Aig.ite m Aig.true_ x Aig.false_)

let test_strash_sharing () =
  let m = Aig.create () in
  let x = Aig.add_input m and y = Aig.add_input m in
  let a1 = Aig.and_ m x y in
  let a2 = Aig.and_ m y x in
  Alcotest.(check int) "commutative sharing" a1 a2;
  let before = Aig.num_ands m in
  ignore (Aig.and_ m x y);
  Alcotest.(check int) "no duplicate node" before (Aig.num_ands m)

let test_levels () =
  let m = Aig.create () in
  let x = Aig.add_input m and y = Aig.add_input m in
  Alcotest.(check int) "input level" 0 (Aig.lit_level m x);
  let a = Aig.and_ m x y in
  Alcotest.(check int) "and level" 1 (Aig.lit_level m a);
  let b = Aig.and_ m a y in
  Alcotest.(check int) "stacked level" 2 (Aig.lit_level m b)

let test_support_and_cone () =
  let m = Aig.create () in
  let x = Aig.add_input m and y = Aig.add_input m and z = Aig.add_input m in
  ignore z;
  let f = Aig.and_ m x (Aig.not_ y) in
  let sup = Aig.support m [ f ] in
  Alcotest.(check int) "support size" 2 (List.length sup);
  Alcotest.(check bool) "z not in support" false (List.mem (Aig.node_of z) sup);
  Alcotest.(check int) "cone size" 1 (Aig.count_cone_ands m [ f ])

let test_simulation_matches_eval () =
  let rand = Random.State.make [| 11 |] in
  let m = Aig.create () in
  let inputs = Aig.add_inputs m 5 in
  let root = random_aig_root rand m inputs in
  (* All 32 input patterns in one 64-bit simulation word. *)
  let words =
    Array.init 5 (fun i ->
        let w = ref 0L in
        for code = 0 to 31 do
          if (code lsr i) land 1 = 1 then w := Int64.logor !w (Int64.shift_left 1L code)
        done;
        !w)
  in
  let values = Aig.simulate m words in
  let sim = Aig.lit_value values root in
  for code = 0 to 31 do
    let bits = Array.init 5 (fun i -> (code lsr i) land 1 = 1) in
    let expected = Aig.eval m bits root in
    let got = Int64.logand (Int64.shift_right_logical sim code) 1L = 1L in
    Alcotest.(check bool) (Printf.sprintf "pattern %d" code) expected got
  done

let cofactor_semantics =
  Test_util.qcheck ~count:100 "cofactor fixes the variable"
    QCheck2.Gen.(pair (int_range 0 1_000_000) bool)
    (fun (seed, phase) ->
      let rand = Random.State.make [| seed |] in
      let m = Aig.create () in
      let inputs = Aig.add_inputs m 4 in
      let root = random_aig_root rand m inputs in
      let var = inputs.(Random.State.int rand 4) in
      let cof = match Aig.cofactor m ~var phase [ root ] with [ c ] -> c | _ -> assert false in
      List.for_all
        (fun code ->
          let bits = Array.init 4 (fun i -> (code lsr i) land 1 = 1) in
          let fixed = Array.copy bits in
          fixed.(Aig.input_index m (Aig.node_of var)) <- phase;
          Aig.eval m fixed root = Aig.eval m bits cof)
        (List.init 16 Fun.id))

let quantifier_semantics =
  Test_util.qcheck ~count:100 "forall/exists agree with cofactor pairs"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let m = Aig.create () in
      let inputs = Aig.add_inputs m 4 in
      let root = random_aig_root rand m inputs in
      let var = inputs.(Random.State.int rand 4) in
      let fa = Aig.forall m ~var root in
      let ex = Aig.exists m ~var root in
      List.for_all
        (fun code ->
          let bits = Array.init 4 (fun i -> (code lsr i) land 1 = 1) in
          let with_v p =
            let b = Array.copy bits in
            b.(Aig.input_index m (Aig.node_of var)) <- p;
            Aig.eval m b root
          in
          Aig.eval m bits fa = (with_v false && with_v true)
          && Aig.eval m bits ex = (with_v false || with_v true))
        (List.init 16 Fun.id))

let substitute_semantics =
  Test_util.qcheck ~count:100 "substitute composes functions"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let m = Aig.create () in
      let inputs = Aig.add_inputs m 4 in
      let root = random_aig_root rand m inputs in
      (* Substitute input 0 with a function of inputs 2 and 3. *)
      let g = Aig.xor_ m inputs.(2) inputs.(3) in
      let sub =
        match Aig.substitute m ~input:inputs.(0) g [ root ] with
        | [ s ] -> s
        | _ -> assert false
      in
      List.for_all
        (fun code ->
          let bits = Array.init 4 (fun i -> (code lsr i) land 1 = 1) in
          let composed = Array.copy bits in
          composed.(0) <- bits.(2) <> bits.(3);
          Aig.eval m composed root = Aig.eval m bits sub)
        (List.init 16 Fun.id))

let import_preserves_function =
  Test_util.qcheck ~count:100 "import preserves truth tables"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let src = Aig.create () in
      let inputs = Aig.add_inputs src 4 in
      let root = random_aig_root rand src inputs in
      ignore (Aig.add_output src root);
      let dst = Aig.create () in
      let dst_inputs = Aig.add_inputs dst 4 in
      let map = Aig.fresh_map src in
      Array.iteri (fun i l -> map.(Aig.node_of l) <- dst_inputs.(i)) (Aig.inputs src);
      let root' = match Aig.import dst src ~map [ root ] with [ r ] -> r | _ -> assert false in
      Test_util.truth_table src root = Test_util.truth_table dst root')

let copy_preserves_function =
  Test_util.qcheck ~count:50 "copy preserves output functions"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let m = Aig.create () in
      let inputs = Aig.add_inputs m 4 in
      ignore (Aig.add_output m (random_aig_root rand m inputs));
      ignore (Aig.add_output m (random_aig_root rand m inputs));
      let m' = Aig.copy m in
      Aig.num_outputs m = Aig.num_outputs m'
      && List.for_all
           (fun i ->
             Test_util.truth_table m (Aig.output m i) = Test_util.truth_table m' (Aig.output m' i))
           [ 0; 1 ])

let test_import_unmapped_input () =
  let src = Aig.create () in
  let x = Aig.add_input src in
  let y = Aig.add_input src in
  let f = Aig.and_ src x y in
  let dst = Aig.create () in
  let map = Aig.fresh_map src in
  map.(Aig.node_of x) <- Aig.add_input dst;
  Alcotest.check_raises "unmapped input"
    (Invalid_argument "Aig.import: unmapped input reachable from roots") (fun () ->
      ignore (Aig.import dst src ~map [ f ]))

let test_fanout_counts () =
  let m = Aig.create () in
  let x = Aig.add_input m and y = Aig.add_input m in
  let a = Aig.and_ m x y in
  let b = Aig.and_ m a (Aig.not_ x) in
  ignore (Aig.add_output m b);
  let counts = Aig.fanout_counts m in
  Alcotest.(check int) "x feeds a and b" 2 counts.(Aig.node_of x);
  Alcotest.(check int) "a feeds b" 1 counts.(Aig.node_of a);
  Alcotest.(check int) "b feeds output" 1 counts.(Aig.node_of b)

let () =
  Alcotest.run "aig"
    [
      ( "unit",
        [
          Alcotest.test_case "constant folding" `Quick test_constants;
          Alcotest.test_case "structural hashing" `Quick test_strash_sharing;
          Alcotest.test_case "levels" `Quick test_levels;
          Alcotest.test_case "support and cone" `Quick test_support_and_cone;
          Alcotest.test_case "simulation matches eval" `Quick test_simulation_matches_eval;
          Alcotest.test_case "import rejects unmapped input" `Quick test_import_unmapped_input;
          Alcotest.test_case "fanout counts" `Quick test_fanout_counts;
        ] );
      ( "property",
        [
          cofactor_semantics;
          quantifier_semantics;
          substitute_semantics;
          import_preserves_function;
          copy_preserves_function;
        ] );
    ]
