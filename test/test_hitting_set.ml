(* Exact weighted minimum hitting set vs exhaustive enumeration. *)

let brute_minimum ~weights clauses =
  let n = Array.length weights in
  if List.exists (( = ) []) clauses then None
  else begin
    let best = ref None in
    for mask = 0 to (1 lsl n) - 1 do
      let set = List.filter (fun e -> mask land (1 lsl e) <> 0) (List.init n Fun.id) in
      if List.for_all (fun cls -> List.exists (fun e -> List.mem e set) cls) clauses then begin
        let cost = List.fold_left (fun acc e -> acc + weights.(e)) 0 set in
        match !best with
        | Some (c, _) when c <= cost -> ()
        | _ -> best := Some (cost, set)
      end
    done;
    Option.map snd !best
  end

let cost weights set = List.fold_left (fun acc e -> acc + weights.(e)) 0 set

module Hs = Diff.Hitting_set

let test_basics () =
  Alcotest.(check (option (list int))) "no clauses" (Some []) (Hs.minimum ~weights:[| 1; 2 |] []);
  Alcotest.(check (option (list int))) "empty clause" None (Hs.minimum ~weights:[| 1 |] [ [] ]);
  Alcotest.(check (option (list int)))
    "single clause takes cheapest" (Some [ 1 ])
    (Hs.minimum ~weights:[| 5; 1; 3 |] [ [ 0; 1; 2 ] ])

let test_weighted_tradeoff () =
  (* Clauses {0,1} and {0,2}: element 0 hits both at cost 10; 1+2 costs 4. *)
  let weights = [| 10; 2; 2 |] in
  match Hs.minimum ~weights [ [ 0; 1 ]; [ 0; 2 ] ] with
  | Some s -> Alcotest.(check (list int)) "split choice" [ 1; 2 ] (List.sort compare s)
  | None -> Alcotest.fail "feasible instance"

let test_hub_wins () =
  let weights = [| 3; 2; 2; 2 |] in
  match Hs.minimum ~weights [ [ 0; 1 ]; [ 0; 2 ]; [ 0; 3 ] ] with
  | Some s -> Alcotest.(check (list int)) "hub" [ 0 ] s
  | None -> Alcotest.fail "feasible instance"

let matches_brute_force =
  Test_util.qcheck ~count:300 "minimum cost matches exhaustive search"
    QCheck2.Gen.(pair (int_range 0 1_000_000) (pair (int_range 1 8) (int_range 1 8)))
    (fun (seed, (n, m)) ->
      let rand = Random.State.make [| seed |] in
      let weights = Array.init n (fun _ -> 1 + Random.State.int rand 9) in
      let clauses =
        List.init m (fun _ ->
            List.filter (fun _ -> Random.State.int rand 3 = 0) (List.init n Fun.id))
      in
      match (Hs.minimum ~weights clauses, brute_minimum ~weights clauses) with
      | None, None -> true
      | Some got, Some want ->
        cost weights got = cost weights want
        && List.for_all (fun cls -> List.exists (fun e -> List.mem e got) cls) clauses
      | _ -> false)

let greedy_is_feasible =
  Test_util.qcheck ~count:300 "greedy result hits every clause"
    QCheck2.Gen.(pair (int_range 0 1_000_000) (pair (int_range 1 8) (int_range 1 8)))
    (fun (seed, (n, m)) ->
      let rand = Random.State.make [| seed |] in
      let weights = Array.init n (fun _ -> 1 + Random.State.int rand 9) in
      let clauses =
        List.init m (fun _ ->
            List.filter (fun _ -> Random.State.int rand 3 = 0) (List.init n Fun.id))
      in
      match Hs.greedy ~weights clauses with
      | None -> List.exists (( = ) []) clauses
      | Some got -> List.for_all (fun cls -> List.exists (fun e -> List.mem e got) cls) clauses)

let () =
  Alcotest.run "hitting_set"
    [
      ( "unit",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "weighted tradeoff" `Quick test_weighted_tradeoff;
          Alcotest.test_case "hub wins" `Quick test_hub_wins;
        ] );
      ("property", [ matches_brute_force; greedy_is_feasible ]);
    ]
