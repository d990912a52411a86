(* Exact weighted minimum hitting set vs exhaustive enumeration, and the
   incremental engine vs the list-based one it replaced. *)

(* The list-based engine, kept verbatim as the reference: the incremental
   one must return the same sets, visit the same nodes and give up at the
   same node caps. *)
module Reference = struct
  let cost_of weights set = List.fold_left (fun acc e -> acc + weights.(e)) 0 set

  let hits set clause = List.exists (fun e -> List.mem e set) clause

  let greedy ~weights clauses =
    if List.exists (( = ) []) clauses then None
    else begin
      let chosen = ref [] in
      let uncovered = ref clauses in
      while !uncovered <> [] do
        (* Score: clauses newly covered per unit weight. *)
        let tally = Hashtbl.create 16 in
        List.iter
          (fun clause -> List.iter (fun e -> Hashtbl.replace tally e (1 + Option.value ~default:0 (Hashtbl.find_opt tally e))) clause)
          !uncovered;
        let best = ref (-1) and best_score = ref neg_infinity in
        Hashtbl.iter
          (fun e cnt ->
            let score = float_of_int cnt /. float_of_int (max 1 weights.(e)) in
            if score > !best_score || (score = !best_score && e < !best) then begin
              best := e;
              best_score := score
            end)
          tally;
        chosen := !best :: !chosen;
        uncovered := List.filter (fun c -> not (List.mem !best c)) !uncovered
      done;
      (* Drop redundant picks (cheapest-first retention). *)
      let pruned =
        List.fold_left
          (fun kept e ->
            let without = List.filter (( <> ) e) kept in
            if List.for_all (hits without) clauses then without else kept)
          (List.sort_uniq compare !chosen)
          (List.sort (fun a b -> compare weights.(b) weights.(a)) (List.sort_uniq compare !chosen))
      in
      Some pruned
    end

  exception Node_limit

  let tc_nodes = Telemetry.Counter.make "hs.nodes"

  let minimum ?(max_nodes = 200_000) ?nodes:spent ~weights clauses =
    match greedy ~weights clauses with
    | None -> None
    | Some ub_set ->
      let best_set = ref ub_set in
      let best_cost = ref (cost_of weights ub_set) in
      let nodes = ref 0 in
      (* Branch on the uncovered clause with the fewest elements; try its
         elements cheapest-first. *)
      let rec branch chosen cost remaining =
        if !nodes >= max_nodes then raise Node_limit;
        incr nodes;
        if cost < !best_cost then begin
          match remaining with
          | [] ->
            best_cost := cost;
            best_set := chosen
          | _ ->
            let clause =
              List.fold_left
                (fun acc c -> if List.length c < List.length acc then c else acc)
                (List.hd remaining) remaining
            in
            let sorted = List.sort (fun a b -> compare weights.(a) weights.(b)) clause in
            List.iter
              (fun e ->
                if not (List.mem e chosen) then begin
                  let cost' = cost + weights.(e) in
                  if cost' < !best_cost then
                    branch (e :: chosen) cost' (List.filter (fun c -> not (List.mem e c)) remaining)
                end)
              sorted
        end
      in
      let clauses = List.sort_uniq compare (List.map (List.sort_uniq compare) clauses) in
      (* Booked once per call, on the limit path too. *)
      Fun.protect
        ~finally:(fun () ->
          Telemetry.Counter.add tc_nodes !nodes;
          Option.iter (fun r -> r := !r + !nodes) spent)
        (fun () -> branch [] 0 clauses);
      Some (List.sort compare !best_set)
end


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
  Alcotest.(check (option (list int)))
    "no clauses" (Some [])
    (Hs.minimum (Hs.of_list ~weights:[| 1; 2 |] []));
  Alcotest.(check (option (list int)))
    "empty clause" None
    (Hs.minimum (Hs.of_list ~weights:[| 1 |] [ [] ]));
  Alcotest.(check (option (list int)))
    "single clause takes cheapest" (Some [ 1 ])
    (Hs.minimum (Hs.of_list ~weights:[| 5; 1; 3 |] [ [ 0; 1; 2 ] ]))

let test_weighted_tradeoff () =
  (* Clauses {0,1} and {0,2}: element 0 hits both at cost 10; 1+2 costs 4. *)
  let weights = [| 10; 2; 2 |] in
  match Hs.minimum (Hs.of_list ~weights [ [ 0; 1 ]; [ 0; 2 ] ]) with
  | Some s -> Alcotest.(check (list int)) "split choice" [ 1; 2 ] (List.sort compare s)
  | None -> Alcotest.fail "feasible instance"

let test_hub_wins () =
  let weights = [| 3; 2; 2; 2 |] in
  match Hs.minimum (Hs.of_list ~weights [ [ 0; 1 ]; [ 0; 2 ]; [ 0; 3 ] ]) with
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
      match (Hs.minimum (Hs.of_list ~weights clauses), brute_minimum ~weights clauses) with
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
      match Hs.greedy (Hs.of_list ~weights clauses) with
      | None -> List.exists (( = ) []) clauses
      | Some got -> List.for_all (fun cls -> List.exists (fun e -> List.mem e got) cls) clauses)

(* {2 Parity with the reference} *)

let shuffle rand l =
  List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits rand, x)) l))

(* A clause stream as the search loops produce them: element sets in any
   order, some clauses repeated, weights drawn from a few values so that
   ties are common. *)
let random_instance seed =
  let rand = Random.State.make [| seed |] in
  let n = 6 + Random.State.int rand 30 in
  let m = 1 + Random.State.int rand 40 in
  let weights = Array.init n (fun _ -> Random.State.int rand 4) in
  let clauses = ref [] in
  for _ = 1 to m do
    let clause =
      if !clauses <> [] && Random.State.int rand 4 = 0 then
        (* A repeat of an earlier clause, reordered. *)
        shuffle rand (List.nth !clauses (Random.State.int rand (List.length !clauses)))
      else
        let len = 1 + Random.State.int rand 6 in
        List.sort_uniq compare (List.init len (fun _ -> Random.State.int rand n))
        |> shuffle rand
    in
    clauses := !clauses @ [ clause ]
  done;
  (weights, !clauses)

type run = Found of int list option | Gave_up

let run_minimum f =
  let nodes = ref 0 in
  let r = try Found (f nodes) with Hs.Node_limit | Reference.Node_limit -> Gave_up in
  (r, !nodes)

let same_as_reference ~max_nodes ~weights prefix t =
  let got = run_minimum (fun nodes -> Hs.minimum ~max_nodes ~nodes t) in
  let want = run_minimum (fun nodes -> Reference.minimum ~max_nodes ~nodes ~weights prefix) in
  got = want

(* Clauses added one at a time, the engine asked after each addition as
   [Sat_prune] and [Discover] ask it: every answer, node count and
   [Node_limit] matches the list-based search on the same prefix. *)
let test_parity () =
  for seed = 0 to 299 do
    let weights, clauses = random_instance seed in
    let t = Hs.create ~weights in
    List.iteri
      (fun i clause ->
        Hs.add t clause;
        let prefix = List.filteri (fun j _ -> j <= i) clauses in
        let ctx = Printf.sprintf "seed %d, %d clauses" seed (i + 1) in
        Alcotest.(check (option (list int)))
          (ctx ^ ": greedy") (Reference.greedy ~weights prefix) (Hs.greedy t);
        List.iter
          (fun max_nodes ->
            if not (same_as_reference ~max_nodes ~weights prefix t) then
              Alcotest.failf "%s: minimum differs at max_nodes %d" ctx max_nodes)
          [ 0; 1; 3; 10; 40; 100; 200_000 ])
      clauses
  done

let test_empty_clause_parity () =
  let weights = [| 2; 1; 1 |] in
  let clauses = [ [ 2; 0 ]; []; [ 1 ] ] in
  let t = Hs.of_list ~weights clauses in
  Alcotest.(check bool) "greedy" true (Hs.greedy t = Reference.greedy ~weights clauses);
  Alcotest.(check bool) "minimum" true (same_as_reference ~max_nodes:0 ~weights clauses t)

let () =
  Alcotest.run "hitting_set"
    [
      ( "unit",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "weighted tradeoff" `Quick test_weighted_tradeoff;
          Alcotest.test_case "hub wins" `Quick test_hub_wins;
          Alcotest.test_case "same answers and nodes as the list engine" `Quick test_parity;
          Alcotest.test_case "empty clause as the list engine" `Quick test_empty_clause_parity;
        ] );
      ("property", [ matches_brute_force; greedy_is_feasible ]);
    ]
