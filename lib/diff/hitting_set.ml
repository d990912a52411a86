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
