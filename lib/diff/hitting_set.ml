(* Distinct clauses are keyed by their sorted elements, compared by length
   and then lexicographically: iterating the map visits them shortest
   first and, within one length, in the [List.sort_uniq compare] order
   the search branches in. *)
module Key = struct
  type t = int array

  let compare a b =
    let n = Array.length a in
    if n <> Array.length b then compare n (Array.length b)
    else begin
      let i = ref 0 in
      while !i < n && a.(!i) = b.(!i) do
        incr i
      done;
      if !i = n then 0 else compare a.(!i) b.(!i)
    end
end

module Clauses = Map.Make (Key)

type clause = {
  id : int;
  cheapest_first : int array; (* the elements, stably sorted by weight *)
  mutable mult : int; (* how many times it was added *)
}

type t = {
  weights : int array;
  mutable clauses : clause Clauses.t;
  mutable n_clauses : int; (* distinct clauses; the next id *)
  occ : clause array array; (* element -> the distinct clauses holding it *)
  n_occ : int array; (* element -> used prefix of [occ] *)
  mutable empty : bool; (* an empty clause was added *)
}

let create ~weights =
  let n = Array.length weights in
  {
    weights;
    clauses = Clauses.empty;
    n_clauses = 0;
    occ = Array.make n [||];
    n_occ = Array.make n 0;
    empty = false;
  }

let push_occ t e c =
  let k = t.n_occ.(e) in
  if k = Array.length t.occ.(e) then begin
    let grown = Array.make (max 4 (2 * k)) c in
    Array.blit t.occ.(e) 0 grown 0 k;
    t.occ.(e) <- grown
  end;
  t.occ.(e).(k) <- c;
  t.n_occ.(e) <- k + 1

let add t clause =
  let elems = Array.of_list (List.sort_uniq compare clause) in
  if elems = [||] then t.empty <- true
  else
    match Clauses.find_opt elems t.clauses with
    | Some c -> c.mult <- c.mult + 1
    | None ->
      let cheapest_first = Array.copy elems in
      Array.stable_sort (fun a b -> compare t.weights.(a) t.weights.(b)) cheapest_first;
      let c = { id = t.n_clauses; cheapest_first; mult = 1 } in
      t.n_clauses <- t.n_clauses + 1;
      t.clauses <- Clauses.add elems c t.clauses;
      Array.iter (fun e -> push_occ t e c) elems

let of_list ~weights clauses =
  let t = create ~weights in
  List.iter (add t) clauses;
  t

(* Per-clause counters of chosen elements: [hit] marks [e] chosen,
   [unhit] takes it back; the result of [hit] is how many clauses it
   newly covered. *)
let hit t covers e =
  let occ = t.occ.(e) and fresh = ref 0 in
  for k = 0 to t.n_occ.(e) - 1 do
    let id = occ.(k).id in
    covers.(id) <- covers.(id) + 1;
    if covers.(id) = 1 then incr fresh
  done;
  !fresh

let unhit t covers e =
  let occ = t.occ.(e) in
  for k = 0 to t.n_occ.(e) - 1 do
    let id = occ.(k).id in
    covers.(id) <- covers.(id) - 1
  done

let all_covered_twice t covers e =
  let occ = t.occ.(e) and ok = ref true and k = ref 0 in
  while !ok && !k < t.n_occ.(e) do
    ok := covers.(occ.(!k).id) > 1;
    incr k
  done;
  !ok

let greedy t =
  if t.empty then None
  else begin
    let n = Array.length t.weights in
    let covers = Array.make t.n_clauses 0 in
    (* [count.(e)]: added clauses (with multiplicity) still uncovered that
       hold [e] — the greedy score's numerator. *)
    let count = Array.make n 0 in
    Clauses.iter
      (fun _ c -> Array.iter (fun e -> count.(e) <- count.(e) + c.mult) c.cheapest_first)
      t.clauses;
    let uncovered = ref t.n_clauses in
    let chosen = ref [] in
    while !uncovered > 0 do
      (* Score: clauses newly covered per unit weight; ties to the
         smallest element. *)
      let best = ref (-1) and best_score = ref neg_infinity in
      for e = 0 to n - 1 do
        if count.(e) > 0 then begin
          let score = float_of_int count.(e) /. float_of_int (max 1 t.weights.(e)) in
          if score > !best_score then begin
            best := e;
            best_score := score
          end
        end
      done;
      let e = !best in
      chosen := e :: !chosen;
      for k = 0 to t.n_occ.(e) - 1 do
        let c = t.occ.(e).(k) in
        if covers.(c.id) = 0 then begin
          decr uncovered;
          Array.iter (fun x -> count.(x) <- count.(x) - c.mult) c.cheapest_first
        end
      done;
      ignore (hit t covers e)
    done;
    (* Drop redundant picks, dearest first (ties: smallest element). *)
    let picks = List.sort_uniq compare !chosen in
    let dropped = Array.make n false in
    List.iter
      (fun e ->
        if all_covered_twice t covers e then begin
          unhit t covers e;
          dropped.(e) <- true
        end)
      (List.stable_sort (fun a b -> compare t.weights.(b) t.weights.(a)) picks);
    Some (List.filter (fun e -> not dropped.(e)) picks)
  end

exception Node_limit

let tc_nodes = Telemetry.Counter.make "hs.nodes"

let minimum ?(max_nodes = 200_000) ?nodes:spent t =
  match greedy t with
  | None -> None
  | Some ub_set ->
    let weights = t.weights in
    let best_set = ref ub_set in
    let best_cost = ref (List.fold_left (fun acc e -> acc + weights.(e)) 0 ub_set) in
    let nodes = ref 0 in
    (* Shortest first, then in [List.sort_uniq compare] order: the first
       uncovered clause here is the first shortest uncovered one. *)
    let order = Array.of_list (List.map snd (Clauses.bindings t.clauses)) in
    let covers = Array.make t.n_clauses 0 in
    let uncovered = ref t.n_clauses in
    let first_uncovered () =
      let i = ref 0 in
      while covers.(order.(!i).id) > 0 do
        incr i
      done;
      order.(!i)
    in
    (* Branch on the first shortest uncovered clause; try its elements
       cheapest-first. *)
    let rec branch chosen cost =
      if !nodes >= max_nodes then raise Node_limit;
      incr nodes;
      if cost < !best_cost then begin
        if !uncovered = 0 then begin
          best_cost := cost;
          best_set := chosen
        end
        else
          Array.iter
            (fun e ->
              let cost' = cost + weights.(e) in
              if cost' < !best_cost then begin
                (* [Node_limit] abandons the call, so no undo on it. *)
                let fresh = hit t covers e in
                uncovered := !uncovered - fresh;
                branch (e :: chosen) cost';
                unhit t covers e;
                uncovered := !uncovered + fresh
              end)
            (first_uncovered ()).cheapest_first
      end
    in
    (* Booked once per call, on the limit path too. *)
    Fun.protect
      ~finally:(fun () ->
        Telemetry.Counter.add tc_nodes !nodes;
        Option.iter (fun r -> r := !r + !nodes) spent)
      (fun () -> branch [] 0);
    Some (List.sort compare !best_set)
