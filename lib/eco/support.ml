type selection = { indices : int list; cost : int; sat_calls : int }

let tc_selections = Telemetry.Counter.make "support.selections"
let tc_sat_calls = Telemetry.Counter.make "support.sat_calls"

let count_selection = function
  | Some sel as s ->
    Telemetry.Counter.incr tc_selections;
    Telemetry.Counter.add tc_sat_calls sel.sat_calls;
    s
  | None -> None

let cost_of tc indices =
  List.fold_left (fun acc i -> acc + (Two_copy.divisor tc i).Miter.div_cost) 0 indices

let index_of_selector = Two_copy.index_of_selector

let all_selectors tc = List.init (Two_copy.n_divisors tc) (Two_copy.selector tc)

let baseline ?budget tc =
  count_selection
  @@
  let calls0 = Two_copy.solver_calls tc in
  match Two_copy.solve_with ?budget tc (all_selectors tc) with
  | Sat.Solver.Sat ->
    Two_copy.certify_model tc "support.model";
    None
  | Sat.Solver.Unknown -> raise Min_assume.Budget_exhausted
  | Sat.Solver.Unsat ->
    let core = Two_copy.final_conflict tc in
    let indices = List.sort compare (List.filter_map (index_of_selector tc) core) in
    Two_copy.certify_core tc "support.baseline" (List.map (Two_copy.selector tc) indices);
    Some { indices; cost = cost_of tc indices; sat_calls = Two_copy.solver_calls tc - calls0 }

(* One pass of greedy improvement: try to replace each selected divisor
   (most expensive first) with one of the 16 nearest strictly cheaper
   unselected ones. *)
let last_gasp_swap ?budget tc indices =
  let chosen = ref (List.sort_uniq compare indices) in
  let by_cost_desc =
    List.sort (fun a b -> compare (Two_copy.divisor tc b).Miter.div_cost (Two_copy.divisor tc a).Miter.div_cost) !chosen
  in
  List.iter
    (fun i ->
      let cost_i = (Two_copy.divisor tc i).Miter.div_cost in
      let others = List.filter (( <> ) i) !chosen in
      (* Candidate replacements: unselected and strictly cheaper, tried in
         descending cost — a near-cost divisor is the most likely to be a
         functional substitute while still improving the total. *)
      let candidates = ref [] in
      (let j = ref (min (i - 1) (Two_copy.n_divisors tc - 1)) in
       while !j >= 0 && List.length !candidates < 16 do
         let cost_j = (Two_copy.divisor tc !j).Miter.div_cost in
         if cost_j < cost_i && not (List.mem !j !chosen) then candidates := !j :: !candidates;
         decr j
       done);
      let candidates = List.rev !candidates in
      let rec try_swap = function
        | [] -> ()
        | j :: rest ->
          let trial = j :: others in
          if Two_copy.unsat_with ?budget tc (List.map (Two_copy.selector tc) trial) then
            chosen := List.sort compare trial
          else try_swap rest
      in
      try_swap candidates)
    by_cost_desc;
  !chosen

let with_min_assume ?budget ?(last_gasp = true) tc =
  count_selection
  @@
  let calls0 = Two_copy.solver_calls tc in
  match Two_copy.solve_with ?budget tc (all_selectors tc) with
  | Sat.Solver.Sat ->
    Two_copy.certify_model tc "support.model";
    None
  | Sat.Solver.Unknown -> raise Min_assume.Budget_exhausted
  | Sat.Solver.Unsat ->
    (* Minimizing inside the final-conflict core keeps every oracle call
       small; the cost-sorted order and the last-gasp sweep below recover
       the cost preference over the full divisor set. *)
    let pool =
      let core = Two_copy.final_conflict tc in
      let indexed = List.filter_map (index_of_selector tc) core in
      List.map (Two_copy.selector tc) (List.sort compare indexed)
    in
    let minimal =
      Min_assume.minimize
        ~unsat:(fun lits -> Two_copy.unsat_with ?budget tc lits)
        ~base:[] pool
    in
    let indices = List.sort compare (List.filter_map (index_of_selector tc) minimal) in
    let indices = if last_gasp then last_gasp_swap ?budget tc indices else indices in
    Two_copy.certify_core tc "support.min_assume" (List.map (Two_copy.selector tc) indices);
    Some { indices; cost = cost_of tc indices; sat_calls = Two_copy.solver_calls tc - calls0 }
