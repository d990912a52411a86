type outcome = { selection : Support.selection option; iterations : int }

(* Refinement rounds per target. *)
let max_iterations = 150

let minimum_support ?budget ?(max_nodes = max_int) ?incumbent tc =
  let n = Two_copy.n_divisors tc in
  let weights = Array.init n (fun i -> (Two_copy.divisor tc i).Miter.div_cost) in
  let calls0 = Two_copy.solver_calls tc in
  let clauses = Diff.Hitting_set.create ~weights in
  let iterations = ref 0 in
  let nodes = ref 0 in
  let result = ref None in
  while !result = None do
    incr iterations;
    if !iterations > max_iterations then raise Min_assume.Budget_exhausted;
    match
      try Diff.Hitting_set.minimum ~max_nodes:(max_nodes - !nodes) ~nodes clauses
      with Diff.Hitting_set.Node_limit -> raise Min_assume.Budget_exhausted
    with
    | None ->
      (* An empty refinement clause was recorded: no divisor subset can
         work — the ECO step is infeasible. *)
      result := Some None
    | Some candidate -> (
      (* The hitting-set cost lower-bounds every feasible support, so an
         incumbent (e.g. the minimize_assumptions result) matching it is
         already optimal — the "cannot be smaller than the current
         minimum" pruning of §3.4.2. *)
      let lb = Support.cost_of tc candidate in
      match incumbent with
      | Some (inc : Support.selection) when inc.Support.cost <= lb ->
        result :=
          Some (Some { inc with Support.sat_calls = Two_copy.solver_calls tc - calls0 })
      | _ ->
        let assumptions = List.map (Two_copy.selector tc) candidate in
        if Two_copy.unsat_with ?budget tc assumptions then begin
          (* Feasible and cost-minimal (hitting-set duality). *)
          Two_copy.certify_core tc "sat_prune.core" assumptions;
          result :=
            Some
              (Some
                 {
                   Support.indices = List.sort compare candidate;
                   cost = Support.cost_of tc candidate;
                   sat_calls = Two_copy.solver_calls tc - calls0;
                 })
        end
        else Diff.Hitting_set.add clauses (Two_copy.model_divisor_mismatch tc))
  done;
  match !result with
  | Some sel -> { selection = sel; iterations = !iterations }
  | None -> assert false
