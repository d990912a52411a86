type config = { max_iterations : int; deadline : float }

let default_config = { max_iterations = 400; deadline = 120.0 }

(* 64-pattern simulation rounds for anchoring. *)
let sim_rounds = 8

(* Conflicts per anchoring query and per rectifiability check. *)
let anchor_budget = 20_000
let check_budget = 40_000

(* Branch-and-bound nodes per hitting-set proposal, then greedy. *)
let hs_max_nodes = 200_000

type result = {
  targets : string list;
  cost : int;
  anchored : string list;
  mismatched : string list;
  candidates : int;
  iterations : int;
  checks : int;
  minimum : bool;
  time : float;
}

let tc_runs = Telemetry.Counter.make "diff.runs"
let tc_anchored = Telemetry.Counter.make "diff.outputs_anchored"
let tc_mismatched = Telemetry.Counter.make "diff.outputs_mismatched"
let tc_anchor_queries = Telemetry.Counter.make "diff.anchor_queries"
let tc_candidates = Telemetry.Counter.make "diff.candidates"
let tc_iterations = Telemetry.Counter.make "diff.iterations"
let tc_checks = Telemetry.Counter.make "diff.checks"
let tc_refinements = Telemetry.Counter.make "diff.refinements"
let tc_fallbacks = Telemetry.Counter.make "diff.fallbacks"
let tc_targets = Telemetry.Counter.make "diff.discovered_targets"
let tc_signals_anchored = Telemetry.Counter.make "diff.signals_anchored"

(* {2 Anchoring} *)

(* Bit-parallel random simulation over the shared PIs: one word array per
   round, valid for every literal in the shared manager.  The fixed seed
   keeps discovery deterministic. *)
let simulate_rounds mgr =
  let n_in = Aig.num_inputs mgr in
  let rand = Random.State.make [| 0x5EED; n_in |] in
  List.init sim_rounds (fun _ ->
      Aig.simulate mgr (Array.init n_in (fun _ -> Random.State.int64 rand Int64.max_int)))

let sim_equal sims l1 l2 =
  List.for_all (fun values -> Aig.lit_value values l1 = Aig.lit_value values l2) sims

(* Per-output equivalence anchors, FRAIG-style: simulation separates the
   obviously-different output pairs; sim-equal pairs are confirmed by a
   SAT query on their XOR.  [Undecided] survivors count as mismatched —
   the conservative side, since a falsely-mismatched output only
   enlarges the search. *)
let anchor_outputs mgr ~sims ~impl_lit ~spec_lit outputs =
  List.partition
    (fun o ->
      sim_equal sims (impl_lit o) (spec_lit o)
      &&
      let x = Aig.xor_ mgr (impl_lit o) (spec_lit o) in
      Telemetry.Counter.incr tc_anchor_queries;
      match Cec.check_lit ~budget:anchor_budget mgr x with
      | Cec.Equivalent -> true
      | Cec.Counterexample _ | Cec.Undecided -> false)
    outputs

(* Internal-signal anchoring, the differencing step proper: an
   implementation signal whose function also occurs somewhere in the
   specification is presumed untouched by the change and excluded from
   the candidate pool.  Structural sharing catches identical cones for
   free (both netlists convert into one manager, so equal subcircuits
   strash to the same node); the rest goes through a simulation-
   signature table, with sim matches confirmed by a SAT query. *)
let signal_anchor mgr ~sims ~spec_lits =
  let spec_nodes = Hashtbl.create 256 in
  let spec_sigs = Hashtbl.create 256 in
  let signature l = List.map (fun values -> Aig.lit_value values l) sims in
  List.iter
    (fun l ->
      Hashtbl.replace spec_nodes (Aig.node_of l) ();
      if not (Hashtbl.mem spec_sigs (signature l)) then Hashtbl.replace spec_sigs (signature l) l;
      let nl = Aig.not_ l in
      if not (Hashtbl.mem spec_sigs (signature nl)) then
        Hashtbl.replace spec_sigs (signature nl) nl)
    spec_lits;
  fun impl_l ->
    Hashtbl.mem spec_nodes (Aig.node_of impl_l)
    ||
    match Hashtbl.find_opt spec_sigs (signature impl_l) with
    | None -> false
    | Some spec_l -> (
      Telemetry.Counter.incr tc_anchor_queries;
      match Cec.check_lit ~budget:anchor_budget mgr (Aig.xor_ mgr impl_l spec_l) with
      | Cec.Equivalent -> true
      | Cec.Counterexample _ | Cec.Undecided -> false)

(* {2 The search} *)

let run ?(config = default_config) ?(check_budget = check_budget) ~impl ~spec ~weights () =
  Telemetry.with_phase "discover" @@ fun () ->
  Telemetry.Counter.incr tc_runs;
  let t0 = Unix.gettimeofday () in
  let sorted l = List.sort compare l in
  if sorted (Netlist.inputs impl) <> sorted (Netlist.inputs spec) then
    failwith "Discover.run: implementation and specification input sets differ";
  if sorted (Netlist.outputs impl) <> sorted (Netlist.outputs spec) then
    failwith "Discover.run: implementation and specification output sets differ";
  let deadline = Deadline.after config.deadline in
  (* One manager, shared PI literals: the implementation converts first,
     the specification reuses its input literals by name. *)
  let conv_impl = Netlist.Convert.to_aig impl in
  let mgr = conv_impl.Netlist.Convert.mgr in
  let conv_spec =
    Netlist.Convert.to_aig ~mgr ~pi_map:conv_impl.Netlist.Convert.lit_of_name spec
  in
  let impl_lit o = Hashtbl.find conv_impl.Netlist.Convert.lit_of_name o in
  let spec_lit o = Hashtbl.find conv_spec.Netlist.Convert.lit_of_name o in
  let sims = simulate_rounds mgr in
  let anchored, mismatched =
    anchor_outputs mgr ~sims ~impl_lit ~spec_lit (Netlist.outputs impl)
  in
  Telemetry.Counter.add tc_anchored (List.length anchored);
  Telemetry.Counter.add tc_mismatched (List.length mismatched);
  if mismatched = [] then
    {
      targets = [];
      cost = 0;
      anchored;
      mismatched;
      candidates = 0;
      iterations = 0;
      checks = 0;
      minimum = true;
      time = Unix.gettimeofday () -. t0;
    }
  else begin
    (* Candidate cut points: internal implementation signals feeding a
       mismatched output, in topological order.  Signals outside every
       mismatched cone cannot change a mismatched output and would only
       dilute the hitting sets; signals anchored to a specification
       function are presumed untouched and pruned too, keeping the pool
       to the changed region plus its immediate fanin boundary (a cut
       just below a changed gate can still be the cheapest repair). *)
    let mis_tfi = Netlist.tfi impl mismatched in
    let internal name =
      Hashtbl.mem mis_tfi name
      &&
      match (Netlist.node impl name).Netlist.gate with
      | Netlist.Input | Netlist.Const0 | Netlist.Const1 -> false
      | _ -> true
    in
    let anchored_signal =
      let spec_lits =
        List.filter_map
          (fun { Netlist.name; gate; _ } ->
            match gate with
            | Netlist.Input | Netlist.Const0 | Netlist.Const1 -> None
            | _ -> Some (spec_lit name))
          (Netlist.nodes spec)
      in
      signal_anchor mgr ~sims ~spec_lits
    in
    let internal_signals = List.filter internal (Netlist.topological_order impl) in
    let changed =
      List.filter (fun name -> not (anchored_signal (impl_lit name))) internal_signals
    in
    Telemetry.Counter.add tc_signals_anchored
      (List.length internal_signals - List.length changed);
    let pool = Hashtbl.create 64 in
    List.iter
      (fun name ->
        Hashtbl.replace pool name ();
        Array.iter
          (fun f -> if internal f then Hashtbl.replace pool f ())
          (Netlist.node impl name).Netlist.fanins)
      changed;
    (* The driver of a mismatched output always stays eligible, even when
       its function happens to alias some other specification signal. *)
    List.iter (fun o -> if internal o then Hashtbl.replace pool o ()) mismatched;
    let candidates =
      List.filter (fun name -> Hashtbl.mem pool name) (Netlist.topological_order impl)
    in
    Telemetry.Counter.add tc_candidates (List.length candidates);
    let cand = Array.of_list candidates in
    let n_cand = Array.length cand in
    let index_of = Hashtbl.create n_cand in
    Array.iteri (fun i name -> Hashtbl.replace index_of name i) cand;
    let hs_weights = Array.map (Netlist.Weights.cost weights) cand in
    (* Every rectifiability check of the search — expression (1) with a
       proposed cut in the role of the target inputs — goes to one
       incremental oracle. *)
    let oracle = Rectify.create mgr ~impl ~impl_lit ~spec_lit ~mismatched ~candidates:cand in
    (* Candidates inside one output's cone, as hitting-set element
       indices. *)
    let cone_members =
      List.map
        (fun o ->
          let tfi = Netlist.tfi impl [ o ] in
          let members =
            List.filter (fun name -> Hashtbl.mem tfi name) (Array.to_list cand)
            |> List.map (Hashtbl.find index_of)
          in
          if members = [] then
            failwith
              (Printf.sprintf
                 "Discover.run: output %s mismatches but is driven directly by a primary input"
                 o);
          (o, members))
        mismatched
    in
    (* A sufficient set must cut inside every mismatched cone: these
       initial clauses are sound, and every refinement below preserves
       soundness (an insufficiency witness for S on cone(o) also defeats
       any T with T ∩ TFI(o) ⊆ S, because the values T's patch induces on
       S's freed signals reproduce the same mismatch). *)
    let clauses = Hitting_set.of_list ~weights:hs_weights (List.map snd cone_members) in
    let iterations = ref 0 in
    let checks = ref 0 in
    let minimum = ref true in
    let found = ref None in
    let all_indices = List.init n_cand Fun.id in
    (* An expired deadline short-circuits a check to [`Unknown], so a
       slow iteration cannot overrun the overall budget by more than
       one check. *)
    let check ask =
      if Deadline.expired deadline then `Unknown
      else begin
        incr checks;
        Telemetry.Counter.incr tc_checks;
        ask ()
      end
    in
    while !found = None do
      incr iterations;
      Telemetry.Counter.incr tc_iterations;
      let give_up = !iterations > config.max_iterations || Deadline.expired deadline in
      let s_indices =
        if give_up then begin
          (* Safety valve: stop refining and take the greedy hitting set
             of the sound clauses gathered so far — a small proposal the
             engine can still afford to re-check, unlike the full
             candidate pool.  Accepted unverified below. *)
          Telemetry.Counter.incr tc_fallbacks;
          minimum := false;
          match Hitting_set.greedy clauses with
          | Some s -> s
          | None -> all_indices
        end
        else
          match Hitting_set.minimum ~max_nodes:hs_max_nodes clauses with
          | Some s -> s
          | None -> failwith "Discover.run: refinement produced an empty clause"
          | exception Hitting_set.Node_limit -> (
            minimum := false;
            match Hitting_set.greedy clauses with
            | Some s -> s
            | None -> failwith "Discover.run: refinement produced an empty clause")
      in
      let in_s = Array.make n_cand false in
      List.iter (fun i -> in_s.(i) <- true) s_indices;
      let s_names = List.filter (fun n -> in_s.(Hashtbl.find index_of n)) candidates in
      (* Per-cone checks first: their failures yield precise refinement
         clauses (the cone's candidates outside S). *)
      let refinements = ref [] in
      if not give_up then
        List.iter
          (fun (o, members) ->
            match check (fun () -> Rectify.cone oracle ~budget:check_budget o in_s) with
            | `Yes -> ()
            | (`No | `Unknown) as verdict -> (
              (* An [`Unknown] clause is a heuristic, not a certificate:
                 keep it for progress but drop the optimality claim. *)
              if verdict = `Unknown then minimum := false;
              match List.filter (fun i -> not in_s.(i)) members with
              | [] ->
                (* Even the fully-freed cone came back unknown: a budget
                   artefact, not an insufficiency — skip the clause. *)
                minimum := false
              | cl -> refinements := cl :: !refinements))
          cone_members;
      if !refinements <> [] then begin
        Telemetry.Counter.add tc_refinements (List.length !refinements);
        List.iter (Hitting_set.add clauses) !refinements
      end
      else begin
        (* Joint check: all mismatched outputs plus any anchored output
           the freed signals reach must agree simultaneously. *)
        match check (fun () -> Rectify.joint oracle ~budget:check_budget in_s) with
        | `Yes -> found := Some s_names
        | (`No | `Unknown) when give_up ->
          (* Out of budget: return the safety-valve set anyway — the
             engine re-establishes feasibility before trusting it. *)
          found := Some s_names
        | `No | `Unknown -> (
          minimum := false;
          (* Sound but coarse: some candidate outside S must join it.
             Skips past optima that extend S with non-candidates only;
             acceptable, and flagged by [minimum = false]. *)
          match List.filter (fun i -> not in_s.(i)) all_indices with
          | [] -> found := Some s_names
          | cl ->
            Telemetry.Counter.incr tc_refinements;
            Hitting_set.add clauses cl)
      end
    done;
    let targets = Option.get !found in
    Telemetry.Counter.add tc_targets (List.length targets);
    {
      targets;
      cost = Netlist.Weights.total weights targets;
      anchored;
      mismatched;
      candidates = n_cand;
      iterations = !iterations;
      checks = !checks;
      minimum = !minimum;
      time = Unix.gettimeofday () -. t0;
    }
  end
