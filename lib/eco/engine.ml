type method_ = Baseline | Min_assume | Exact

type config = {
  method_ : method_;
  force_structural : bool;
  verify : bool;
  certify : bool; (* independently certify final SAT/UNSAT verdicts *)
}

let config_of_method m = { method_ = m; force_structural = false; verify = true; certify = false }
let default_config = config_of_method Min_assume

(* Counted stand-ins for the paper's timeouts: conflicts per SAT call,
   prime cubes per target (the largest completed enumeration in Table 1
   takes 171) and hitting-set nodes per exact target.  The structural
   path's cofactor-tree patches rarely verify by CEC; they get a quarter
   of the verification budget. *)
let sat_budget = 60_000
let feasibility_budget = 80_000
let max_cubes = 400
let sat_prune_nodes = 40_000
let verify_budget config = if config.force_structural then 10_000 else 40_000

type status = Solved | Infeasible | Failed of string

type outcome = {
  status : status;
  patches : Patch.t list;
  cost : int;
  gates : int;
  depth : int;
  time : float;
  verified : bool option;
  used_structural : bool;
  sat_calls : int;
  notes : (string * int) list;
}

(* Total weight of the distinct support signals used across all patches.
   Two patches can carry different costs for the same signal (e.g. one
   from divisor pricing, one from a CEGAR_min improvement); the conflict
   is resolved by the netlist-declared weight when available and by the
   minimum carried cost otherwise — never by patch-list order. *)
let union_cost ?weights patches =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun p ->
      List.iter
        (fun (name, c) ->
          let c =
            match weights with
            | Some w -> Netlist.Weights.cost w name
            | None -> (
              match Hashtbl.find_opt tbl name with Some c0 -> min c0 c | None -> c)
          in
          Hashtbl.replace tbl name c)
        p.Patch.support)
    patches;
  Hashtbl.fold (fun _ c acc -> acc + c) tbl 0

let total_gates patches = List.fold_left (fun acc p -> acc + p.Patch.gates) 0 patches
let max_depth patches = List.fold_left (fun acc p -> max acc p.Patch.depth) 0 patches

type feasibility =
  | Feasible of bool array list option  (* 2QBF certificate when available *)
  | Not_feasible
  | Feasibility_unknown

let tc_runs = Telemetry.Counter.make "eco.runs"
let tc_solved = Telemetry.Counter.make "eco.solved"
let tc_infeasible = Telemetry.Counter.make "eco.infeasible"
let tc_failed = Telemetry.Counter.make "eco.failed"
let tc_targets = Telemetry.Counter.make "eco.targets_patched"
let tc_structural = Telemetry.Counter.make "eco.structural_patches"
let tc_cubes = Telemetry.Counter.make "eco.cubes_enumerated"
let tc_sat_calls = Telemetry.Counter.make "eco.sat_calls"
let tc_discarded = Telemetry.Counter.make "eco.discarded_targets"

let check_feasibility config (miter : Miter.t) notes =
  Telemetry.with_phase "feasibility" @@ fun () ->
  let targets = Miter.remaining_targets miter in
  if config.method_ = Exact || List.length targets > 10 then begin
    let answer, stats =
      Qbf.Qbf2.solve miter.Miter.mgr ~phi:miter.Miter.miter_lit
        ~exists_inputs:(Miter.x_lits miter)
        ~forall_inputs:(List.map snd targets)
        ~budget:feasibility_budget
    in
    notes := ("qbf_iterations", stats.Qbf.Qbf2.iterations) :: !notes;
    match answer with
    | Qbf.Qbf2.Sat _ -> Not_feasible
    | Qbf.Qbf2.Unsat cert -> Feasible (Some cert)
    | Qbf.Qbf2.Unknown -> Feasibility_unknown
  end
  else begin
    let quantified = Miter.quantify_all miter in
    (* The QBF branch above has no certification path (no clause-level
       proof object); the CEC branch certifies when asked. *)
    match
      Cec.check_lit ~budget:feasibility_budget ~certify:config.certify miter.Miter.mgr
        quantified
    with
    | Cec.Equivalent -> Feasible None
    | Cec.Counterexample _ -> Not_feasible
    | Cec.Undecided -> Feasibility_unknown
  end

exception Step_infeasible of string

(* One completed SAT-pipeline step.  Telemetry for it (eco.targets_patched,
   eco.cubes_enumerated, the per-target event) is deferred to
   [commit_steps] at outcome time: the run can still fail outright, and a
   discarded patch must not be counted as patched. *)
type step = {
  step_name : string;
  step_patch : Patch.t;
  step_support : int;
  step_cost : int;
  step_support_calls : int;
  step_cubes : int;
  step_patch_calls : int;
}

let commit_steps acc =
  let steps = List.rev acc in
  List.map
    (fun s ->
      Telemetry.Counter.incr tc_targets;
      Telemetry.Counter.add tc_cubes s.step_cubes;
      Telemetry.event "eco.target"
        ~fields:
          [
            ("target", Telemetry.Value.Str s.step_name);
            ("support", Telemetry.Value.Int s.step_support);
            ("cost", Telemetry.Value.Int s.step_cost);
            ("support_sat_calls", Telemetry.Value.Int s.step_support_calls);
            ("cubes", Telemetry.Value.Int s.step_cubes);
            ("patch_sat_calls", Telemetry.Value.Int s.step_patch_calls);
          ];
      s.step_patch)
    steps

let discard_steps acc = Telemetry.Counter.add tc_discarded (List.length acc)

(* SAT pipeline: targets one at a time (§3.1), each on a fresh two-copy
   instance; raises Min_assume.Budget_exhausted to trigger the structural
   fallback.  Completed steps accumulate in [acc] so a mid-flight timeout
   keeps the targets already substituted. *)
let sat_pipeline config (miter : Miter.t) notes sat_calls acc =
  List.iter
    (fun (name, _) ->
      let m_i = Miter.quantify_others miter ~keep:name in
      let tc = Two_copy.build ~certify:config.certify miter ~m_i ~target:name in
      let budget = sat_budget in
      let selection =
        (* The two-copy solver calls are charged whether or not the search
           finishes: an aborted support search is still solver effort. *)
        match
          Telemetry.with_phase "support" @@ fun () ->
          match config.method_ with
          | Baseline -> Support.baseline ~budget tc
          | Min_assume -> Support.with_min_assume ~budget tc
          | Exact -> (
            (* Warm start: the minimal (not minimum) support doubles as the
               incumbent upper bound for the exact search; if the exact loop
               exhausts its budget the incumbent stands (the paper's
               local-optimum behaviour on multi-target units). *)
            let incumbent = Support.with_min_assume ~budget tc in
            match
              Sat_prune.minimum_support ~budget ~max_nodes:sat_prune_nodes
                ?incumbent tc
            with
            | o ->
              notes := ("sat_prune_iterations", o.Sat_prune.iterations) :: !notes;
              o.Sat_prune.selection
            | exception Min_assume.Budget_exhausted when incumbent <> None ->
              notes := ("sat_prune_fallback", 1) :: !notes;
              incumbent)
        with
        | selection ->
          sat_calls := !sat_calls + Two_copy.solver_calls tc;
          selection
        | exception Min_assume.Budget_exhausted ->
          sat_calls := !sat_calls + Two_copy.solver_calls tc;
          raise Min_assume.Budget_exhausted
      in
      match selection with
      | None -> raise (Step_infeasible name)
      | Some sel ->
        let pf =
          match
            Telemetry.with_phase "patch_fun" @@ fun () ->
            Patch_fun.compute ~budget ~certify:config.certify ~max_cubes miter
              ~m_i ~target:name ~chosen:sel.Support.indices
          with
          | pf -> pf
          | exception Patch_fun.Exhausted partial ->
            (* The aborted enumeration's SAT calls must still reach the
               outcome and the eco.sat_calls counter (the structural
               fallback row would otherwise under-report effort). *)
            sat_calls := !sat_calls + partial.Patch_fun.partial_sat_calls;
            notes := ("aborted_cubes_" ^ name, partial.Patch_fun.partial_cubes) :: !notes;
            raise Min_assume.Budget_exhausted
        in
        sat_calls := !sat_calls + pf.Patch_fun.sat_calls;
        notes := ("cubes_" ^ name, pf.Patch_fun.cubes_enumerated) :: !notes;
        let support_lits =
          List.map (fun i -> miter.Miter.divisors.(i).Miter.div_lit) sel.Support.indices
        in
        let lit = Patch.import_into pf.Patch_fun.patch miter.Miter.mgr ~support_lits in
        Miter.substitute_patch miter ~target:name lit;
        acc :=
          {
            step_name = name;
            step_patch = pf.Patch_fun.patch;
            step_support = List.length sel.Support.indices;
            step_cost = sel.Support.cost;
            step_support_calls = sel.Support.sat_calls;
            step_cubes = pf.Patch_fun.cubes_enumerated;
            step_patch_calls = pf.Patch_fun.sat_calls;
          }
          :: !acc)
    (Miter.remaining_targets miter)

(* Structural fallback (§3.6) for every remaining target. *)
let structural_pipeline config (miter : Miter.t) window certificate notes =
  Telemetry.with_phase "structural" @@ fun () ->
  let remaining = Miter.remaining_targets miter in
  let k = List.length remaining in
  let patches =
    match remaining with
    | [] -> []
    | [ (name, _) ] ->
      notes := ("miter_copies", 1) :: !notes;
      [ Structural.single_target miter ~target:name ~window ]
    | _ ->
      let cert =
        match certificate with
        | Some c when c <> [] && Array.length (List.hd c) = k -> c
        | _ when k <= 5 ->
          (* Full enumeration is cheap for few targets; the 2QBF certificate
             only pays off when 2^k copies would hurt. *)
          Structural.full_certificate k
        | _ ->
          let answer, _ =
            Qbf.Qbf2.solve miter.Miter.mgr ~phi:miter.Miter.miter_lit
              ~exists_inputs:(Miter.x_lits miter)
              ~forall_inputs:(List.map snd remaining)
              ~budget:(feasibility_budget / 4)
          in
          (match answer with
          | Qbf.Qbf2.Unsat cert when cert <> [] -> cert
          | _ ->
            if k > 16 then failwith "structural: too many targets for full enumeration";
            Structural.full_certificate k)
      in
      notes := ("miter_copies", Structural.copies_used ~certificate:cert) :: !notes;
      Structural.multi_target miter ~certificate:cert ~window
  in
  (* CEGAR_min improvement (Exact only): patches are improved individually
     (signals chosen by earlier ones priced as free), and the whole batch
     is kept only if the union cost actually improves — individual wins
     can lose union-wise when they break support sharing. *)
  let patches =
    if config.method_ = Exact then begin
      let used = ref [] in
      let improved =
        List.map
          (fun p ->
            let p', st = Cegar_min.improve ~free:!used miter p in
            notes := ("cegar_min_confirmed", st.Cegar_min.confirmed) :: !notes;
            used := List.map fst p'.Patch.support @ !used;
            p')
          patches
      in
      let better =
        match compare (union_cost improved) (union_cost patches) with
        | c when c < 0 -> true
        | 0 -> total_gates improved < total_gates patches
        | _ -> false
      in
      if better then improved else patches
    end
    else patches
  in
  (* SAT sweeping after the support decisions: shrinks the reported gate
     counts without touching costs. *)
  let patches = List.map (fun p -> Patch.sweep p) patches in
  List.map
    (fun p ->
      Telemetry.Counter.incr tc_structural;
      let support_lits =
        List.map
          (fun (name, _) ->
            match List.assoc_opt name miter.Miter.x_inputs with
            | Some l -> l
            | None -> (
              match
                Array.find_opt (fun d -> d.Miter.div_name = name) miter.Miter.divisors
              with
              | Some d -> d.Miter.div_lit
              | None -> failwith ("structural: support signal not found: " ^ name)))
          p.Patch.support
      in
      let lit = Patch.import_into p miter.Miter.mgr ~support_lits in
      Miter.substitute_patch miter ~target:p.Patch.target lit;
      p)
    patches

let solve ?(config = default_config) ?window inst =
  Telemetry.with_phase "eco" @@ fun () ->
  Telemetry.Counter.incr tc_runs;
  let t0 = Unix.gettimeofday () in
  let notes = ref [] in
  let sat_calls = ref 0 in
  let acc = ref [] in
  let finish ?miter status patches used_structural =
    (* Verification ladder: the substituted miter — whose two sides share
       structure, making the UNSAT proof far easier than a from-scratch
       CEC — then Verify.check: random simulation and the full
       netlist-level CEC.  A miter counterexample short-circuits. *)
    let budget = verify_budget config in
    let miter_says () =
      match miter with
      | Some (m : Miter.t) when m.Miter.patched <> [] -> (
        match Cec.check_lit ~budget ~certify:config.certify m.Miter.mgr m.Miter.miter_lit with
        | Cec.Equivalent -> Some true
        | Cec.Counterexample _ -> Some false
        | Cec.Undecided -> None)
      | _ -> None
    in
    let verified =
      Telemetry.with_phase "verify" @@ fun () ->
      match (status, config.verify, patches) with
      | Solved, true, _ :: _ -> (
        match miter_says () with
        | Some false -> Some false
        | miter -> (
          (* Confirm on the whole netlist, which covers outputs outside
             the window; an undecided netlist CEC keeps the miter's
             answer. *)
          match Verify.check ~budget ~certify:config.certify inst patches with
          | Cec.Equivalent -> Some true
          | Cec.Counterexample _ -> Some false
          | Cec.Undecided -> miter))
      | _ -> None
    in
    Telemetry.Counter.add tc_sat_calls !sat_calls;
    (match status with
    | Solved -> Telemetry.Counter.incr tc_solved
    | Infeasible -> Telemetry.Counter.incr tc_infeasible
    | Failed _ -> Telemetry.Counter.incr tc_failed);
    Telemetry.event "eco.outcome"
      ~fields:
        [
          ( "status",
            Telemetry.Value.Str
              (match status with
              | Solved -> "solved"
              | Infeasible -> "infeasible"
              | Failed m -> "failed: " ^ m) );
          ("patches", Telemetry.Value.Int (List.length patches));
          ("cost", Telemetry.Value.Int (union_cost ~weights:inst.Instance.weights patches));
          ("gates", Telemetry.Value.Int (total_gates patches));
          ("depth", Telemetry.Value.Int (max_depth patches));
          ("sat_calls", Telemetry.Value.Int !sat_calls);
          ("structural", Telemetry.Value.Bool used_structural);
          ( "verified",
            Telemetry.Value.Str
              (match verified with Some true -> "yes" | Some false -> "no" | None -> "-") );
        ];
    {
      status;
      patches;
      cost = union_cost ~weights:inst.Instance.weights patches;
      gates = total_gates patches;
      depth = max_depth patches;
      time = Unix.gettimeofday () -. t0;
      verified;
      used_structural;
      sat_calls = !sat_calls;
      notes = List.rev !notes;
    }
  in
  try
    let window =
      match window with
      | Some w -> w
      | None -> Telemetry.with_phase "window" (fun () -> Window.compute inst)
    in
    let miter = Telemetry.with_phase "miter" (fun () -> Miter.build inst window) in
    if config.force_structural then begin
      let patches = structural_pipeline config miter window None notes in
      finish ~miter Solved patches true
    end
    else begin
      match check_feasibility config miter notes with
      | Not_feasible -> finish Infeasible [] false
      | Feasibility_unknown ->
        (* §3.2: assume a solution exists and derive a structural patch. *)
        let patches = structural_pipeline config miter window None notes in
        finish ~miter Solved patches true
      | Feasible certificate -> (
        try
          sat_pipeline config miter notes sat_calls acc;
          finish ~miter Solved (commit_steps !acc) false
        with
        | Min_assume.Budget_exhausted ->
          (* SAT timed out mid-flight: already-substituted patches stay;
             the remaining targets get structural patches. *)
          let structural = structural_pipeline config miter window certificate notes in
          finish ~miter Solved (commit_steps !acc @ structural) true
        | Step_infeasible _ ->
          (* The unit is feasible (checked above) but the raising target
             admits no
             patch function over its own divisor set once the earlier
             targets are substituted — a property of the per-target
             decomposition, not of the unit.  Failing the whole run here
             discarded proven-feasible work; route it to the structural
             fallback like a timeout, keeping the finished patches. *)
          notes := ("step_infeasible", 1) :: !notes;
          let structural = structural_pipeline config miter window certificate notes in
          finish ~miter Solved (commit_steps !acc @ structural) true)
    end
  with
  | Step_infeasible t ->
    (* Only reachable without established feasibility (the Feasible branch
       handles its own); nothing proven is being thrown away. *)
    discard_steps !acc;
    finish (Failed ("target cannot rectify: " ^ t)) [] false
  | Failure msg ->
    discard_steps !acc;
    finish (Failed msg) [] false

let pp_outcome ppf o =
  let status =
    match o.status with
    | Solved -> "solved"
    | Infeasible -> "infeasible"
    | Failed m -> "failed: " ^ m
  in
  Format.fprintf ppf "%s cost=%d gates=%d depth=%d time=%.2fs structural=%b verified=%s" status
    o.cost o.gates o.depth o.time o.used_structural
    (match o.verified with Some true -> "yes" | Some false -> "NO" | None -> "-")

(* {2 Target discovery} *)

(* The diff front-end: ignores any targets the instance carries (they are
   oracle data in benchmarks, absent in a real flow) and proposes a cut
   set from the netlist pair alone.  The result is advisory — [solve] on
   [Instance.with_targets] re-establishes feasibility and verifies as
   usual, so an unsound proposal can lose quality but not correctness. *)
let discover_targets ?config (inst : Instance.t) =
  Diff.Discover.run ?config ~impl:inst.Instance.impl ~spec:inst.Instance.spec
    ~weights:inst.Instance.weights ()
