type t = {
  target : string;
  support : (string * int) list;
  circuit : Aig.t;
  gates : int;
  depth : int;
  sop : Twolevel.Sop.t option;
}

let cost p = List.fold_left (fun acc (_, c) -> acc + c) 0 p.support

let make ?sop ~target ~support circuit =
  if Aig.num_outputs circuit <> 1 then invalid_arg "Patch.make: expected one output";
  if Aig.num_inputs circuit <> List.length support then
    invalid_arg "Patch.make: support/input arity mismatch";
  let out = Aig.output circuit 0 in
  let gates = Aig.count_cone_ands circuit [ out ] in
  let depth = Aig.lit_level circuit out in
  { target; support; circuit; gates; depth; sop }

let of_expr ?sop ~target ~support expr =
  let m = Aig.create () in
  let vars = Aig.add_inputs m (List.length support) in
  let out = Twolevel.Factor.expr_to_aig m vars expr in
  ignore (Aig.add_output m out);
  make ?sop ~target ~support m

let import_into p dst ~support_lits =
  if List.length support_lits <> List.length p.support then
    invalid_arg "Patch.import_into: support arity";
  let support_lits = Array.of_list support_lits in
  let map = Aig.fresh_map p.circuit in
  Array.iteri
    (fun i l -> map.(Aig.node_of l) <- support_lits.(i))
    (Aig.inputs p.circuit);
  match Aig.import dst p.circuit ~map [ Aig.output p.circuit 0 ] with
  | [ l ] -> l
  | _ -> assert false

let eval p bits = Aig.eval p.circuit bits (Aig.output p.circuit 0)

let pp ppf p =
  Format.fprintf ppf "patch(%s): support=[%s] cost=%d gates=%d depth=%d" p.target
    (String.concat "," (List.map fst p.support))
    (cost p) p.gates p.depth

let tc_sweep_runs = Telemetry.Counter.make "eco.sweep.runs"
let tc_sweep_classes = Telemetry.Counter.make "eco.sweep.sim_classes"
let tc_sweep_proved = Telemetry.Counter.make "eco.sweep.proved"
let tc_sweep_disproved = Telemetry.Counter.make "eco.sweep.disproved"
let tc_sweep_removed = Telemetry.Counter.make "eco.sweep.nodes_removed"

let sweep ?(deadline = Deadline.never) p =
  if Deadline.expired deadline then p
  else begin
    (* The sweep's own cap, clamped to what remains of the unit budget so
       a nearly-expired unit cannot overshoot inside the sweep. *)
    let seconds = Float.min 5.0 (Deadline.remaining deadline) in
    (* Adaptive effort: huge cofactor-tree patches get cheap, bounded
       queries and more simulation up front. *)
    let big = p.gates > 1000 in
    let swept, stats =
      Aig.Fraig.sweep
        ~budget:(if big then 100 else 2000)
        ~rounds:(if big then 16 else 8)
        ~max_passes:(if big then 2 else 4)
        ~deadline:seconds p.circuit
    in
    Telemetry.Counter.incr tc_sweep_runs;
    Telemetry.Counter.add tc_sweep_classes stats.Aig.Fraig.sim_classes;
    Telemetry.Counter.add tc_sweep_proved stats.Aig.Fraig.proved;
    Telemetry.Counter.add tc_sweep_disproved stats.Aig.Fraig.disproved;
    Telemetry.Counter.add tc_sweep_removed
      (max 0 (stats.Aig.Fraig.nodes_before - stats.Aig.Fraig.nodes_after));
    make ?sop:p.sop ~target:p.target ~support:p.support swept
  end

(* Conflict budget per synthesis SAT call. *)
let synth_budget = 5_000

let tc_synth_attempts = Telemetry.Counter.make "synth.patch.attempts"
let tc_synth_improved = Telemetry.Counter.make "synth.patch.improved"
let tc_synth_exact_wins = Telemetry.Counter.make "synth.patch.exact_wins"
let tc_synth_rewrite_wins = Telemetry.Counter.make "synth.patch.rewrite_wins"
let tc_synth_verify_rejects = Telemetry.Counter.make "synth.patch.verify_rejects"

(* Widest support we are willing to BDD-verify; beyond it no candidate is
   trusted, so none is committed (mirrors Patch_bdd's default cap). *)
let verify_max_vars = 24

(* BDD equivalence of the candidate circuit against the patch SOP when we
   have one (the certification anchor the cover was verified against),
   else against the old circuit.  Any failure — including an oversized
   support — rejects the candidate. *)
let verified_equal p candidate =
  let k = List.length p.support in
  if k > verify_max_vars then false
  else begin
    let man = Bdd.create (max 1 k) in
    let of_circuit m =
      Bdd.of_aig man m ~map:(fun ordinal -> Bdd.var man ordinal) (Aig.output m 0)
    in
    let reference =
      match p.sop with
      | Some sop ->
        List.fold_left
          (fun acc cube ->
            Bdd.or_ man acc
              (List.fold_left
                 (fun c (v, phase) ->
                   Bdd.and_ man c
                     (if phase then Bdd.var man v else Bdd.nvar man v))
                 Bdd.tru
                 (Twolevel.Cube.literals cube)))
          Bdd.fls (Twolevel.Sop.cubes sop)
      | None -> of_circuit p.circuit
    in
    Bdd.equal (of_circuit candidate) reference
  end

(* A candidate one-output manager, or [None] to keep the incumbent. *)
let exact_candidate ~deadline p =
  let k = List.length p.support in
  if k > 6 || p.gates <= 1 then None
  else begin
    let tt = Synth.Tt.of_aig p.circuit (Aig.output p.circuit 0) in
    match
      Synth.Exact.synthesize ~budget:synth_budget
        ~max_gates:(min 10 (p.gates - 1))
        ~depth_bound:p.depth ~deadline tt
    with
    | Some sol -> Some sol.Synth.Exact.aig
    | None -> None
  end

let improve ?(deadline = Deadline.never) p =
  if Deadline.expired deadline then p
  else begin
    (* Wall-clock cap per patch, mirroring [sweep]: exact synthesis spends
       most of its time proving the last gate counts infeasible, which is
       pure polish — bound it so one stubborn patch cannot stall the unit.
       A timeout just keeps the factored circuit (the Pareto guarantee is
       unconditional), so callers never see a worse patch, only a less
       improved one. *)
    let deadline = Deadline.after (Float.min 5.0 (Deadline.remaining deadline)) in
    Telemetry.Counter.incr tc_synth_attempts;
    let accept source candidate =
      let out = Aig.output candidate 0 in
      let gates = Aig.count_cone_ands candidate [ out ] in
      let depth = Aig.lit_level candidate out in
      (* Pareto only: never trade depth for gates at commit time — the
         weighted cost is a search heuristic, not an acceptance rule. *)
      if not (gates <= p.gates && depth <= p.depth && (gates < p.gates || depth < p.depth))
      then None
      else if not (verified_equal p candidate) then begin
        Telemetry.Counter.incr tc_synth_verify_rejects;
        None
      end
      else begin
        Telemetry.Counter.incr tc_synth_improved;
        Telemetry.Counter.incr source;
        Some (make ?sop:p.sop ~target:p.target ~support:p.support candidate)
      end
    in
    let exact_result =
      match exact_candidate ~deadline p with
      | Some c -> accept tc_synth_exact_wins c
      | None -> None
    in
    match exact_result with
    | Some p' -> p'
    | None -> (
      (* Exact synthesis found the optimum or nothing; rewriting can still
         help when it was out of scope (> 6 inputs) or timed out. *)
      let c = Synth.Rewrite.run ~budget:synth_budget ~deadline p.circuit in
      match accept tc_synth_rewrite_wins c with Some p' -> p' | None -> p)
  end
