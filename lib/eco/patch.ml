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
let tc_sweep_refuted = Telemetry.Counter.make "eco.sweep.refuted"
let tc_sweep_undecided = Telemetry.Counter.make "eco.sweep.undecided"
let tc_sweep_removed = Telemetry.Counter.make "eco.sweep.nodes_removed"

(* The default query cap binds only on unit19's ~1,900-gate patches in
   the Table 1 suite; every other sweep finishes below it. *)
let sweep ?(max_queries = 500) p =
  (* Adaptive effort: huge cofactor-tree patches get cheap, bounded
     queries and more simulation up front. *)
  let big = p.gates > 1000 in
  let swept, stats =
    Aig.Fraig.sweep
      ~budget:(if big then 100 else 2000)
      ~rounds:(if big then 16 else 8)
      ~max_passes:(if big then 2 else 4)
      ~max_queries p.circuit
  in
  Telemetry.Counter.incr tc_sweep_runs;
  Telemetry.Counter.add tc_sweep_classes stats.Aig.Fraig.sim_classes;
  Telemetry.Counter.add tc_sweep_proved stats.Aig.Fraig.proved;
  Telemetry.Counter.add tc_sweep_refuted stats.Aig.Fraig.refuted;
  Telemetry.Counter.add tc_sweep_undecided stats.Aig.Fraig.undecided;
  Telemetry.Counter.add tc_sweep_removed
    (max 0 (stats.Aig.Fraig.nodes_before - stats.Aig.Fraig.nodes_after));
  make ?sop:p.sop ~target:p.target ~support:p.support swept
