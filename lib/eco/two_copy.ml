(* A fresh solver per target, with the copy-output constraints m1/m2
   added as unit clauses. *)

type t = {
  solver : Sat.Solver.t;
  sel : Sat.Lit.t array;
  d1 : Sat.Lit.t array; (* divisor literal in copy 1 *)
  d2 : Sat.Lit.t array;
  divisors : Miter.divisor array;
  cert : Cert.log option; (* original clause set, when certifying *)
  sel_index : (int, int) Hashtbl.t; (* selector var -> divisor index *)
}

(* Encoding effort of the support search: fresh solver+CNF constructions
   and the variables and clauses they hold. *)
let tc_encodes = Telemetry.Counter.make "two_copy.solver_encodes"
let tc_vars = Telemetry.Counter.make "two_copy.vars_encoded"
let tc_clauses = Telemetry.Counter.make "two_copy.clauses_encoded"

(* One selector variable per divisor, with clauses a -> (d1 = d2). *)
let init_selectors solver env d1_lits d2_lits divisors =
  let n = Array.length divisors in
  let sel = Array.make n (Sat.Lit.make 0) in
  let d1 = Array.make n (Sat.Lit.make 0) in
  let d2 = Array.make n (Sat.Lit.make 0) in
  let sel_index = Hashtbl.create (2 * max 1 n) in
  for i = 0 to n - 1 do
    let l1 = Aig.Cnf.lit env d1_lits.(i) and l2 = Aig.Cnf.lit env d2_lits.(i) in
    let a = Sat.Lit.make (Sat.Solver.new_var solver) in
    (* a -> (d1 = d2) *)
    Sat.Solver.add_clause solver [ Sat.Lit.neg a; Sat.Lit.neg l1; l2 ];
    Sat.Solver.add_clause solver [ Sat.Lit.neg a; l1; Sat.Lit.neg l2 ];
    sel.(i) <- a;
    d1.(i) <- l1;
    d2.(i) <- l2;
    Hashtbl.replace sel_index (Sat.Lit.var a) i
  done;
  (sel, d1, d2, sel_index)

let build ?(certify = false) (miter : Miter.t) ~m_i ~target =
  let src = miter.Miter.mgr in
  let mgr2 = Aig.create () in
  let n_lit = Miter.target_lit miter target in
  let div_lits = Array.to_list (Array.map (fun d -> d.Miter.div_lit) miter.Miter.divisors) in
  let import_copy phase =
    let map = Aig.fresh_map src in
    List.iter (fun (_, l) -> map.(Aig.node_of l) <- Aig.add_input mgr2) miter.Miter.x_inputs;
    map.(Aig.node_of n_lit) <- (if phase then Aig.true_ else Aig.false_);
    (* Unpatched other targets must have been quantified out of m_i; their
       cones cannot appear among the divisors either (divisors avoid the
       targets' TFO), so no other input mapping is needed. *)
    match Aig.import mgr2 src ~map (m_i :: div_lits) with
    | m :: ds -> (m, Array.of_list ds)
    | [] -> assert false
  in
  let m1, d1_lits = import_copy false in
  let m2, d2_lits = import_copy true in
  let solver = Sat.Solver.create () in
  let cert = if certify then Some (Cert.attach solver) else None in
  let env = Aig.Cnf.create mgr2 solver in
  let m1_sat = Aig.Cnf.lit env m1 and m2_sat = Aig.Cnf.lit env m2 in
  Sat.Solver.add_clause solver [ m1_sat ];
  Sat.Solver.add_clause solver [ m2_sat ];
  let sel, d1, d2, sel_index = init_selectors solver env d1_lits d2_lits miter.Miter.divisors in
  Telemetry.Counter.incr tc_encodes;
  Telemetry.Counter.add tc_vars (Sat.Solver.nvars solver);
  Telemetry.Counter.add tc_clauses (Sat.Solver.nclauses solver);
  { solver; sel; d1; d2; divisors = miter.Miter.divisors; cert; sel_index }

let n_divisors t = Array.length t.sel
let selector t i = t.sel.(i)
let divisor t i = t.divisors.(i)

let index_of_selector t l =
  match Hashtbl.find_opt t.sel_index (Sat.Lit.var l) with
  | Some i when Sat.Lit.equal t.sel.(i) l -> Some i
  | _ -> None

let solve_with ?(budget = 0) t assumptions =
  if budget > 0 then Sat.Solver.set_budget t.solver budget else Sat.Solver.clear_budget t.solver;
  Sat.Solver.solve ~assumptions t.solver

let unsat_with ?budget t assumptions =
  match solve_with ?budget t assumptions with
  | Sat.Solver.Unsat -> true
  | Sat.Solver.Sat -> false
  | Sat.Solver.Unknown -> raise Min_assume.Budget_exhausted

let final_conflict t =
  List.filter (fun l -> index_of_selector t l <> None) (Sat.Solver.final_conflict t.solver)

let model_divisor_mismatch t =
  let acc = ref [] in
  for i = Array.length t.sel - 1 downto 0 do
    if Sat.Solver.value t.solver t.d1.(i) <> Sat.Solver.value t.solver t.d2.(i) then
      acc := i :: !acc
  done;
  !acc

(* Certification hooks: no-ops when built without [~certify] (the
   default), so call sites thread them unconditionally without changing
   behaviour. *)

let certify_core t site assumptions =
  Option.iter (fun log -> Cert.record site (Cert.certify_unsat log ~assumptions)) t.cert

let certify_model t site =
  Option.iter
    (fun log -> Cert.record site (Cert.certify_sat log ~value:(Sat.Solver.value t.solver)))
    t.cert

let solver_calls t = Sat.Solver.n_solve_calls t.solver
