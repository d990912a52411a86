type result = {
  patch : Patch.t;
  cubes_enumerated : int;
  sat_calls : int;
}

type partial = { partial_sat_calls : int; partial_cubes : int }

exception Exhausted of partial

let tc_runs = Telemetry.Counter.make "patch_fun.runs"
let tc_aborts = Telemetry.Counter.make "patch_fun.aborts"
let tc_cubes = Telemetry.Counter.make "patch_fun.cubes"
let tc_sat_calls = Telemetry.Counter.make "patch_fun.sat_calls"

(* Encoding effort of the enumeration solver. *)
let tc_encodes = Telemetry.Counter.make "patch_fun.solver_encodes"
let tc_vars = Telemetry.Counter.make "patch_fun.vars_encoded"
let tc_clauses = Telemetry.Counter.make "patch_fun.clauses_encoded"

(* Var-keyed index for prime-literal recovery, replacing the quadratic
   rescans of the divisor-literal array.  Two chosen divisors can share a
   CNF variable (complemented AIG literals of one node), so insertion is
   first-wins — the same index the old linear scan returned. *)
let index_table lits =
  let tbl = Hashtbl.create (2 * max 1 (Array.length lits)) in
  Array.iteri
    (fun i l ->
      let v = Sat.Lit.var l in
      if not (Hashtbl.mem tbl v) then Hashtbl.add tbl v i)
    lits;
  fun l ->
    match Hashtbl.find_opt tbl (Sat.Lit.var l) with
    | Some i -> i
    | None -> invalid_arg "Patch_fun: unknown literal"

let compute ?(budget = 0) ?(certify = false) ?(max_cubes = 50_000) (miter : Miter.t) ~m_i ~target
    ~chosen =
  let divisors = Array.of_list (List.map (fun i -> miter.Miter.divisors.(i)) chosen) in
  let support =
    Array.to_list (Array.map (fun d -> (d.Miter.div_name, d.Miter.div_cost)) divisors)
  in
  let k = Array.length divisors in
  let solver = Sat.Solver.create () in
  (* The tap also records the blocking clauses added during enumeration, so
     each certification checks the claim against the clause set the solver
     actually held at that point. *)
  let cert_log = if certify then Some (Cert.attach solver) else None in
  let cert_budget = if budget > 0 then 10 * budget else 0 in
  let env = Aig.Cnf.create miter.Miter.mgr solver in
  let m_sat = Aig.Cnf.lit env m_i in
  let n_sat = Aig.Cnf.lit env (Miter.target_lit miter target) in
  let d_sat = Array.map (fun (d : Miter.divisor) -> Aig.Cnf.lit env d.Miter.div_lit) divisors in
  Telemetry.Counter.incr tc_encodes;
  Telemetry.Counter.add tc_vars (Sat.Solver.nvars solver);
  Telemetry.Counter.add tc_clauses (Sat.Solver.nclauses solver);
  let index_of = index_table d_sat in
  (* The miter fires under n = 0 (onset) or under n = 1 (offset). *)
  let onset = [ m_sat; Sat.Lit.neg n_sat ] and offset = [ m_sat; n_sat ] in
  (* The literal "chosen divisor [i] has value [phase]". *)
  let div_lit i phase = Sat.Lit.apply_sign d_sat.(i) (not phase) in
  let unsat assumptions =
    if budget > 0 then Sat.Solver.set_budget solver budget;
    match Sat.Solver.solve ~assumptions solver with
    | Sat.Solver.Unsat -> true
    | Sat.Solver.Sat -> false
    | Sat.Solver.Unknown -> raise Min_assume.Budget_exhausted
  in
  let certify_unsat site assumptions =
    Option.iter
      (fun log -> Cert.record site (Cert.certify_unsat ~budget:cert_budget log ~assumptions))
      cert_log
  in
  let sat_calls () = Sat.Solver.n_solve_calls solver in
  let cubes = ref [] in
  let n_cubes = ref 0 in
  let tautology = ref false in
  let continue = ref true in
  (* Abort paths (conflict budget, cube cap) still represent real solver
     effort: record the partial counts in the telemetry counters and hand
     them to the caller, so structural-fallback rows report the SAT calls
     that were actually made. *)
  let give_up () =
    Telemetry.Counter.incr tc_aborts;
    Telemetry.Counter.add tc_cubes !n_cubes;
    Telemetry.Counter.add tc_sat_calls (sat_calls ());
    raise (Exhausted { partial_sat_calls = sat_calls (); partial_cubes = !n_cubes })
  in
  try
    while !continue do
      if !n_cubes > max_cubes then raise Min_assume.Budget_exhausted;
      if unsat onset then begin
        (* Terminating verdict: the onset is covered — certify it. *)
        certify_unsat "patch_fun.onset" onset;
        continue := false
      end
      else begin
        (* Divisor-space point of this onset witness. *)
        let point = Array.init k (fun i -> Sat.Solver.value solver d_sat.(i)) in
        let cand = List.init k (fun i -> div_lit i point.(i)) in
        (* The full cube must avoid the offset; otherwise the divisor set was
           not sufficient. *)
        if not (unsat (offset @ cand)) then
          failwith "Patch_fun.compute: divisor subset is not a valid support";
        (* Expand to a prime cube: minimal literal subset keeping the offset
           side unsatisfiable. *)
        let prime = Min_assume.minimize ~unsat ~base:offset cand in
        (* The accepted prime's UNSAT core (offset-freeness) is what makes the
           cube sound — certify it before committing the cube. *)
        certify_unsat "patch_fun.prime" (offset @ prime);
        incr n_cubes;
        if prime = [] then begin
          (* Empty cube: the offset is empty — the patch is constant 1. *)
          tautology := true;
          continue := false
        end
        else begin
          (* Recover (divisor index, phase): a kept literal is cand_i, whose
             phase in the cube is the model value of the divisor. *)
          let lits = List.map (fun l -> let i = index_of l in (i, point.(i))) prime in
          cubes := Twolevel.Cube.of_literals k lits :: !cubes;
          (* Block the cube on the onset side (it is offset-free, so blocking
             it globally removes no offset point). *)
          Sat.Solver.add_clause solver
            (List.map (fun (i, phase) -> Sat.Lit.neg (div_lit i phase)) lits)
        end
      end
    done;
    let sop =
      if !tautology then Twolevel.Sop.one k
      else Twolevel.Sop.scc_minimize (Twolevel.Sop.create k (List.rev !cubes))
    in
    let expr = Twolevel.Factor.factor sop in
    let patch = Patch.of_expr ~sop ~target ~support expr in
    Telemetry.Counter.incr tc_runs;
    Telemetry.Counter.add tc_cubes !n_cubes;
    Telemetry.Counter.add tc_sat_calls (sat_calls ());
    { patch; cubes_enumerated = !n_cubes; sat_calls = sat_calls () }
  with Min_assume.Budget_exhausted -> give_up ()
