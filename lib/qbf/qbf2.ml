type answer = Sat of bool array | Unsat of bool array list | Unknown

type stats = { iterations : int; synth_conflicts : int; verif_conflicts : int }

(* Substitute an assignment of the universal inputs into [phi] by a chain of
   in-manager cofactors; structural hashing keeps the blowup in check. *)
let cofactor_on mgr phi vars values =
  let l = ref phi in
  List.iteri
    (fun i v ->
      match Aig.cofactor mgr ~var:v values.(i) [ !l ] with
      | [ l' ] -> l := l'
      | _ -> assert false)
    vars;
  !l

let tc_solves = Telemetry.Counter.make "qbf.solves"
let tc_iterations = Telemetry.Counter.make "qbf.iterations"
let tc_cex = Telemetry.Counter.make "qbf.counterexamples"

(* CEGAR refinement rounds before the answer is [Unknown]. *)
let max_iterations = 10_000

let solve ?(budget = 0) mgr ~phi ~exists_inputs ~forall_inputs =
  Telemetry.with_phase "qbf" @@ fun () ->
  Telemetry.Counter.incr tc_solves;
  let n_e = List.length exists_inputs and n_f = List.length forall_inputs in
  let e_arr = Array.of_list exists_inputs and f_arr = Array.of_list forall_inputs in
  (* Synthesis solver: accumulates phi(X, y_j) for collected counterexamples. *)
  let synth = Sat.Solver.create () in
  let synth_env = Aig.Cnf.create mgr synth in
  (* Pre-encode the existential inputs so candidate extraction always finds
     a variable, even before any constraint mentions them. *)
  let e_sat = Array.map (fun l -> Aig.Cnf.lit synth_env l) e_arr in
  (* Verification solver: encodes !phi once; X fixed via assumptions. *)
  let verif = Sat.Solver.create () in
  let verif_env = Aig.Cnf.create mgr verif in
  let phi_sat = Aig.Cnf.lit verif_env phi in
  Sat.Solver.add_clause verif [ Sat.Lit.neg phi_sat ];
  (* Existentials are assumed, universals are read from counterexamples. *)
  let e_sat_verif = Array.map (fun l -> Aig.Cnf.lit verif_env l) e_arr in
  let f_sat_verif = Array.map (fun l -> Aig.Cnf.lit verif_env l) f_arr in
  if budget > 0 then begin
    Sat.Solver.set_budget synth budget;
    Sat.Solver.set_budget verif budget
  end;
  let cexs = ref [] in
  let iterations = ref 0 in
  let result = ref None in
  while !result = None && !iterations < max_iterations do
    incr iterations;
    (* Candidate existential assignment. *)
    match Sat.Solver.solve synth with
    | Sat.Solver.Unknown -> result := Some Unknown
    | Sat.Solver.Unsat -> result := Some (Unsat (List.rev !cexs))
    | Sat.Solver.Sat ->
      let x_star = Array.init n_e (fun i -> Sat.Solver.value synth e_sat.(i)) in
      (* Does some universal assignment falsify phi under the candidate? *)
      let assumptions =
        Array.to_list (Array.mapi (fun i sl -> Sat.Lit.apply_sign sl (not x_star.(i))) e_sat_verif)
      in
      (match Sat.Solver.solve ~assumptions verif with
      | Sat.Solver.Unknown -> result := Some Unknown
      | Sat.Solver.Unsat -> result := Some (Sat x_star)
      | Sat.Solver.Sat ->
        let y_star = Array.init n_f (fun i -> Sat.Solver.value verif f_sat_verif.(i)) in
        Telemetry.Counter.incr tc_cex;
        cexs := y_star :: !cexs;
        (* Refine: the candidate must satisfy phi under this counterexample. *)
        let constr = cofactor_on mgr phi (Array.to_list f_arr) y_star in
        let cl = Aig.Cnf.lit synth_env constr in
        Sat.Solver.add_clause synth [ cl ])
  done;
  let answer = match !result with Some a -> a | None -> Unknown in
  Telemetry.Counter.add tc_iterations !iterations;
  Telemetry.event "qbf.solve"
    ~fields:
      [
        ( "answer",
          Telemetry.Value.Str
            (match answer with Sat _ -> "sat" | Unsat _ -> "unsat" | Unknown -> "unknown") );
        ("iterations", Telemetry.Value.Int !iterations);
        ("exists", Telemetry.Value.Int n_e);
        ("forall", Telemetry.Value.Int n_f);
        ("synth_conflicts", Telemetry.Value.Int (Sat.Solver.n_conflicts synth));
        ("verif_conflicts", Telemetry.Value.Int (Sat.Solver.n_conflicts verif));
      ];
  ( answer,
    {
      iterations = !iterations;
      synth_conflicts = Sat.Solver.n_conflicts synth;
      verif_conflicts = Sat.Solver.n_conflicts verif;
    } )
