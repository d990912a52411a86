(* Certification of final solver verdicts.

   A [log] records the original clause set of one solver — attached as a
   tap on the solver, it sees every clause exactly as the caller stated
   it, before the solver's own cleanup.  Against that log:

   - SAT answers are certified by evaluating the model on every recorded
     clause ([certify_sat]);
   - UNSAT answers are certified by re-deriving them in a fresh
     proof-logging solver over the recorded clauses (plus the claimed
     assumption core as unit clauses) and replaying the resulting
     resolution proof with the standalone {!Checker}
     ([certify_unsat]).

   The re-derivation deliberately does not reuse the original solver
   instance: the original run's verdict is treated as a claim, and the
   only trusted components are the clause log, the replay checker, and —
   for SAT — clause evaluation.  The re-deriving solver is untrusted; a
   wrong UNSAT from it cannot survive the replay (its leaves are checked
   against the log, its resolutions are checked step by step). *)

module Checker = Checker

type verdict = Certified | Check_failed of string

type log = {
  clauses : Sat.Lit.t array Sat.Vec.t;
  mutable max_var : int; (* largest variable mentioned; -1 when none *)
}

let tc_checked = Telemetry.Counter.make "cert.checked"
let tc_failed = Telemetry.Counter.make "cert.failed"
let tc_models = Telemetry.Counter.make "cert.models"
let tc_proofs = Telemetry.Counter.make "cert.proofs"
let tc_proof_steps = Telemetry.Counter.make "cert.proof_steps"
let tc_rup = Telemetry.Counter.make "cert.rup_fallbacks"

let create_log () = { clauses = Sat.Vec.create ~dummy:[||] (); max_var = -1 }

let record_clause log lits =
  Array.iter (fun l -> log.max_var <- max log.max_var (Sat.Lit.var l)) lits;
  Sat.Vec.push log.clauses lits

let attach solver =
  let log = create_log () in
  Sat.Solver.set_tap solver (record_clause log);
  log

let n_clauses log = Sat.Vec.size log.clauses

(* Outcome accounting shared by every certification site: one cert.checked
   per attempt, cert.failed plus a trace event on failure. *)
let record site v =
  Telemetry.Counter.incr tc_checked;
  (match v with
  | Certified -> ()
  | Check_failed reason ->
    Telemetry.Counter.incr tc_failed;
    Telemetry.event "cert.failed"
      ~fields:
        [ ("site", Telemetry.Value.Str site); ("reason", Telemetry.Value.Str reason) ])

let summary () =
  let snap = Telemetry.snapshot () in
  let get n = Option.value ~default:0 (List.assoc_opt n snap) in
  Format.printf "certification: %d checks (%d proof steps, %d rup), %d failed@."
    (get "cert.checked") (get "cert.proof_steps") (get "cert.rup_fallbacks") (get "cert.failed");
  get "cert.failed"

let certify_sat log ~value =
  Telemetry.Counter.incr tc_models;
  match Checker.check_model ~value (Sat.Vec.to_list log.clauses) with
  | Checker.Valid -> Certified
  | Checker.Invalid reason -> Check_failed reason

(* Canonical (sorted, duplicate-free) literal array, for leaf lookups. *)
let canon lits =
  let a = Array.copy lits in
  Array.sort Int.compare a;
  let out = ref [] in
  Array.iter (fun l -> match !out with x :: _ when x = l -> () | _ -> out := l :: !out) a;
  Array.of_list (List.rev !out)

let certify_unsat ?(budget = 0) log ~assumptions =
  Telemetry.Counter.incr tc_proofs;
  let solver = Sat.Solver.create ~proof:true () in
  let max_var =
    List.fold_left (fun acc l -> max acc (Sat.Lit.var l)) log.max_var assumptions
  in
  if max_var >= 0 then ignore (Sat.Solver.new_vars solver (max_var + 1));
  Sat.Vec.iter (fun c -> Sat.Solver.add_clause_a solver c) log.clauses;
  List.iter (fun l -> Sat.Solver.add_clause solver [ l ]) assumptions;
  if budget > 0 then Sat.Solver.set_budget solver budget;
  match Sat.Solver.solve solver with
  | Sat.Solver.Sat -> Check_failed "re-derivation found a model for the claimed UNSAT"
  | Sat.Solver.Unknown -> Check_failed "re-derivation conflict budget exhausted"
  | Sat.Solver.Unsat -> (
    match Sat.Solver.proof solver with
    | None -> Check_failed "re-derivation solver logged no proof"
    | Some proof ->
      (* Admissible leaves: the recorded clauses and the assumption units,
         up to literal order and duplication. *)
      let admissible = Hashtbl.create (n_clauses log * 2) in
      Sat.Vec.iter (fun c -> Hashtbl.replace admissible (canon c) ()) log.clauses;
      List.iter (fun l -> Hashtbl.replace admissible [| l |] ()) assumptions;
      let leaf_ok lits = Hashtbl.mem admissible (canon lits) in
      let verdict, stats = Checker.check_proof ~leaf_ok proof in
      Telemetry.Counter.add tc_proof_steps stats.Checker.steps;
      Telemetry.Counter.add tc_rup stats.Checker.rup_fallbacks;
      (match verdict with
      | Checker.Valid -> Certified
      | Checker.Invalid reason -> Check_failed ("proof replay: " ^ reason)))
