type verdict = Equivalent | Counterexample of bool array | Undecided

let tc_checks = Telemetry.Counter.make "cec.checks"
let tc_equivalent = Telemetry.Counter.make "cec.equivalent"
let tc_cex = Telemetry.Counter.make "cec.counterexamples"
let tc_undecided = Telemetry.Counter.make "cec.undecided"
let tc_sim_cex = Telemetry.Counter.make "cec.sim_counterexamples"

let count_verdict v =
  Telemetry.Counter.incr tc_checks;
  (match v with
  | Equivalent -> Telemetry.Counter.incr tc_equivalent
  | Counterexample _ -> Telemetry.Counter.incr tc_cex
  | Undecided -> Telemetry.Counter.incr tc_undecided);
  v

let build_miter a b =
  if Aig.num_inputs a <> Aig.num_inputs b then invalid_arg "Cec.build_miter: input arity";
  if Aig.num_outputs a <> Aig.num_outputs b then invalid_arg "Cec.build_miter: output arity";
  let m = Aig.create () in
  let xs = Aig.add_inputs m (Aig.num_inputs a) in
  let map_side side =
    let map = Aig.fresh_map side in
    Array.iteri (fun i l -> map.(Aig.node_of l) <- xs.(i)) (Aig.inputs side);
    Aig.import m side ~map (Array.to_list (Aig.outputs side))
  in
  let outs_a = map_side a and outs_b = map_side b in
  let diffs = List.map2 (fun la lb -> Aig.xor_ m la lb) outs_a outs_b in
  let miter = Aig.or_list m diffs in
  ignore (Aig.add_output m miter);
  (m, miter)

(* Independent single-pattern replay: evaluate [l] on the AIG itself under
   the counterexample assignment.  This closes the loop around the CNF
   encoding — a Tseitin bug cannot produce a "certified" counterexample
   that the circuit does not actually exhibit. *)
let cex_fires m l cex =
  let words = Array.map (fun b -> if b then -1L else 0L) cex in
  let values = Aig.simulate m words in
  Int64.logand (Aig.lit_value values l) 1L <> 0L

(* Conflict budget for the certifying re-derivation: proof-mode solving is
   slower (no clause minimization, no level-0 literal removal), so a
   bounded primary search gets a proportionally larger bound rather than
   a spurious Check_failed. *)
let recert_budget budget = if budget > 0 then 10 * budget else 0

(* Cross-request verdict memo (the server's cone cache).  Installed once
   before serving; [None] (the default) keeps every check byte-identical
   to the memo-less behaviour.  Certifying calls bypass the memo
   entirely: a cached verdict has no fresh proof object. *)
type memo = {
  lookup : Aig.t -> Aig.lit -> verdict option;
  store : Aig.t -> Aig.lit -> verdict -> unit;
}

let memo_hook : memo option ref = ref None

let set_memo m = memo_hook := m

(* One SAT query on a fresh solver, capped at the caller's budget. *)
let check_lit_fresh ~certify ~budget m l =
  Telemetry.with_phase "cec" @@ fun () ->
  if l = Aig.false_ then begin
    (* Structurally constant-false: nothing was solved, nothing to check. *)
    if certify then Cert.record "cec.const" Cert.Certified;
    count_verdict Equivalent
  end
  else begin
    let solver = Sat.Solver.create () in
    let log = if certify then Some (Cert.attach solver) else None in
    if budget > 0 then Sat.Solver.set_budget solver budget;
    let env = Aig.Cnf.create m solver in
    Sat.Solver.add_clause solver [ Aig.Cnf.lit env l ];
    match Sat.Solver.solve solver with
    | Sat.Solver.Unknown -> count_verdict Undecided
    | Sat.Solver.Unsat ->
      Option.iter
        (fun log ->
          Cert.record "cec.unsat"
            (Cert.certify_unsat ~budget:(recert_budget budget) log ~assumptions:[]))
        log;
      count_verdict Equivalent
    | Sat.Solver.Sat ->
      let cex =
        Array.map
          (fun il ->
            match Aig.Cnf.lit_opt env il with
            | Some sl -> Sat.Solver.value solver sl
            | None -> false (* input outside the encoded cone: don't care *))
          (Aig.inputs m)
      in
      Option.iter
        (fun log ->
          Cert.record "cec.sat"
            (match Cert.certify_sat log ~value:(Sat.Solver.value solver) with
            | Cert.Check_failed _ as f -> f
            | Cert.Certified ->
              if cex_fires m l cex then Cert.Certified
              else Cert.Check_failed "counterexample does not fire on the AIG"))
        log;
      count_verdict (Counterexample cex)
  end

let check_lit ?(budget = 0) ?(certify = false) m l =
  match if certify then None else !memo_hook with
  | None -> check_lit_fresh ~certify ~budget m l
  | Some _ when l = Aig.false_ ->
    (* Structurally trivial — cheaper to answer than to fingerprint. *)
    check_lit_fresh ~certify ~budget m l
  | Some memo -> (
    match memo.lookup m l with
    | Some v -> count_verdict v
    | None ->
      let v = check_lit_fresh ~certify ~budget m l in
      (* Undecided depends on the conflict budget, so it is never
         memoised; decisive verdicts are functions of the cone. *)
      (match v with Undecided -> () | Equivalent | Counterexample _ -> memo.store m l v);
      v)

let random_words rand n = Array.init n (fun _ -> Random.State.int64 rand Int64.max_int)

let sim_rounds = 32
let sim_seed = 0x5eed

let find_sim_cex m miter =
  let rand = Random.State.make [| sim_seed |] in
  let n_in = Aig.num_inputs m in
  let rec go round =
    if round >= sim_rounds then None
    else begin
      let words = random_words rand n_in in
      let values = Aig.simulate m words in
      let v = Aig.lit_value values miter in
      if v = 0L then go (round + 1)
      else begin
        (* Find a set bit and read the corresponding input column. *)
        let bit = ref 0 in
        while Int64.logand (Int64.shift_right_logical v !bit) 1L = 0L do
          incr bit
        done;
        Some
          (Array.init n_in (fun i ->
               Int64.logand (Int64.shift_right_logical words.(i) !bit) 1L <> 0L))
      end
    end
  in
  go 0

let check_miter ?(budget = 0) ?(certify = false) m miter =
  match find_sim_cex m miter with
  | Some cex ->
    Telemetry.Counter.incr tc_sim_cex;
    if certify then
      Cert.record "cec.sim_cex"
        (if cex_fires m miter cex then Cert.Certified
         else Cert.Check_failed "simulation counterexample does not fire on the miter");
    count_verdict (Counterexample cex)
  | None -> check_lit ~budget ~certify m miter

let check ?budget ?certify a b =
  let m, miter = build_miter a b in
  check_miter ?budget ?certify m miter
