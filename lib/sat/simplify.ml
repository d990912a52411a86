(* SatELite-style CNF simplification layered over the CDCL solver.

   The simplifier owns a clause database mirroring what the caller added
   and feeds the backend [Solver.t] with the simplified clauses.  The
   first [solve] runs the heavy passes (backward subsumption,
   self-subsuming resolution, bounded variable elimination, failed-literal
   probing) over the whole database and pushes the survivors; later
   additions pass straight through to the backend (MiniSAT SimpSolver
   semantics — re-simplifying against ever-growing occurrence lists made
   clause-streaming workloads like cube enumeration quadratic).
   Eliminated variables are recorded on an extension
   stack so full models can be reconstructed, and are transparently
   reintroduced if a later clause or assumption mentions them. *)

let enabled = ref true

(* MiniSAT SimpSolver-style elimination limits. *)
let clause_lim = 20 (* max resolvent length accepted during elimination *)
let occ_lim = 30 (* skip elimination when both polarities occur this often *)
let probe_lim = 512 (* max probes per preprocessing run *)

type sclause = {
  mutable lits : int array; (* sorted ascending, duplicate-free *)
  mutable sig_ : int; (* var-based Bloom signature, 63 bits *)
  mutable dead : bool;
  mutable pushed : bool; (* already handed to the backend solver *)
}

let dummy_sclause = { lits = [||]; sig_ = 0; dead = true; pushed = false }

type elim_entry = {
  ev : int; (* the eliminated variable *)
  saved : int array list; (* every clause that contained it, in order *)
  mutable undone : bool; (* reintroduced: skip during model extension *)
}

type stats = {
  subsumed : int;
  strengthened : int;
  eliminated : int;
  probe_failed : int;
  reintroduced : int;
  skipped_passes : int;
}

type t = {
  solver : Solver.t;
  on : bool;
  mutable tap : (Lit.t array -> unit) option; (* observer of every added clause *)
  mutable frozen : bool array; (* var -> protected from elimination *)
  mutable elim : elim_entry option array; (* var -> its elimination record *)
  mutable occ : sclause Vec.t array; (* var -> clauses (may hold stale refs) *)
  mutable n_occ : int array; (* var -> live occurrence count *)
  db : sclause Vec.t; (* every clause ever inserted *)
  pending : int array Vec.t; (* added since the last simplify *)
  queue : sclause Vec.t; (* backward-subsumption worklist *)
  mutable qhead : int;
  mutable ext_stack : elim_entry list; (* model-extension stack, newest elimination first *)
  mutable preprocessed : bool; (* the heavy first pass has run *)
  mutable ext_model : bool array option; (* cached extended model *)
  mutable n_subsumed : int;
  mutable n_strengthened : int;
  mutable n_eliminated : int;
  mutable n_probe_failed : int;
  mutable n_reintroduced : int;
  mutable n_skipped_passes : int;
}

let tc_runs = Telemetry.Counter.make "sat.simplify.runs"
let tc_subsumed = Telemetry.Counter.make "sat.simplify.subsumed"
let tc_strengthened = Telemetry.Counter.make "sat.simplify.strengthened"
let tc_eliminated = Telemetry.Counter.make "sat.simplify.eliminated_vars"
let tc_probe_failed = Telemetry.Counter.make "sat.simplify.probe_failures"
let tc_reintroduced = Telemetry.Counter.make "sat.simplify.reintroduced_vars"

let create ?enabled:(on = !enabled) solver =
  (* Proof logging and preprocessing are mutually exclusive: elimination
     and strengthening rewrite clauses without logging derivations. *)
  let on = on && Solver.proof solver = None in
  {
    solver;
    on;
    tap = None;
    frozen = Array.make 16 false;
    elim = Array.make 16 None;
    occ = Array.init 16 (fun _ -> Vec.create ~dummy:dummy_sclause ());
    n_occ = Array.make 16 0;
    db = Vec.create ~dummy:dummy_sclause ();
    pending = Vec.create ~dummy:[||] ();
    queue = Vec.create ~dummy:dummy_sclause ();
    qhead = 0;
    ext_stack = [];
    preprocessed = false;
    ext_model = None;
    n_subsumed = 0;
    n_strengthened = 0;
    n_eliminated = 0;
    n_probe_failed = 0;
    n_reintroduced = 0;
    n_skipped_passes = 0;
  }

let solver t = t.solver
let is_enabled t = t.on
let set_tap t f = t.tap <- Some f

let stats t =
  {
    subsumed = t.n_subsumed;
    strengthened = t.n_strengthened;
    eliminated = t.n_eliminated;
    probe_failed = t.n_probe_failed;
    reintroduced = t.n_reintroduced;
    skipped_passes = t.n_skipped_passes;
  }

let grow_vars t n =
  let old = Array.length t.frozen in
  if n > old then begin
    let m = max (2 * old) n in
    let frozen = Array.make m false in
    Array.blit t.frozen 0 frozen 0 old;
    t.frozen <- frozen;
    let elim = Array.make m None in
    Array.blit t.elim 0 elim 0 old;
    t.elim <- elim;
    t.occ <-
      Array.init m (fun i ->
          if i < old then t.occ.(i) else Vec.create ~dummy:dummy_sclause ());
    let n_occ = Array.make m 0 in
    Array.blit t.n_occ 0 n_occ 0 old;
    t.n_occ <- n_occ
  end

let is_frozen t v = v < Array.length t.frozen && t.frozen.(v)

let is_eliminated t v =
  v < Array.length t.elim
  && match t.elim.(v) with Some e -> not e.undone | None -> false

let signature lits =
  Array.fold_left (fun s l -> s lor (1 lsl (Lit.var l mod 63))) 0 lits

(* Insert a (sorted, duplicate-free, non-tautological) clause into the
   database and occurrence lists, and schedule it for subsumption. *)
let insert_clause t lits =
  let c = { lits; sig_ = signature lits; dead = false; pushed = false } in
  Vec.push t.db c;
  Array.iter
    (fun l ->
      let v = Lit.var l in
      Vec.push t.occ.(v) c;
      t.n_occ.(v) <- t.n_occ.(v) + 1)
    lits;
  Vec.push t.queue c;
  c

let kill_clause t c =
  if not c.dead then begin
    c.dead <- true;
    Array.iter
      (fun l ->
        let v = Lit.var l in
        t.n_occ.(v) <- t.n_occ.(v) - 1)
      c.lits
  end

(* [sub_test c d] over sorted literal arrays with [|c| <= |d|]:
   [`Sub] when c subsumes d; [`Str l] when flipping exactly one literal of
   [c] makes it a subset of [d] (self-subsuming resolution: [l] is the
   literal of [d] that can be removed); [`No] otherwise. *)
let sub_test c d =
  let nc = Array.length c and nd = Array.length d in
  let flipped = ref (-1) in
  let i = ref 0 and j = ref 0 in
  let ok = ref true in
  while !ok && !i < nc do
    let lc = c.(!i) in
    let base = lc land lnot 1 in
    while !j < nd && d.(!j) < base do
      incr j
    done;
    if !j >= nd then ok := false
    else begin
      let ld = d.(!j) in
      if ld = lc then begin
        incr i;
        incr j
      end
      else if ld land lnot 1 = base then
        if !flipped >= 0 then ok := false
        else begin
          flipped := ld;
          incr i;
          incr j
        end
      else ok := false
    end
  done;
  if not !ok then `No else if !flipped < 0 then `Sub else `Str !flipped

let clause_is_empty t =
  Solver.add_clause t.solver [];
  t.ext_model <- None

(* Remove literal [l] from [d] (self-subsuming resolution step). *)
let strengthen_clause t d l =
  let lits = Array.of_list (List.filter (fun x -> x <> l) (Array.to_list d.lits)) in
  d.lits <- lits;
  d.sig_ <- signature lits;
  let v = Lit.var l in
  t.n_occ.(v) <- t.n_occ.(v) - 1;
  t.n_strengthened <- t.n_strengthened + 1;
  Telemetry.Counter.incr tc_strengthened;
  if Array.length lits = 0 then begin
    kill_clause t d;
    clause_is_empty t
  end
  else Vec.push t.queue d

(* Backward pass for clause [c]: find clauses it subsumes or strengthens.
   Candidate set: the occurrence list of c's least-occurring variable (a
   superset — or almost-superset, for self-subsumption — of c must contain
   that variable). *)
let backward_subsume t c =
  if Array.length c.lits > 0 then begin
    let best = ref (Lit.var c.lits.(0)) in
    Array.iter
      (fun l ->
        let v = Lit.var l in
        if t.n_occ.(v) < t.n_occ.(!best) then best := v)
      c.lits;
    let cands = t.occ.(!best) in
    let n = Vec.size cands in
    for i = 0 to n - 1 do
      let d = Vec.get cands i in
      if
        (not d.dead) && d != c && (not d.pushed)
        && Array.length d.lits >= Array.length c.lits
        && c.sig_ land lnot d.sig_ = 0
        && not c.dead
      then
        match sub_test c.lits d.lits with
        | `No -> ()
        | `Sub ->
          kill_clause t d;
          t.n_subsumed <- t.n_subsumed + 1;
          Telemetry.Counter.incr tc_subsumed
        | `Str l -> strengthen_clause t d l
    done
  end

let process_queue t =
  while t.qhead < Vec.size t.queue do
    let c = Vec.get t.queue t.qhead in
    t.qhead <- t.qhead + 1;
    if not c.dead then backward_subsume t c
  done

(* Resolve [a] and [b] on variable [v].  [`Taut] resolvents may be
   skipped, but an over-long one must ABORT the elimination of [v]:
   Davis-Putnam is only complete when every non-tautological resolvent is
   kept, so [`Long] is a veto, not a skip. *)
let resolve a b v =
  let out = ref [] and n = ref 0 in
  let taut = ref false in
  let push l =
    match !out with
    | x :: _ when x = l -> ()
    | x :: _ when x land lnot 1 = l land lnot 1 -> taut := true
    | _ ->
      out := l :: !out;
      incr n
  in
  let na = Array.length a and nb = Array.length b in
  let i = ref 0 and j = ref 0 in
  while (not !taut) && (!i < na || !j < nb) do
    let take_a =
      if !i >= na then false else if !j >= nb then true else a.(!i) <= b.(!j)
    in
    let l = if take_a then a.(!i) else b.(!j) in
    if take_a then incr i else incr j;
    if Lit.var l <> v then push l
  done;
  if !taut then `Taut
  else if !n > clause_lim then `Long
  else `Resolvent (Array.of_list (List.rev !out))

exception Eliminate_vetoed

(* Bounded variable elimination of [v]: allowed when the set of non-taut
   resolvents is no larger than the set of clauses it replaces. *)
let try_eliminate t v =
  if is_frozen t v || is_eliminated t v || t.n_occ.(v) = 0 then false
  else begin
    let pos = ref [] and neg = ref [] in
    let cands = t.occ.(v) in
    for i = Vec.size cands - 1 downto 0 do
      let c = Vec.get cands i in
      if (not c.dead) && not c.pushed then
        Array.iter
          (fun l ->
            if Lit.var l = v then
              if Lit.is_pos l then pos := c :: !pos else neg := c :: !neg)
          c.lits
    done;
    let np = List.length !pos and nn = List.length !neg in
    if np = 0 && nn = 0 then false
    else if np > occ_lim && nn > occ_lim then false
    else begin
      match
        let limit = np + nn in
        let cnt = ref 0 in
        let resolvents = ref [] in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                match resolve a.lits b.lits v with
                | `Taut -> ()
                | `Long -> raise Eliminate_vetoed
                | `Resolvent r ->
                  incr cnt;
                  if !cnt > limit then raise Eliminate_vetoed;
                  resolvents := r :: !resolvents)
              !neg)
          !pos;
        List.rev !resolvents
      with
      | exception Eliminate_vetoed -> false
      | resolvents ->
        let saved = List.map (fun c -> c.lits) (!pos @ !neg) in
        List.iter (fun c -> kill_clause t c) (!pos @ !neg);
        let entry = { ev = v; saved; undone = false } in
        t.elim.(v) <- Some entry;
        t.ext_stack <- entry :: t.ext_stack;
        t.n_eliminated <- t.n_eliminated + 1;
        Telemetry.Counter.incr tc_eliminated;
        List.iter
          (fun r ->
            if Array.length r = 0 then clause_is_empty t
            else ignore (insert_clause t r))
          resolvents;
        process_queue t;
        true
    end
  end

let eliminate_vars t =
  let nv = Solver.nvars t.solver in
  let continue_ = ref true in
  let passes = ref 0 in
  while !continue_ && !passes < 10 do
    incr passes;
    continue_ := false;
    (* Cheapest variables first: fewest occurrences, then index. *)
    let order = Array.init nv (fun v -> v) in
    Array.sort
      (fun a b ->
        match compare t.n_occ.(a) t.n_occ.(b) with 0 -> compare a b | c -> c)
      order;
    Array.iter (fun v -> if try_eliminate t v then continue_ := true) order
  done

(* Reintroduce an eliminated variable: its saved clauses return to the
   database (and the solver, once pushing has begun).  Sound because the
   resolvents the solver kept are implied by the saved clauses. *)
let rec reintroduce t v =
  match if v < Array.length t.elim then t.elim.(v) else None with
  | Some e when not e.undone ->
    e.undone <- true;
    t.n_reintroduced <- t.n_reintroduced + 1;
    Telemetry.Counter.incr tc_reintroduced;
    t.ext_model <- None;
    List.iter
      (fun lits ->
        Array.iter
          (fun l ->
            let w = Lit.var l in
            if is_eliminated t w then reintroduce t w)
          lits;
        let c = insert_clause t lits in
        if t.preprocessed then begin
          Solver.add_clause_a t.solver lits;
          c.pushed <- true
        end)
      e.saved
  | _ -> ()

let freeze_var t v =
  grow_vars t (v + 1);
  t.frozen.(v) <- true;
  if is_eliminated t v then reintroduce t v

let freeze t l = freeze_var t (Lit.var l)
let thaw_var t v = if v < Array.length t.frozen then t.frozen.(v) <- false

let push_clauses t =
  Vec.iter
    (fun c ->
      if (not c.dead) && not c.pushed then begin
        Solver.add_clause_a t.solver c.lits;
        c.pushed <- true
      end)
    t.db

(* Failed-literal probing over variables that occur in binary clauses (the
   population where one propagation pass has the best chance of closing a
   cycle), bounded by [probe_lim]. *)
let probe t =
  let nv = Solver.nvars t.solver in
  let in_binary = Array.make nv false in
  Vec.iter
    (fun c ->
      if (not c.dead) && Array.length c.lits = 2 then
        Array.iter (fun l -> if Lit.var l < nv then in_binary.(Lit.var l) <- true) c.lits)
    t.db;
  let probes = ref 0 in
  let v = ref 0 in
  while !v < nv && !probes < probe_lim && Solver.okay t.solver do
    if in_binary.(!v) && not (is_eliminated t !v) then begin
      probes := !probes + 2;
      if Solver.probe_lit t.solver (Lit.make !v) then begin
        t.n_probe_failed <- t.n_probe_failed + 1;
        Telemetry.Counter.incr tc_probe_failed
      end;
      if Solver.okay t.solver && Solver.probe_lit t.solver (Lit.make_neg !v) then begin
        t.n_probe_failed <- t.n_probe_failed + 1;
        Telemetry.Counter.incr tc_probe_failed
      end
    end;
    incr v
  done

(* A new clause may mention variables that elimination removed from the
   backend; they must be live again before it lands. *)
let ensure_lits_live t lits =
  Array.iter (fun l -> if is_eliminated t (Lit.var l) then reintroduce t (Lit.var l)) lits

let add_clause_a t lits =
  (* The tap sees the caller's literals before any preprocessing touches
     them — this is the "original clause set" a certification layer
     checks models against. *)
  (match t.tap with Some f -> f (Array.copy lits) | None -> ());
  (* A disabled simplifier never eliminates a variable, so its clauses go
     straight to the backend. *)
  if not t.on then Solver.add_clause_a t.solver lits
  else begin
    t.ext_model <- None;
    let lits = Array.copy lits in
    Array.sort Int.compare lits;
    (* Deduplicate and drop tautologies up front. *)
    let out = ref [] and n = ref 0 and taut = ref false in
    Array.iter
      (fun l ->
        match !out with
        | x :: _ when x = l -> ()
        | x :: _ when x land lnot 1 = l land lnot 1 -> taut := true
        | _ ->
          out := l :: !out;
          incr n)
      lits;
    if not !taut then
      if !n = 0 then clause_is_empty t
      else Vec.push t.pending (Array.of_list (List.rev !out))
  end

let add_clause t lits = add_clause_a t (Array.of_list lits)

let simplify t =
  if t.on then begin
    grow_vars t (max 1 (Solver.nvars t.solver));
    if not t.preprocessed then begin
      (* First run: the heavy pipeline over the whole database. *)
      Vec.iter (fun lits -> ignore (insert_clause t lits)) t.pending;
      Vec.clear t.pending;
      Telemetry.Counter.incr tc_runs;
      process_queue t;
      eliminate_vars t;
      process_queue t;
      push_clauses t;
      t.preprocessed <- true;
      probe t
    end
    else begin
      (* After preprocessing, new clauses go straight to the backend
         (MiniSAT SimpSolver semantics) — re-simplifying against an
         ever-growing database would be quadratic on clause-streaming
         workloads like cube enumeration.  Only the soundness obligation
         remains: a clause over an eliminated variable reintroduces it.
         The skipped pass is counted so callers can see that
         simplification did not run ([skipped_passes] in {!stats}). *)
      t.n_skipped_passes <- t.n_skipped_passes + 1;
      Vec.iter
        (fun lits ->
          ensure_lits_live t lits;
          Solver.add_clause_a t.solver lits)
        t.pending;
      Vec.clear t.pending
    end
  end

let solve ?(assumptions = []) t =
  (* Assumption variables must stay live: freeze them, which also
     reintroduces any that elimination removed. *)
  List.iter (fun l -> freeze t l) assumptions;
  if t.on then simplify t;
  t.ext_model <- None;
  Solver.solve ~assumptions t.solver

(* Extend the backend model over the eliminated variables, newest
   elimination first: an eliminated variable is flipped exactly when one
   of its saved clauses is satisfied by no other literal. *)
let extended_model t =
  match t.ext_model with
  | Some m -> m
  | None ->
    let base = Solver.model t.solver in
    let m = Array.make (Solver.nvars t.solver) false in
    Array.blit base 0 m 0 (min (Array.length base) (Array.length m));
    let lit_true l =
      let v = Lit.var l in
      if Lit.is_neg l then not m.(v) else m.(v)
    in
    List.iter
      (fun e ->
        if not e.undone then
          List.iter
            (fun lits ->
              let sat_other = Array.exists (fun l -> Lit.var l <> e.ev && lit_true l) lits in
              if not sat_other then
                Array.iter (fun l -> if Lit.var l = e.ev then m.(e.ev) <- Lit.is_pos l) lits)
            e.saved)
      t.ext_stack;
    t.ext_model <- Some m;
    m

let value t l =
  if not t.on then Solver.value t.solver l
  else begin
    let m = extended_model t in
    let v = Lit.var l in
    if v >= Array.length m then invalid_arg "Simplify.value: unknown variable";
    if Lit.is_neg l then not m.(v) else m.(v)
  end

let model t = if not t.on then Solver.model t.solver else Array.copy (extended_model t)

let pp_stats ppf t =
  Format.fprintf ppf
    "subsumed=%d strengthened=%d eliminated=%d probe_failed=%d reintroduced=%d skipped_passes=%d"
    t.n_subsumed t.n_strengthened t.n_eliminated t.n_probe_failed t.n_reintroduced
    t.n_skipped_passes
