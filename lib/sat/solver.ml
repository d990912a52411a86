type result = Sat | Unsat | Unknown

type clause = {
  lits : int array;
  mutable act : float;
  learnt : bool;
  mutable lbd : int;
  mutable deleted : bool;
  mutable pid : int; (* proof node id, -1 when not logged *)
}

type watcher = { cls : clause; mutable blocker : int }

let dummy_clause = { lits = [||]; act = 0.0; learnt = false; lbd = 0; deleted = false; pid = -1 }
let dummy_watcher = { cls = dummy_clause; blocker = -1 }

(* Assignment of a variable: 0 = undefined, 1 = true, -1 = false. *)

type t = {
  mutable ok : bool;
  mutable assigns : int array; (* var -> -1/0/1 *)
  mutable levels : int array; (* var -> decision level *)
  mutable reasons : clause array; (* var -> reason (dummy_clause if none) *)
  activity : float array ref; (* var -> VSIDS score; behind a ref so the
                                 heap's score closure survives growth *)
  mutable polarity : bool array; (* var -> saved phase *)
  mutable seen : bool array; (* var -> scratch for analyze *)
  mutable watches : watcher Vec.t array; (* lit -> watchers *)
  trail : int Vec.t; (* assigned literals in order *)
  trail_lim : int Vec.t; (* decision-level boundaries in trail *)
  mutable qhead : int;
  clauses : clause Vec.t;
  learnts : clause Vec.t;
  order : Heap.t;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable nvars : int;
  mutable model : bool array;
  mutable conflict : int list;
  mutable last_result : result;
  mutable budget : int; (* absolute conflict count bound; <= 0 means none *)
  mutable max_learnts : float;
  mutable learnt_adjust : int; (* conflict milestone for growing max_learnts *)
  mutable learnt_adjust_inc : float;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable solves : int;
  mutable restarts : int;
  mutable learned : int;
  mutable learned_lits : int;
  mutable lbd_sum : int;
  mutable deleted_learnts : int;
  analyze_stack : int Vec.t;
  analyze_clear : int Vec.t;
  out_learnt : int Vec.t;
  proof : Proof.t option;
  mutable unit_pids : int array; (* var -> pid of its level-0 unit derivation *)
  mutable pending_base : int; (* derivation of the next learned clause *)
  mutable pending_steps : (int * int) list;
  mutable tap : (Lit.t array -> unit) option; (* observer of every added clause *)
}

let var_decay = 0.95
let clause_decay = 0.999
let restart_first = 100

(* Global telemetry: cumulative solver-effort counters across all solver
   instances, plus a per-[solve] trace event.  Deterministic for a fixed
   clause/assumption stream (no clock input). *)
let tc_solves = Telemetry.Counter.make "sat.solves"
let tc_conflicts = Telemetry.Counter.make "sat.conflicts"
let tc_decisions = Telemetry.Counter.make "sat.decisions"
let tc_propagations = Telemetry.Counter.make "sat.propagations"
let tc_restarts = Telemetry.Counter.make "sat.restarts"
let tc_learned = Telemetry.Counter.make "sat.learned_clauses"
let tc_deleted = Telemetry.Counter.make "sat.deleted_clauses"
let tc_sat = Telemetry.Counter.make "sat.result.sat"
let tc_unsat = Telemetry.Counter.make "sat.result.unsat"
let tc_unknown = Telemetry.Counter.make "sat.result.unknown"

let create ?(proof = false) () =
  let activity = ref (Array.make 16 0.0) in
  {
    ok = true;
    assigns = Array.make 16 0;
    levels = Array.make 16 (-1);
    reasons = Array.make 16 dummy_clause;
    activity;
    polarity = Array.make 16 false;
    seen = Array.make 16 false;
    watches = Array.init 32 (fun _ -> Vec.create ~dummy:dummy_watcher ());
    trail = Vec.create ~dummy:(-1) ();
    trail_lim = Vec.create ~dummy:(-1) ();
    qhead = 0;
    clauses = Vec.create ~dummy:dummy_clause ();
    learnts = Vec.create ~dummy:dummy_clause ();
    order = Heap.create ~score:(fun v -> !activity.(v));
    var_inc = 1.0;
    cla_inc = 1.0;
    nvars = 0;
    model = [||];
    conflict = [];
    last_result = Unknown;
    budget = 0;
    max_learnts = 1000.0;
    learnt_adjust = 100;
    learnt_adjust_inc = 1.5;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    solves = 0;
    restarts = 0;
    learned = 0;
    learned_lits = 0;
    lbd_sum = 0;
    deleted_learnts = 0;
    analyze_stack = Vec.create ~dummy:(-1) ();
    analyze_clear = Vec.create ~dummy:(-1) ();
    out_learnt = Vec.create ~dummy:(-1) ();
    proof = (if proof then Some (Proof.create ()) else None);
    unit_pids = Array.make 16 (-1);
    pending_base = -1;
    pending_steps = [];
    tap = None;
  }

let grow_arrays t n =
  let old = Array.length t.assigns in
  if n > old then begin
    let m = max (2 * old) n in
    let grow_to a def =
      let b = Array.make m def in
      Array.blit a 0 b 0 old;
      b
    in
    t.assigns <- grow_to t.assigns 0;
    t.levels <- grow_to t.levels (-1);
    t.reasons <- grow_to t.reasons dummy_clause;
    t.activity := grow_to !(t.activity) 0.0;
    (let b = Array.make m (-1) in
     Array.blit t.unit_pids 0 b 0 old;
     t.unit_pids <- b);
    t.polarity <- grow_to t.polarity false;
    t.seen <- grow_to t.seen false;
    let oldw = Array.length t.watches in
    if 2 * m > oldw then
      t.watches <-
        Array.init (2 * m) (fun i ->
            if i < oldw then t.watches.(i) else Vec.create ~dummy:dummy_watcher ())
  end

let nvars t = t.nvars
let nclauses t = Vec.size t.clauses
let okay t = t.ok

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  grow_arrays t t.nvars;
  t.assigns.(v) <- 0;
  t.levels.(v) <- -1;
  t.reasons.(v) <- dummy_clause;
  !(t.activity).(v) <- 0.0;
  t.polarity.(v) <- false;
  Heap.insert t.order v;
  v

let new_vars t n =
  if n <= 0 then invalid_arg "Solver.new_vars";
  let first = new_var t in
  for _ = 2 to n do
    ignore (new_var t)
  done;
  first

let value_lit t l =
  let a = t.assigns.(Lit.var l) in
  if Lit.is_neg l then -a else a

let decision_level t = Vec.size t.trail_lim

let var_bump t v =
  let act = !(t.activity) in
  act.(v) <- act.(v) +. t.var_inc;
  if act.(v) > 1e100 then begin
    for i = 0 to t.nvars - 1 do
      act.(i) <- act.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  Heap.increase t.order v

let var_decay_activity t = t.var_inc <- t.var_inc /. var_decay

let clause_bump t c =
  c.act <- c.act +. t.cla_inc;
  if c.act > 1e20 then begin
    Vec.iter (fun c -> c.act <- c.act *. 1e-20) t.learnts;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let clause_decay_activity t = t.cla_inc <- t.cla_inc /. clause_decay

let watch_clause t c =
  Vec.push t.watches.(Lit.neg c.lits.(0)) { cls = c; blocker = c.lits.(1) };
  Vec.push t.watches.(Lit.neg c.lits.(1)) { cls = c; blocker = c.lits.(0) }

let unchecked_enqueue t l reason =
  let v = Lit.var l in
  t.assigns.(v) <- (if Lit.is_neg l then -1 else 1);
  t.levels.(v) <- decision_level t;
  t.reasons.(v) <- reason;
  Vec.push t.trail l

(* Two-watched-literal unit propagation.  Returns the conflicting clause or
   [dummy_clause] when propagation completes without conflict. *)
let propagate t =
  let confl = ref dummy_clause in
  let assigns = t.assigns in
  (* Unsigned-style value of a literal against the assigns array:
     1 true, -1 false, 0 undefined. *)
  let vlit l =
    let a = Array.unsafe_get assigns (l lsr 1) in
    if l land 1 = 1 then -a else a
  in
  while !confl == dummy_clause && t.qhead < Vec.size t.trail do
    let p = Vec.get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    let ws = t.watches.(p) in
    let i = ref 0 and j = ref 0 in
    let n = Vec.size ws in
    while !i < n do
      let w = Vec.unsafe_get ws !i in
      incr i;
      if w.cls.deleted then () (* drop watcher of a deleted clause *)
      else if vlit w.blocker = 1 then begin
        Vec.unsafe_set ws !j w;
        incr j
      end
      else begin
        let c = w.cls in
        let lits = c.lits in
        let false_lit = p lxor 1 in
        if Array.unsafe_get lits 0 = false_lit then begin
          Array.unsafe_set lits 0 (Array.unsafe_get lits 1);
          Array.unsafe_set lits 1 false_lit
        end;
        let first = Array.unsafe_get lits 0 in
        if first <> w.blocker && vlit first = 1 then begin
          w.blocker <- first;
          Vec.unsafe_set ws !j w;
          incr j
        end
        else begin
          let len = Array.length lits in
          let k = ref 2 in
          while !k < len && vlit (Array.unsafe_get lits !k) = -1 do
            incr k
          done;
          if !k < len then begin
            Array.unsafe_set lits 1 (Array.unsafe_get lits !k);
            Array.unsafe_set lits !k false_lit;
            Vec.push t.watches.(Lit.neg (Array.unsafe_get lits 1)) { cls = c; blocker = first }
          end
          else if vlit first = -1 then begin
            confl := c;
            t.qhead <- Vec.size t.trail;
            Vec.unsafe_set ws !j w;
            incr j;
            while !i < n do
              Vec.unsafe_set ws !j (Vec.unsafe_get ws !i);
              incr i;
              incr j
            done
          end
          else begin
            Vec.unsafe_set ws !j w;
            incr j;
            unchecked_enqueue t first c
          end
        end
      end
    done;
    Vec.shrink ws !j
  done;
  !confl

let new_decision_level t = Vec.push t.trail_lim (Vec.size t.trail)

let cancel_until t level =
  if decision_level t > level then begin
    let bound = Vec.get t.trail_lim level in
    for i = Vec.size t.trail - 1 downto bound do
      let l = Vec.get t.trail i in
      let v = Lit.var l in
      t.assigns.(v) <- 0;
      t.polarity.(v) <- Lit.is_pos l;
      t.reasons.(v) <- dummy_clause;
      Heap.insert t.order v
    done;
    Vec.shrink t.trail bound;
    Vec.shrink t.trail_lim level;
    t.qhead <- Vec.size t.trail
  end

(* Derivation of the unit clause {l} for a variable implied at level 0:
   resolve its reason clause with the unit derivations of the reason's
   other literals.  Memoized per variable; level-0 assignments are
   permanent so the memo never invalidates. *)
let rec unit_pid t proof v =
  if t.unit_pids.(v) >= 0 then t.unit_pids.(v)
  else begin
    let reason = t.reasons.(v) in
    if reason == dummy_clause || reason.pid < 0 then
      invalid_arg "Solver: missing reason for level-0 literal in proof mode";
    let self_lit = Lit.of_var v (t.assigns.(v) < 0) in
    let steps =
      Array.to_list reason.lits
      |> List.filter (fun q -> Lit.var q <> v)
      |> List.map (fun q -> (Lit.var q, unit_pid t proof (Lit.var q)))
    in
    let pid = Proof.add_derived proof [| self_lit |] ~base:reason.pid ~steps in
    t.unit_pids.(v) <- pid;
    pid
  end

(* Conflict at decision level 0: derive the empty clause by resolving the
   conflicting clause with the unit derivations of all its literals. *)
let record_empty t confl =
  match t.proof with
  | None -> ()
  | Some proof ->
    if confl.pid < 0 then invalid_arg "Solver.record_empty: unlogged clause";
    let seen_vars = Hashtbl.create 8 in
    let steps =
      Array.to_list confl.lits
      |> List.filter_map (fun q ->
             let v = Lit.var q in
             if Hashtbl.mem seen_vars v then None
             else begin
               Hashtbl.replace seen_vars v ();
               Some (v, unit_pid t proof v)
             end)
    in
    let pid = Proof.add_derived proof [||] ~base:confl.pid ~steps in
    Proof.set_empty proof pid

(* Check that a literal of the learned clause is implied by the others:
   its reason chain stays within already-seen variables (MiniSAT
   litRedundant).  Marks made during a failed attempt are undone. *)
let lit_redundant t l levels_mask =
  Vec.clear t.analyze_stack;
  Vec.push t.analyze_stack l;
  let top = Vec.size t.analyze_clear in
  let ok = ref true in
  while !ok && Vec.size t.analyze_stack > 0 do
    let p = Vec.pop t.analyze_stack in
    let c = t.reasons.(Lit.var p) in
    if c == dummy_clause then ok := false
    else
      Array.iter
        (fun q ->
          if !ok then begin
            let v = Lit.var q in
            if (not t.seen.(v)) && t.levels.(v) > 0 then begin
              if
                t.reasons.(v) != dummy_clause
                && levels_mask land (1 lsl (t.levels.(v) land 31)) <> 0
              then begin
                t.seen.(v) <- true;
                Vec.push t.analyze_stack q;
                Vec.push t.analyze_clear q
              end
              else ok := false
            end
          end)
        c.lits
  done;
  if not !ok then
    while Vec.size t.analyze_clear > top do
      let q = Vec.pop t.analyze_clear in
      t.seen.(Lit.var q) <- false
    done;
  !ok

(* First-UIP conflict analysis.  Fills [t.out_learnt] with the learned
   clause (asserting literal first) and returns the backtrack level. *)
let analyze t confl =
  let out = t.out_learnt in
  Vec.clear out;
  Vec.push out (-1); (* placeholder for the asserting literal *)
  let path_c = ref 0 in
  let p = ref (-1) in
  let level0_done = Hashtbl.create 8 in
  (match t.proof with
  | Some _ ->
    t.pending_base <- confl.pid;
    t.pending_steps <- []
  | None -> ());
  let confl = ref confl in
  let index = ref (Vec.size t.trail - 1) in
  let continue = ref true in
  while !continue do
    let c = !confl in
    if c.learnt then clause_bump t c;
    let start = if !p = -1 then 0 else 1 in
    for k = start to Array.length c.lits - 1 do
      let q = c.lits.(k) in
      let v = Lit.var q in
      if (not t.seen.(v)) && t.levels.(v) > 0 then begin
        var_bump t v;
        t.seen.(v) <- true;
        if t.levels.(v) >= decision_level t then incr path_c else Vec.push out q
      end
      else begin
        (* Proof mode: remember level-0 variables; their unit resolutions
           are appended after the reason chain (a later antecedent may
           re-introduce the literal, so resolving early would be invalid). *)
        match t.proof with
        | Some proof when t.levels.(v) = 0 && not (Hashtbl.mem level0_done v) ->
          Hashtbl.replace level0_done v (unit_pid t proof v)
        | _ -> ()
      end
    done;
    while not t.seen.(Lit.var (Vec.get t.trail !index)) do
      decr index
    done;
    p := Vec.get t.trail !index;
    decr index;
    t.seen.(Lit.var !p) <- false;
    decr path_c;
    if !path_c <= 0 then continue := false
    else begin
      let reason = t.reasons.(Lit.var !p) in
      (match t.proof with
      | Some _ -> t.pending_steps <- (Lit.var !p, reason.pid) :: t.pending_steps
      | None -> ());
      confl := reason
    end
  done;
  Vec.set out 0 (Lit.neg !p);
  (match t.proof with
  | Some _ ->
    let level0_steps = Hashtbl.fold (fun v pid acc -> (v, pid) :: acc) level0_done [] in
    t.pending_steps <- List.rev t.pending_steps @ level0_steps
  | None -> ());
  (* Conflict-clause minimization (disabled in proof mode: the extra
     resolutions of litRedundant are not tracked). *)
  if t.proof <> None then begin
    Vec.iter (fun l -> t.seen.(Lit.var l) <- false) out;
    if Vec.size out = 1 then 0
    else begin
      let max_i = ref 1 in
      for i = 2 to Vec.size out - 1 do
        if t.levels.(Lit.var (Vec.get out i)) > t.levels.(Lit.var (Vec.get out !max_i)) then
          max_i := i
      done;
      let l = Vec.get out !max_i in
      Vec.set out !max_i (Vec.get out 1);
      Vec.set out 1 l;
      t.levels.(Lit.var l)
    end
  end
  else begin
  Vec.clear t.analyze_clear;
  for i = 1 to Vec.size out - 1 do
    Vec.push t.analyze_clear (Vec.get out i)
  done;
  let levels_mask = ref 0 in
  for i = 1 to Vec.size out - 1 do
    levels_mask := !levels_mask lor (1 lsl (t.levels.(Lit.var (Vec.get out i)) land 31))
  done;
  let kept = Vec.create ~dummy:(-1) () in
  Vec.push kept (Vec.get out 0);
  for i = 1 to Vec.size out - 1 do
    let l = Vec.get out i in
    if t.reasons.(Lit.var l) == dummy_clause || not (lit_redundant t l !levels_mask) then
      Vec.push kept l
  done;
  Vec.clear out;
  Vec.iter (fun l -> Vec.push out l) kept;
  Vec.iter (fun l -> t.seen.(Lit.var l) <- false) out;
  Vec.iter (fun l -> t.seen.(Lit.var l) <- false) t.analyze_clear;
  if Vec.size out = 1 then 0
  else begin
    let max_i = ref 1 in
    for i = 2 to Vec.size out - 1 do
      if t.levels.(Lit.var (Vec.get out i)) > t.levels.(Lit.var (Vec.get out !max_i)) then
        max_i := i
    done;
    let l = Vec.get out !max_i in
    Vec.set out !max_i (Vec.get out 1);
    Vec.set out 1 l;
    t.levels.(Lit.var l)
  end
  end

let compute_lbd t lits =
  let seen_levels = Hashtbl.create 8 in
  Array.iter
    (fun l ->
      let lev = t.levels.(Lit.var l) in
      if lev > 0 then Hashtbl.replace seen_levels lev ())
    lits;
  Hashtbl.length seen_levels

(* Subset of the assumptions responsible for the falsification of [p]
   (MiniSAT analyze_final).  Returns assumption literals themselves. *)
let analyze_final t p =
  let out = ref [ p ] in
  if decision_level t > 0 then begin
    t.seen.(Lit.var p) <- true;
    let bound = Vec.get t.trail_lim 0 in
    for i = Vec.size t.trail - 1 downto bound do
      let l = Vec.get t.trail i in
      let v = Lit.var l in
      if t.seen.(v) then begin
        if t.reasons.(v) == dummy_clause then begin
          if t.levels.(v) > 0 then out := l :: !out
        end
        else
          Array.iter
            (fun q ->
              let w = Lit.var q in
              if t.levels.(w) > 0 then t.seen.(w) <- true)
            t.reasons.(v).lits;
        t.seen.(v) <- false
      end
    done;
    t.seen.(Lit.var p) <- false
  end;
  List.sort_uniq Int.compare !out

let attach_learnt t lits =
  t.learned <- t.learned + 1;
  t.learned_lits <- t.learned_lits + Array.length lits;
  Telemetry.Counter.incr tc_learned;
  let pid =
    match t.proof with
    | None -> -1
    | Some proof ->
      Proof.add_derived proof lits ~base:t.pending_base ~steps:t.pending_steps
  in
  if Array.length lits = 1 then begin
    (* Unit learned clause: keep an unwatched record so the level-0
       assignment has a reason (needed by proof reconstruction). *)
    let reason =
      if pid >= 0 then { lits; act = 0.0; learnt = true; lbd = 0; deleted = false; pid }
      else dummy_clause
    in
    unchecked_enqueue t lits.(0) reason
  end
  else begin
    let c = { lits; act = 0.0; learnt = true; lbd = compute_lbd t lits; deleted = false; pid } in
    t.lbd_sum <- t.lbd_sum + c.lbd;
    Vec.push t.learnts c;
    watch_clause t c;
    clause_bump t c;
    unchecked_enqueue t lits.(0) c
  end

(* Proof-mode clause addition: literals are never simplified away (the
   proof replays them against level-0 unit derivations instead); the two
   watch positions are chosen among currently-non-false literals. *)
let add_clause_proof t proof part lits =
  if t.ok then begin
    cancel_until t 0;
    let lits = Array.to_list (Array.copy lits) |> List.sort_uniq Int.compare in
    let taut = List.exists (fun l -> List.mem (Lit.neg l) lits) lits in
    if not taut then begin
      (* Non-false (true or unassigned) literals first. *)
      let non_false, false_ = List.partition (fun l -> value_lit t l >= 0) lits in
      let arr = Array.of_list (non_false @ false_) in
      let pid = Proof.add_leaf proof part arr in
      let mk () = { lits = arr; act = 0.0; learnt = false; lbd = 0; deleted = false; pid } in
      match non_false with
      | [] ->
        t.ok <- false;
        if Array.length arr = 0 then Proof.set_empty proof pid else record_empty t (mk ())
      | [ l ] when value_lit t l = 0 ->
        let c = mk () in
        if Array.length arr >= 2 then begin
          Vec.push t.clauses c;
          watch_clause t c
        end;
        unchecked_enqueue t l c;
        let confl = propagate t in
        if confl != dummy_clause then begin
          t.ok <- false;
          record_empty t confl
        end
      | _ ->
        let c = mk () in
        if Array.length arr >= 2 then begin
          Vec.push t.clauses c;
          watch_clause t c
        end
    end
  end

let set_tap t f = t.tap <- Some f

let add_clause_a t lits =
  (* The tap sees the caller's literals before the cleanup below drops
     duplicates, tautologies and level-0 false literals: that is the
     clause set a certification layer checks verdicts against. *)
  (match t.tap with Some f -> f (Array.copy lits) | None -> ());
  match t.proof with
  | Some proof -> add_clause_proof t proof Proof.Part_a lits
  | None ->
  if t.ok then begin
    cancel_until t 0;
    let lits = Array.copy lits in
    Array.sort Int.compare lits;
    let keep = Vec.create ~dummy:(-1) () in
    let taut = ref false in
    Array.iter
      (fun l ->
        if not !taut then begin
          let dup = Vec.size keep > 0 && Vec.last keep = l in
          let complement = Vec.size keep > 0 && Vec.last keep = Lit.neg l in
          if complement then taut := true
          else if not dup then
            match value_lit t l with
            | 1 -> taut := true
            | -1 -> ()
            | _ -> Vec.push keep l
        end)
      lits;
    if not !taut then begin
      match Vec.size keep with
      | 0 -> t.ok <- false
      | 1 ->
        unchecked_enqueue t (Vec.get keep 0) dummy_clause;
        if propagate t != dummy_clause then t.ok <- false
      | _ ->
        let arr = Vec.to_array keep in
        let c = { lits = arr; act = 0.0; learnt = false; lbd = 0; deleted = false; pid = -1 } in
        Vec.push t.clauses c;
        watch_clause t c
    end
  end

let add_clause t lits = add_clause_a t (Array.of_list lits)

let add_clause_part t part lits =
  match t.proof with
  | Some proof -> add_clause_proof t proof part (Array.of_list lits)
  | None -> invalid_arg "Solver.add_clause_part: proof logging is off"

let proof t = t.proof

let locked t c =
  Array.length c.lits > 0
  &&
  let v = Lit.var c.lits.(0) in
  t.reasons.(v) == c && t.assigns.(v) <> 0

let reduce_db t =
  let cands = Vec.create ~dummy:dummy_clause () in
  Vec.iter
    (fun c ->
      if (not c.deleted) && Array.length c.lits > 2 && c.lbd > 2 && not (locked t c) then
        Vec.push cands c)
    t.learnts;
  Vec.sort_in_place (fun a b -> compare a.act b.act) cands;
  let n_del = Vec.size cands / 2 in
  t.deleted_learnts <- t.deleted_learnts + n_del;
  Telemetry.Counter.add tc_deleted n_del;
  for i = 0 to n_del - 1 do
    (Vec.get cands i).deleted <- true
  done;
  let kept = Vec.create ~dummy:dummy_clause () in
  Vec.iter (fun c -> if not c.deleted then Vec.push kept c) t.learnts;
  Vec.clear t.learnts;
  Vec.iter (fun c -> Vec.push t.learnts c) kept

let pick_branch_var t =
  let rec go () =
    if Heap.is_empty t.order then -1
    else
      let v = Heap.remove_max t.order in
      if t.assigns.(v) = 0 then v else go ()
  in
  go ()

let luby y x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  y ** float_of_int !seq

exception Found_result of result

(* Search under a restart bound.  [Unknown] means restart or budget out. *)
let search t assumptions nof_conflicts =
  let conflict_c = ref 0 in
  try
    while true do
      let confl = propagate t in
      if confl != dummy_clause then begin
        t.conflicts <- t.conflicts + 1;
        incr conflict_c;
        if decision_level t = 0 then begin
          t.ok <- false;
          record_empty t confl;
          raise (Found_result Unsat)
        end;
        let bt = analyze t confl in
        cancel_until t bt;
        attach_learnt t (Vec.to_array t.out_learnt);
        var_decay_activity t;
        clause_decay_activity t;
        (* Grow the learned-clause budget at geometric conflict milestones
           (MiniSAT's learntsize_adjust schedule). *)
        if t.conflicts >= t.learnt_adjust then begin
          t.learnt_adjust <-
            t.conflicts + int_of_float (float_of_int t.learnt_adjust *. (t.learnt_adjust_inc -. 1.0))
            + 100;
          t.max_learnts <- t.max_learnts *. 1.1
        end
      end
      else begin
        if t.budget > 0 && t.conflicts >= t.budget then raise (Found_result Unknown);
        if nof_conflicts > 0 && !conflict_c >= nof_conflicts then begin
          cancel_until t 0;
          raise (Found_result Unknown)
        end;
        if float_of_int (Vec.size t.learnts) >= t.max_learnts then reduce_db t;
        if decision_level t < Array.length assumptions then begin
          let p = assumptions.(decision_level t) in
          match value_lit t p with
          | 1 -> new_decision_level t
          | -1 ->
            t.conflict <- analyze_final t p;
            raise (Found_result Unsat)
          | _ ->
            new_decision_level t;
            unchecked_enqueue t p dummy_clause
        end
        else begin
          let v = pick_branch_var t in
          if v < 0 then begin
            t.model <-
              Array.init t.nvars (fun i ->
                  t.assigns.(i) = 1 || (t.assigns.(i) = 0 && t.polarity.(i)));
            raise (Found_result Sat)
          end;
          t.decisions <- t.decisions + 1;
          new_decision_level t;
          unchecked_enqueue t (Lit.of_var v (not t.polarity.(v))) dummy_clause
        end
      end
    done;
    Unknown
  with Found_result r -> r

let record_solve t ~n_assumptions ~conflicts0 ~decisions0 ~propagations0 ~restarts0 result =
  Telemetry.Counter.incr tc_solves;
  Telemetry.Counter.add tc_conflicts (t.conflicts - conflicts0);
  Telemetry.Counter.add tc_decisions (t.decisions - decisions0);
  Telemetry.Counter.add tc_propagations (t.propagations - propagations0);
  Telemetry.Counter.add tc_restarts (t.restarts - restarts0);
  let result_name, rc =
    match result with
    | Sat -> ("sat", tc_sat)
    | Unsat -> ("unsat", tc_unsat)
    | Unknown -> ("unknown", tc_unknown)
  in
  Telemetry.Counter.incr rc;
  Telemetry.event "sat.solve"
    ~fields:
      [
        ("result", Telemetry.Value.Str result_name);
        ("assumptions", Telemetry.Value.Int n_assumptions);
        ("conflicts", Telemetry.Value.Int (t.conflicts - conflicts0));
        ("decisions", Telemetry.Value.Int (t.decisions - decisions0));
        ("propagations", Telemetry.Value.Int (t.propagations - propagations0));
        ("restarts", Telemetry.Value.Int (t.restarts - restarts0));
        ("vars", Telemetry.Value.Int t.nvars);
        ("clauses", Telemetry.Value.Int (Vec.size t.clauses));
        ("learnts", Telemetry.Value.Int (Vec.size t.learnts));
      ]

let solve ?(assumptions = []) t =
  t.solves <- t.solves + 1;
  t.conflict <- [];
  let conflicts0 = t.conflicts
  and decisions0 = t.decisions
  and propagations0 = t.propagations
  and restarts0 = t.restarts in
  let record =
    record_solve t ~n_assumptions:(List.length assumptions) ~conflicts0 ~decisions0
      ~propagations0 ~restarts0
  in
  if not t.ok then begin
    t.last_result <- Unsat;
    record Unsat;
    Unsat
  end
  else begin
    cancel_until t 0;
    (* Keep the learned-clause budget monotone across incremental calls:
       repeated UNSAT proofs over the same clauses reuse each other's
       lemmas. *)
    t.max_learnts <-
      max t.max_learnts (max 4_000.0 (float_of_int (Vec.size t.clauses) /. 3.0));
    let assumptions = Array.of_list assumptions in
    let result = ref Unknown in
    let restarts = ref 0 in
    let continue = ref true in
    while !continue do
      let rest_base = luby 2.0 !restarts in
      let r = search t assumptions (int_of_float (rest_base *. float_of_int restart_first)) in
      incr restarts;
      (match r with Unknown -> t.restarts <- t.restarts + 1 | Sat | Unsat -> ());
      match r with
      | Sat | Unsat ->
        result := r;
        continue := false
      | Unknown ->
        if t.budget > 0 && t.conflicts >= t.budget then begin
          result := Unknown;
          continue := false
        end
    done;
    cancel_until t 0;
    t.last_result <- !result;
    record !result;
    !result
  end

let set_budget t n = t.budget <- (if n <= 0 then 0 else t.conflicts + n)
let clear_budget t = t.budget <- 0

let value t l =
  if t.last_result <> Sat then invalid_arg "Solver.value: last result not Sat";
  let v = Lit.var l in
  if v >= Array.length t.model then invalid_arg "Solver.value: unknown variable";
  if Lit.is_neg l then not t.model.(v) else t.model.(v)

let model t =
  if t.last_result <> Sat then invalid_arg "Solver.model: last result not Sat";
  Array.copy t.model

let final_conflict t =
  if t.last_result <> Unsat then invalid_arg "Solver.final_conflict: last result not Unsat";
  t.conflict

let n_conflicts t = t.conflicts
let n_decisions t = t.decisions
let n_propagations t = t.propagations
let n_solve_calls t = t.solves
let n_restarts t = t.restarts
let n_learned t = t.learned
let n_learned_lits t = t.learned_lits
let n_deleted t = t.deleted_learnts

let avg_lbd t = if t.learned = 0 then 0.0 else float_of_int t.lbd_sum /. float_of_int t.learned

let pp_stats ppf t =
  Format.fprintf ppf
    "vars=%d clauses=%d learnts=%d conflicts=%d decisions=%d propagations=%d solves=%d \
     restarts=%d learned=%d deleted=%d avg_lbd=%.2f"
    t.nvars (Vec.size t.clauses) (Vec.size t.learnts) t.conflicts t.decisions t.propagations
    t.solves t.restarts t.learned t.deleted_learnts (avg_lbd t)
