type result = Sat | Unsat | Unknown

(* Growable int stack.  Local to this module so that its operations
   inline into the search loops. *)
type ivec = { mutable data : int array; mutable size : int }

let ivec_create () = { data = Array.make 16 0; size = 0 }

let ivec_grow v =
  let data = Array.make (2 * Array.length v.data) 0 in
  Array.blit v.data 0 data 0 v.size;
  v.data <- data

let[@inline] ivec_push v x =
  if v.size = Array.length v.data then ivec_grow v;
  Array.unsafe_set v.data v.size x;
  v.size <- v.size + 1

(* Appends a (clause id, blocker) watch pair. *)
let[@inline] ivec_push2 v a b =
  if v.size + 2 > Array.length v.data then ivec_grow v;
  Array.unsafe_set v.data v.size a;
  Array.unsafe_set v.data (v.size + 1) b;
  v.size <- v.size + 2

(* Assignment of a variable: 0 = undefined, 1 = true, -1 = false.
   Clauses live in a table indexed by clause id; a reason or a watch
   refers to a clause by its id, and -1 means "no clause". *)

type t = {
  mutable ok : bool;
  mutable assigns : int array; (* var -> -1/0/1 *)
  mutable levels : int array; (* var -> decision level *)
  mutable reasons : int array; (* var -> reason clause id, -1 if none *)
  mutable activity : float array; (* var -> VSIDS score *)
  mutable polarity : bool array; (* var -> saved phase *)
  mutable seen : bool array; (* var -> scratch for analyze *)
  mutable unit_pids : int array; (* var -> pid of its level-0 unit derivation *)
  (* VSIDS order: a binary max-heap of variables over [activity]. *)
  mutable heap : int array;
  mutable heap_size : int;
  mutable heap_index : int array; (* var -> position in [heap], -1 if absent *)
  mutable watches : ivec array; (* lit -> flat (clause id, blocker) pairs *)
  mutable trail : int array; (* assigned literals in order *)
  mutable trail_size : int;
  trail_lim : ivec; (* decision-level boundaries in trail *)
  mutable qhead : int;
  (* Clause table.  A freed slot has an empty literal array. *)
  mutable cl_lits : int array array;
  mutable cl_act : float array;
  mutable cl_lbd : int array; (* LBD of a learned clause, -1 for a problem clause *)
  mutable cl_pid : int array; (* proof node id; allocated in proof mode only *)
  mutable cl_top : int; (* slots handed out so far *)
  free_ids : ivec; (* recycled slots *)
  mutable n_clauses : int; (* stored problem clauses *)
  learnts : ivec; (* ids of the learned clauses, oldest first *)
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
  analyze_stack : ivec;
  analyze_clear : ivec;
  out_learnt : ivec;
  mutable level_stamp : int array; (* level -> last LBD computation that counted it *)
  mutable stamp : int;
  proof : Proof.t option;
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
  {
    ok = true;
    assigns = Array.make 16 0;
    levels = Array.make 16 (-1);
    reasons = Array.make 16 (-1);
    activity = Array.make 16 0.0;
    polarity = Array.make 16 false;
    seen = Array.make 16 false;
    unit_pids = Array.make 16 (-1);
    heap = Array.make 16 0;
    heap_size = 0;
    heap_index = Array.make 16 (-1);
    watches = Array.init 32 (fun _ -> ivec_create ());
    trail = Array.make 16 0;
    trail_size = 0;
    trail_lim = ivec_create ();
    qhead = 0;
    cl_lits = Array.make 16 [||];
    cl_act = Array.make 16 0.0;
    cl_lbd = Array.make 16 (-1);
    cl_pid = (if proof then Array.make 16 (-1) else [||]);
    cl_top = 0;
    free_ids = ivec_create ();
    n_clauses = 0;
    learnts = ivec_create ();
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
    analyze_stack = ivec_create ();
    analyze_clear = ivec_create ();
    out_learnt = ivec_create ();
    level_stamp = Array.make 16 0;
    stamp = 0;
    proof = (if proof then Some (Proof.create ()) else None);
    pending_base = -1;
    pending_steps = [];
    tap = None;
  }

let grow_to a n def =
  let b = Array.make n def in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_arrays t n =
  let old = Array.length t.assigns in
  if n > old then begin
    let m = max (2 * old) n in
    t.assigns <- grow_to t.assigns m 0;
    t.levels <- grow_to t.levels m (-1);
    t.reasons <- grow_to t.reasons m (-1);
    t.activity <- grow_to t.activity m 0.0;
    t.polarity <- grow_to t.polarity m false;
    t.seen <- grow_to t.seen m false;
    t.unit_pids <- grow_to t.unit_pids m (-1);
    t.heap <- grow_to t.heap m 0;
    t.heap_index <- grow_to t.heap_index m (-1);
    t.trail <- grow_to t.trail m 0;
    let oldw = Array.length t.watches in
    if 2 * m > oldw then
      t.watches <- Array.init (2 * m) (fun i -> if i < oldw then t.watches.(i) else ivec_create ())
  end

let nvars t = t.nvars
let nclauses t = t.n_clauses
let okay t = t.ok

(* Value of literal [l] (1 true, -1 false, 0 undefined) against [assigns]. *)
let[@inline] lit_value assigns l =
  let a = Array.unsafe_get assigns (l lsr 1) in
  if l land 1 = 1 then -a else a

(* Bounds-checked: literals from callers may name unknown variables. *)
let value_lit t l =
  let a = t.assigns.(Lit.var l) in
  if Lit.is_neg l then -a else a

let[@inline] decision_level t = t.trail_lim.size

(* {2 VSIDS heap}  Ties keep the parent above the child, and of two equal
   children the left one wins. *)

let percolate_up t i =
  let heap = t.heap and index = t.heap_index and act = t.activity in
  let v = Array.unsafe_get heap i in
  let i = ref i in
  while
    !i > 0
    && Array.unsafe_get act v > Array.unsafe_get act (Array.unsafe_get heap ((!i - 1) lsr 1))
  do
    let p = (!i - 1) lsr 1 in
    let pv = Array.unsafe_get heap p in
    Array.unsafe_set heap !i pv;
    Array.unsafe_set index pv !i;
    i := p
  done;
  Array.unsafe_set heap !i v;
  Array.unsafe_set index v !i

let percolate_down t i =
  let heap = t.heap and index = t.heap_index and act = t.activity in
  let n = t.heap_size in
  let v = Array.unsafe_get heap i in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let best = ref !i in
    if l < n && Array.unsafe_get act (Array.unsafe_get heap l) > Array.unsafe_get act v then
      best := l;
    if
      r < n
      && Array.unsafe_get act (Array.unsafe_get heap r)
         > Array.unsafe_get act (if !best = l then Array.unsafe_get heap l else v)
    then best := r;
    if !best = !i then continue := false
    else begin
      let bv = Array.unsafe_get heap !best in
      Array.unsafe_set heap !i bv;
      Array.unsafe_set index bv !i;
      i := !best
    end
  done;
  Array.unsafe_set heap !i v;
  Array.unsafe_set index v !i

let heap_insert t v =
  if Array.unsafe_get t.heap_index v < 0 then begin
    let i = t.heap_size in
    Array.unsafe_set t.heap i v;
    t.heap_size <- i + 1;
    percolate_up t i
  end

let heap_remove_max t =
  let heap = t.heap in
  let top = Array.unsafe_get heap 0 in
  t.heap_size <- t.heap_size - 1;
  Array.unsafe_set t.heap_index top (-1);
  if t.heap_size > 0 then begin
    Array.unsafe_set heap 0 (Array.unsafe_get heap t.heap_size);
    percolate_down t 0
  end;
  top

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  grow_arrays t t.nvars;
  t.assigns.(v) <- 0;
  t.levels.(v) <- -1;
  t.reasons.(v) <- -1;
  t.activity.(v) <- 0.0;
  t.polarity.(v) <- false;
  heap_insert t v;
  v

let new_vars t n =
  if n <= 0 then invalid_arg "Solver.new_vars";
  let first = new_var t in
  for _ = 2 to n do
    ignore (new_var t)
  done;
  first

let var_bump t v =
  let act = t.activity in
  Array.unsafe_set act v (Array.unsafe_get act v +. t.var_inc);
  if Array.unsafe_get act v > 1e100 then begin
    for i = 0 to t.nvars - 1 do
      act.(i) <- act.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  let i = Array.unsafe_get t.heap_index v in
  if i >= 0 then percolate_up t i

let var_decay_activity t = t.var_inc <- t.var_inc /. var_decay

let clause_bump t c =
  let act = t.cl_act in
  act.(c) <- act.(c) +. t.cla_inc;
  if act.(c) > 1e20 then begin
    let learnts = t.learnts in
    for i = 0 to learnts.size - 1 do
      let d = learnts.data.(i) in
      act.(d) <- act.(d) *. 1e-20
    done;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let clause_decay_activity t = t.cla_inc <- t.cla_inc /. clause_decay

(* Stores a clause in the table, reusing a slot freed by [reduce_db] when
   there is one, and returns its id. *)
let alloc_clause t lits ~learnt ~pid =
  let c =
    if t.free_ids.size > 0 then begin
      t.free_ids.size <- t.free_ids.size - 1;
      t.free_ids.data.(t.free_ids.size)
    end
    else begin
      let c = t.cl_top in
      if c = Array.length t.cl_lits then begin
        let m = 2 * c in
        t.cl_lits <- grow_to t.cl_lits m [||];
        t.cl_act <- grow_to t.cl_act m 0.0;
        t.cl_lbd <- grow_to t.cl_lbd m (-1);
        if t.proof <> None then t.cl_pid <- grow_to t.cl_pid m (-1)
      end;
      t.cl_top <- c + 1;
      c
    end
  in
  t.cl_lits.(c) <- lits;
  t.cl_act.(c) <- 0.0;
  t.cl_lbd.(c) <- (if learnt then 0 else -1);
  if t.proof <> None then t.cl_pid.(c) <- pid;
  c

let watch_clause t c =
  let lits = t.cl_lits.(c) in
  ivec_push2 t.watches.(lits.(0) lxor 1) c lits.(1);
  ivec_push2 t.watches.(lits.(1) lxor 1) c lits.(0)

let[@inline] enqueue t l reason =
  let v = l lsr 1 in
  Array.unsafe_set t.assigns v (if l land 1 = 1 then -1 else 1);
  Array.unsafe_set t.levels v t.trail_lim.size;
  Array.unsafe_set t.reasons v reason;
  Array.unsafe_set t.trail t.trail_size l;
  t.trail_size <- t.trail_size + 1

(* Two-watched-literal unit propagation.  Returns the id of the
   conflicting clause, or -1 when propagation completes without conflict.
   A watch pair whose blocker is true is kept without reading its clause;
   moving a watch writes two ints and allocates nothing. *)
let propagate t =
  let confl = ref (-1) in
  let assigns = t.assigns and cl_lits = t.cl_lits and watches = t.watches in
  while !confl < 0 && t.qhead < t.trail_size do
    let p = Array.unsafe_get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    let ws = Array.unsafe_get watches p in
    let data = ws.data in
    let n = ws.size in
    let false_lit = p lxor 1 in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = Array.unsafe_get data !i in
      let blocker = Array.unsafe_get data (!i + 1) in
      i := !i + 2;
      if lit_value assigns blocker = 1 then begin
        Array.unsafe_set data !j c;
        Array.unsafe_set data (!j + 1) blocker;
        j := !j + 2
      end
      else begin
        let lits = Array.unsafe_get cl_lits c in
        if Array.unsafe_get lits 0 = false_lit then begin
          Array.unsafe_set lits 0 (Array.unsafe_get lits 1);
          Array.unsafe_set lits 1 false_lit
        end;
        let first = Array.unsafe_get lits 0 in
        if first <> blocker && lit_value assigns first = 1 then begin
          Array.unsafe_set data !j c;
          Array.unsafe_set data (!j + 1) first;
          j := !j + 2
        end
        else begin
          let len = Array.length lits in
          let k = ref 2 in
          while !k < len && lit_value assigns (Array.unsafe_get lits !k) = -1 do
            incr k
          done;
          if !k < len then begin
            let w = Array.unsafe_get lits !k in
            Array.unsafe_set lits 1 w;
            Array.unsafe_set lits !k false_lit;
            ivec_push2 (Array.unsafe_get watches (w lxor 1)) c first
          end
          else begin
            Array.unsafe_set data !j c;
            Array.unsafe_set data (!j + 1) blocker;
            j := !j + 2;
            if lit_value assigns first = -1 then begin
              confl := c;
              t.qhead <- t.trail_size;
              while !i < n do
                Array.unsafe_set data !j (Array.unsafe_get data !i);
                incr i;
                incr j
              done
            end
            else enqueue t first c
          end
        end
      end
    done;
    ws.size <- !j
  done;
  !confl

let new_decision_level t = ivec_push t.trail_lim t.trail_size

let cancel_until t level =
  if decision_level t > level then begin
    let bound = t.trail_lim.data.(level) in
    let trail = t.trail and assigns = t.assigns and polarity = t.polarity
    and reasons = t.reasons in
    for i = t.trail_size - 1 downto bound do
      let l = Array.unsafe_get trail i in
      let v = l lsr 1 in
      Array.unsafe_set assigns v 0;
      Array.unsafe_set polarity v (l land 1 = 0);
      Array.unsafe_set reasons v (-1);
      heap_insert t v
    done;
    t.trail_size <- bound;
    t.trail_lim.size <- level;
    t.qhead <- bound
  end

(* Derivation of the unit clause {l} for a variable implied at level 0:
   resolve its reason clause with the unit derivations of the reason's
   other literals.  Memoized per variable; level-0 assignments are
   permanent so the memo never invalidates. *)
let rec unit_pid t proof v =
  if t.unit_pids.(v) >= 0 then t.unit_pids.(v)
  else begin
    let reason = t.reasons.(v) in
    if reason < 0 || t.cl_pid.(reason) < 0 then
      invalid_arg "Solver: missing reason for level-0 literal in proof mode";
    let self_lit = Lit.of_var v (t.assigns.(v) < 0) in
    let steps =
      Array.to_list t.cl_lits.(reason)
      |> List.filter (fun q -> Lit.var q <> v)
      |> List.map (fun q -> (Lit.var q, unit_pid t proof (Lit.var q)))
    in
    let pid = Proof.add_derived proof [| self_lit |] ~base:t.cl_pid.(reason) ~steps in
    t.unit_pids.(v) <- pid;
    pid
  end

(* Conflict at decision level 0: derive the empty clause by resolving the
   conflicting clause (literals [lits], proof node [pid]) with the unit
   derivations of all its literals. *)
let record_empty t proof lits pid =
  if pid < 0 then invalid_arg "Solver.record_empty: unlogged clause";
  let seen_vars = Hashtbl.create 8 in
  let steps =
    Array.to_list lits
    |> List.filter_map (fun q ->
           let v = Lit.var q in
           if Hashtbl.mem seen_vars v then None
           else begin
             Hashtbl.replace seen_vars v ();
             Some (v, unit_pid t proof v)
           end)
  in
  let pid = Proof.add_derived proof [||] ~base:pid ~steps in
  Proof.set_empty proof pid

let record_empty_clause t c =
  match t.proof with Some proof -> record_empty t proof t.cl_lits.(c) t.cl_pid.(c) | None -> ()

(* Check that a literal of the learned clause is implied by the others:
   its reason chain stays within already-seen variables (MiniSAT
   litRedundant).  Marks made during a failed attempt are undone. *)
let lit_redundant t l levels_mask =
  let stack = t.analyze_stack and clear = t.analyze_clear in
  let seen = t.seen and levels = t.levels and reasons = t.reasons in
  stack.size <- 0;
  ivec_push stack l;
  let top = clear.size in
  let ok = ref true in
  while !ok && stack.size > 0 do
    stack.size <- stack.size - 1;
    let c = Array.unsafe_get reasons (Array.unsafe_get stack.data stack.size lsr 1) in
    if c < 0 then ok := false
    else begin
      let lits = Array.unsafe_get t.cl_lits c in
      let k = ref 0 in
      while !ok && !k < Array.length lits do
        let q = Array.unsafe_get lits !k in
        let v = q lsr 1 in
        let lev = Array.unsafe_get levels v in
        if (not (Array.unsafe_get seen v)) && lev > 0 then begin
          if Array.unsafe_get reasons v >= 0 && levels_mask land (1 lsl (lev land 31)) <> 0
          then begin
            Array.unsafe_set seen v true;
            ivec_push stack q;
            ivec_push clear q
          end
          else ok := false
        end;
        incr k
      done
    end
  done;
  if not !ok then
    while clear.size > top do
      clear.size <- clear.size - 1;
      Array.unsafe_set seen (Array.unsafe_get clear.data clear.size lsr 1) false
    done;
  !ok

(* Moves the literal of highest level among out[1..] to position 1 and
   returns that level: the backtrack level of the learned clause. *)
let backtrack_level t out =
  if out.size = 1 then 0
  else begin
    let levels = t.levels and data = out.data in
    let max_i = ref 1 in
    for i = 2 to out.size - 1 do
      if levels.(data.(i) lsr 1) > levels.(data.(!max_i) lsr 1) then max_i := i
    done;
    let l = data.(!max_i) in
    data.(!max_i) <- data.(1);
    data.(1) <- l;
    levels.(l lsr 1)
  end

(* First-UIP conflict analysis.  Fills [t.out_learnt] with the learned
   clause (asserting literal first) and returns the backtrack level. *)
let analyze t confl =
  let out = t.out_learnt in
  let seen = t.seen and levels = t.levels and trail = t.trail in
  out.size <- 0;
  ivec_push out (-1); (* placeholder for the asserting literal *)
  let path_c = ref 0 in
  let p = ref (-1) in
  (* Proof mode: level-0 variables met on the way; their unit resolutions
     are appended after the reason chain (a later antecedent may
     re-introduce the literal, so resolving early would be invalid). *)
  let level0_done =
    match t.proof with
    | Some _ ->
      t.pending_base <- t.cl_pid.(confl);
      t.pending_steps <- [];
      Some (Hashtbl.create 8)
    | None -> None
  in
  let dl = decision_level t in
  let confl = ref confl in
  let index = ref (t.trail_size - 1) in
  let continue = ref true in
  while !continue do
    let c = !confl in
    if t.cl_lbd.(c) >= 0 then clause_bump t c;
    let lits = t.cl_lits.(c) in
    for k = (if !p = -1 then 0 else 1) to Array.length lits - 1 do
      let q = Array.unsafe_get lits k in
      let v = q lsr 1 in
      let lev = Array.unsafe_get levels v in
      if (not (Array.unsafe_get seen v)) && lev > 0 then begin
        var_bump t v;
        Array.unsafe_set seen v true;
        if lev >= dl then incr path_c else ivec_push out q
      end
      else
        match (t.proof, level0_done) with
        | Some proof, Some tbl when lev = 0 && not (Hashtbl.mem tbl v) ->
          Hashtbl.replace tbl v (unit_pid t proof v)
        | _ -> ()
    done;
    while not (Array.unsafe_get seen (Array.unsafe_get trail !index lsr 1)) do
      decr index
    done;
    p := Array.unsafe_get trail !index;
    decr index;
    Array.unsafe_set seen (!p lsr 1) false;
    decr path_c;
    if !path_c <= 0 then continue := false
    else begin
      let reason = t.reasons.(!p lsr 1) in
      if t.proof <> None then
        t.pending_steps <- (!p lsr 1, t.cl_pid.(reason)) :: t.pending_steps;
      confl := reason
    end
  done;
  out.data.(0) <- !p lxor 1;
  match level0_done with
  | Some tbl ->
    (* No conflict-clause minimization in proof mode: the extra
       resolutions of litRedundant are not tracked. *)
    let level0_steps = Hashtbl.fold (fun v pid acc -> (v, pid) :: acc) tbl [] in
    t.pending_steps <- List.rev t.pending_steps @ level0_steps;
    for i = 0 to out.size - 1 do
      seen.(out.data.(i) lsr 1) <- false
    done;
    backtrack_level t out
  | None ->
    (* Minimize in place: keep out[0] and every literal that is a decision
       or not implied by the others. *)
    let clear = t.analyze_clear in
    clear.size <- 0;
    let levels_mask = ref 0 in
    for i = 1 to out.size - 1 do
      let l = out.data.(i) in
      ivec_push clear l;
      levels_mask := !levels_mask lor (1 lsl (levels.(l lsr 1) land 31))
    done;
    let j = ref 1 in
    for i = 1 to out.size - 1 do
      let l = out.data.(i) in
      if t.reasons.(l lsr 1) < 0 || not (lit_redundant t l !levels_mask) then begin
        out.data.(!j) <- l;
        incr j
      end
    done;
    out.size <- !j;
    seen.(out.data.(0) lsr 1) <- false;
    for i = 0 to clear.size - 1 do
      seen.(clear.data.(i) lsr 1) <- false
    done;
    backtrack_level t out

(* Number of distinct nonzero decision levels among [lits]. *)
let compute_lbd t lits =
  t.stamp <- t.stamp + 1;
  let n = ref 0 in
  for i = 0 to Array.length lits - 1 do
    let lev = t.levels.(lits.(i) lsr 1) in
    if lev > 0 then begin
      if lev >= Array.length t.level_stamp then
        t.level_stamp <- grow_to t.level_stamp (2 * lev) 0;
      if t.level_stamp.(lev) <> t.stamp then begin
        t.level_stamp.(lev) <- t.stamp;
        incr n
      end
    end
  done;
  !n

(* Subset of the assumptions responsible for the falsification of [p]
   (MiniSAT analyze_final).  Returns assumption literals themselves. *)
let analyze_final t p =
  let out = ref [ p ] in
  if decision_level t > 0 then begin
    let seen = t.seen and levels = t.levels in
    seen.(Lit.var p) <- true;
    for i = t.trail_size - 1 downto t.trail_lim.data.(0) do
      let l = t.trail.(i) in
      let v = Lit.var l in
      if seen.(v) then begin
        let c = t.reasons.(v) in
        if c < 0 then begin
          if levels.(v) > 0 then out := l :: !out
        end
        else
          Array.iter
            (fun q ->
              let w = Lit.var q in
              if levels.(w) > 0 then seen.(w) <- true)
            t.cl_lits.(c);
        seen.(v) <- false
      end
    done;
    seen.(Lit.var p) <- false
  end;
  List.sort_uniq Int.compare !out

let attach_learnt t lits =
  t.learned <- t.learned + 1;
  t.learned_lits <- t.learned_lits + Array.length lits;
  Telemetry.Counter.incr tc_learned;
  let pid =
    match t.proof with
    | None -> -1
    | Some proof -> Proof.add_derived proof lits ~base:t.pending_base ~steps:t.pending_steps
  in
  if Array.length lits = 1 then begin
    (* Unit learned clause: keep an unwatched record so the level-0
       assignment has a reason (needed by proof reconstruction). *)
    let reason = if pid >= 0 then alloc_clause t lits ~learnt:true ~pid else -1 in
    enqueue t lits.(0) reason
  end
  else begin
    let c = alloc_clause t lits ~learnt:true ~pid in
    let lbd = compute_lbd t lits in
    t.cl_lbd.(c) <- lbd;
    t.lbd_sum <- t.lbd_sum + lbd;
    ivec_push t.learnts c;
    watch_clause t c;
    clause_bump t c;
    enqueue t lits.(0) c
  end

(* Stores and watches a problem clause of length >= 2. *)
let add_problem_clause t lits ~pid =
  let c = alloc_clause t lits ~learnt:false ~pid in
  t.n_clauses <- t.n_clauses + 1;
  watch_clause t c;
  c

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
      match non_false with
      | [] ->
        t.ok <- false;
        if Array.length arr = 0 then Proof.set_empty proof pid else record_empty t proof arr pid
      | [ l ] when value_lit t l = 0 ->
        let c =
          if Array.length arr >= 2 then add_problem_clause t arr ~pid
          else alloc_clause t arr ~learnt:false ~pid
        in
        enqueue t l c;
        let confl = propagate t in
        if confl >= 0 then begin
          t.ok <- false;
          record_empty_clause t confl
        end
      | _ -> if Array.length arr >= 2 then ignore (add_problem_clause t arr ~pid)
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
              match value_lit t l with 1 -> taut := true | -1 -> () | _ -> Vec.push keep l
          end)
        lits;
      if not !taut then begin
        match Vec.size keep with
        | 0 -> t.ok <- false
        | 1 ->
          enqueue t (Vec.get keep 0) (-1);
          if propagate t >= 0 then t.ok <- false
        | _ -> ignore (add_problem_clause t (Vec.to_array keep) ~pid:(-1))
      end
    end

let add_clause t lits = add_clause_a t (Array.of_list lits)

let add_clause_part t part lits =
  match t.proof with
  | Some proof -> add_clause_proof t proof part (Array.of_list lits)
  | None -> invalid_arg "Solver.add_clause_part: proof logging is off"

let proof t = t.proof

let locked t c =
  let v = Lit.var t.cl_lits.(c).(0) in
  t.reasons.(v) = c && t.assigns.(v) <> 0

(* Deletes the less active half of the learned clauses that are longer
   than 2, have LBD above 2 and are not the reason of an assignment.  The
   watch pairs of the deleted clauses are purged from every list before
   their table slots are recycled, so propagation never meets a deleted
   clause. *)
let reduce_db t =
  let learnts = t.learnts in
  let cands = ivec_create () in
  for i = 0 to learnts.size - 1 do
    let c = learnts.data.(i) in
    if Array.length t.cl_lits.(c) > 2 && t.cl_lbd.(c) > 2 && not (locked t c) then
      ivec_push cands c
  done;
  let cands = Array.sub cands.data 0 cands.size in
  let act = t.cl_act in
  Array.sort (fun a b -> Float.compare act.(a) act.(b)) cands;
  let n_del = Array.length cands / 2 in
  t.deleted_learnts <- t.deleted_learnts + n_del;
  Telemetry.Counter.add tc_deleted n_del;
  for i = 0 to n_del - 1 do
    t.cl_lits.(cands.(i)) <- [||]
  done;
  let dead c = Array.length t.cl_lits.(c) = 0 in
  let j = ref 0 in
  for i = 0 to learnts.size - 1 do
    let c = learnts.data.(i) in
    if not (dead c) then begin
      learnts.data.(!j) <- c;
      incr j
    end
  done;
  learnts.size <- !j;
  Array.iter
    (fun ws ->
      let j = ref 0 in
      for i = 0 to (ws.size / 2) - 1 do
        let c = ws.data.(2 * i) in
        if not (dead c) then begin
          ws.data.(!j) <- c;
          ws.data.(!j + 1) <- ws.data.((2 * i) + 1);
          j := !j + 2
        end
      done;
      ws.size <- !j)
    t.watches;
  for i = 0 to n_del - 1 do
    ivec_push t.free_ids cands.(i)
  done

let pick_branch_var t =
  let v = ref (-1) in
  while !v < 0 && t.heap_size > 0 do
    let x = heap_remove_max t in
    if Array.unsafe_get t.assigns x = 0 then v := x
  done;
  !v

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
      if confl >= 0 then begin
        t.conflicts <- t.conflicts + 1;
        incr conflict_c;
        if decision_level t = 0 then begin
          t.ok <- false;
          record_empty_clause t confl;
          raise (Found_result Unsat)
        end;
        let bt = analyze t confl in
        cancel_until t bt;
        attach_learnt t (Array.sub t.out_learnt.data 0 t.out_learnt.size);
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
        if float_of_int t.learnts.size >= t.max_learnts then reduce_db t;
        if decision_level t < Array.length assumptions then begin
          let p = assumptions.(decision_level t) in
          match value_lit t p with
          | 1 -> new_decision_level t
          | -1 ->
            t.conflict <- analyze_final t p;
            raise (Found_result Unsat)
          | _ ->
            new_decision_level t;
            enqueue t p (-1)
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
          enqueue t (Lit.of_var v (not t.polarity.(v))) (-1)
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
        ("clauses", Telemetry.Value.Int t.n_clauses);
        ("learnts", Telemetry.Value.Int t.learnts.size);
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
    t.max_learnts <- max t.max_learnts (max 4_000.0 (float_of_int t.n_clauses /. 3.0));
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
    t.nvars t.n_clauses t.learnts.size t.conflicts t.decisions t.propagations t.solves
    t.restarts t.learned t.deleted_learnts (avg_lbd t)
