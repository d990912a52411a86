(* Incremental rectifiability oracle: one verifier per run and one
   synthesis solver per miter, the universal over the freed signals
   expanded one fix at a time, and every copy kept for the rest of the
   run.  A pool of the witness inputs of earlier [`No] verdicts, simulated
   63 to a word, refutes most later proposals before any solve. *)

(* A netlist node, in topological order. *)
type node = {
  gate : Netlist.gate;
  fanins : int array;  (* node indices *)
  cand : int;  (* candidate index, or -1 *)
}

type key = Cone of string | Joint

(* Proposals that free more relevant candidates than this are left to
   the solvers: the pool check enumerates every constant fix. *)
let pool_fix_bits = 6

(* Remembered witness inputs, packed into the bits of one native int. *)
type word = {
  mutable width : int;  (* inputs held, in bits 0 .. width-1 *)
  vals : int array;  (* node -> its values in the plain implementation *)
  spec : int array;  (* output node -> the specification's values *)
}

(* What the oracle keeps per miter. *)
type miter = {
  relevant : bool array;  (* candidates that can reach the miter *)
  root : Sat.Lit.t;  (* the relaxed miter, in the verifier *)
  (* The synthesis solver holds the copies, each behind the [off]
     literals of the candidates its fix sets. *)
  synth : Sat.Solver.t;
  synth_env : Aig.Cnf.env;
  xs_synth : Sat.Lit.t array;  (* primary inputs *)
  off : Sat.Lit.t option array;  (* candidate -> "not freed", once some copy uses it *)
  (* Decided proposals, as their sorted relevant candidates. *)
  mutable sufficient : int list list;
  mutable insufficient : int list list;
}

type t = {
  mgr : Aig.t;
  nodes : node array;
  base : Aig.lit array;  (* node -> its literal in the plain implementation *)
  relaxed : Aig.lit array;  (* node -> its literal with every candidate relaxed *)
  index_of : (string, int) Hashtbl.t;
  spec_lit : string -> Aig.lit;
  outputs : string list;
  mismatched : (string, unit) Hashtbl.t;
  (* The transitive fanout of the last proposal, and scratch literals
     for the copy being built over it. *)
  mutable tfo_freed : bool array;
  mutable tfo : int array;
  in_tfo : bool array;
  scratch : Aig.lit array;
  (* The verifier holds the relaxed miters; an input, a proposal and a
     miter are assumptions over [xs_verif], [acts] and the miter's
     [root]. *)
  verif : Sat.Solver.t;
  verif_env : Aig.Cnf.env;
  xs_verif : Sat.Lit.t array;  (* primary inputs *)
  acts : Sat.Lit.t array;  (* candidate -> its activation input a_c *)
  frees : Sat.Lit.t array;  (* candidate -> its free input z_c *)
  inputs : Aig.lit array;  (* primary inputs, for each synthesis solver *)
  miters : (key, miter) Hashtbl.t;
  (* The pool, newest word first; empty until the first [`No] a solve
     proves. *)
  pis : int array;  (* primary input -> node *)
  mutable pool : word list;
  sim : int array;  (* node -> scratch pool values over the TFO *)
}

let tc_fixes = Telemetry.Counter.make "diff.fixes"
let tc_recalled = Telemetry.Counter.make "diff.recalled"
let tc_pool_refuted = Telemetry.Counter.make "diff.pool_refuted"

let gate_word gate v =
  let fold op init = Array.fold_left op init v in
  match gate with
  | Netlist.Const0 -> 0
  | Netlist.Const1 -> -1
  | Netlist.Buf -> v.(0)
  | Netlist.Not -> lnot v.(0)
  | Netlist.And -> fold ( land ) (-1)
  | Netlist.Or -> fold ( lor ) 0
  | Netlist.Nand -> lnot (fold ( land ) (-1))
  | Netlist.Nor -> lnot (fold ( lor ) 0)
  | Netlist.Xor -> fold ( lxor ) 0
  | Netlist.Xnor -> lnot (fold ( lxor ) 0)
  | Netlist.Mux -> (v.(0) land v.(1)) lor (lnot v.(0) land v.(2))
  | Netlist.Input -> invalid_arg "Rectify.gate_word"

let create mgr ~impl ~impl_lit ~spec_lit ~mismatched ~candidates =
  let order = Array.of_list (Netlist.topological_order impl) in
  let index_of = Hashtbl.create (Array.length order) in
  Array.iteri (fun i name -> Hashtbl.replace index_of name i) order;
  let cand_of = Hashtbl.create (Array.length candidates) in
  Array.iteri
    (fun c name ->
      if not (Hashtbl.mem index_of name) then
        invalid_arg ("Rectify.create: unknown candidate " ^ name);
      if (Netlist.node impl name).Netlist.gate = Netlist.Input then
        invalid_arg ("Rectify.create: candidate is an input: " ^ name);
      Hashtbl.replace cand_of name c)
    candidates;
  let nodes =
    Array.map
      (fun name ->
        let n = Netlist.node impl name in
        {
          gate = n.Netlist.gate;
          fanins = Array.map (Hashtbl.find index_of) n.Netlist.fanins;
          cand = Option.value ~default:(-1) (Hashtbl.find_opt cand_of name);
        })
      order
  in
  let base = Array.map impl_lit order in
  let n_cand = Array.length candidates in
  let act = Array.init n_cand (fun _ -> Aig.add_input mgr) in
  let free = Array.init n_cand (fun _ -> Aig.add_input mgr) in
  (* Every candidate c becomes [a_c ? z_c : f_c], f_c its own gate over
     the relaxed fanins. *)
  let relaxed = Array.copy base in
  Array.iteri
    (fun i nd ->
      if nd.gate <> Netlist.Input then begin
        let f =
          Netlist.Convert.reduce_gate mgr nd.gate
            (Array.to_list (Array.map (fun f -> relaxed.(f)) nd.fanins))
        in
        relaxed.(i) <- (if nd.cand >= 0 then Aig.ite mgr act.(nd.cand) free.(nd.cand) f else f)
      end)
    nodes;
  let mis = Hashtbl.create 16 in
  List.iter (fun o -> Hashtbl.replace mis o ()) mismatched;
  let verif = Sat.Solver.create () in
  let verif_env = Aig.Cnf.create mgr verif in
  let inputs = Array.of_list (List.map impl_lit (Netlist.inputs impl)) in
  let encode env lits = Array.map (Aig.Cnf.lit env) lits in
  {
    mgr;
    nodes;
    base;
    relaxed;
    index_of;
    spec_lit;
    outputs = Netlist.outputs impl;
    mismatched = mis;
    tfo_freed = [||];
    tfo = [||];
    in_tfo = Array.make (Array.length nodes) false;
    scratch = Array.copy base;
    verif;
    verif_env;
    xs_verif = encode verif_env inputs;
    acts = encode verif_env act;
    frees = encode verif_env free;
    inputs;
    miters = Hashtbl.create 16;
    pis = Array.of_list (List.map (Hashtbl.find index_of) (Netlist.inputs impl));
    pool = [];
    sim = Array.make (Array.length nodes) 0;
  }

let output_miter t lits o = Aig.xor_ t.mgr lits.(Hashtbl.find t.index_of o) (t.spec_lit o)

let make_miter t key =
  let n_cand = Array.length t.acts in
  let relevant, root =
    match key with
    | Joint ->
      (* With the input and the proposal both assumed, an output the
         proposal does not reach evaluates to its anchored value, so the
         verifier's miter may take every output. *)
      (Array.make n_cand true, Aig.or_list t.mgr (List.map (output_miter t t.relaxed) t.outputs))
    | Cone o ->
      let reach = Array.make (Array.length t.nodes) false in
      reach.(Hashtbl.find t.index_of o) <- true;
      let relevant = Array.make n_cand false in
      for i = Array.length t.nodes - 1 downto 0 do
        let nd = t.nodes.(i) in
        if reach.(i) then begin
          Array.iter (fun f -> reach.(f) <- true) nd.fanins;
          if nd.cand >= 0 then relevant.(nd.cand) <- true
        end
      done;
      (relevant, output_miter t t.relaxed o)
  in
  let synth = Sat.Solver.create () in
  let synth_env = Aig.Cnf.create t.mgr synth in
  {
    relevant;
    root = Aig.Cnf.lit t.verif_env root;
    synth;
    synth_env;
    xs_synth = Array.map (Aig.Cnf.lit synth_env) t.inputs;
    off = Array.make n_cand None;
    sufficient = [];
    insufficient = [];
  }

let find_miter t key =
  match Hashtbl.find_opt t.miters key with
  | Some m -> m
  | None ->
    let m = make_miter t key in
    Hashtbl.replace t.miters key m;
    m

(* The netlist nodes the proposal [freed] reaches, topologically. *)
let set_tfo t freed =
  if freed <> t.tfo_freed then begin
    Array.fill t.in_tfo 0 (Array.length t.in_tfo) false;
    let tfo = ref [] in
    Array.iteri
      (fun i nd ->
        if (nd.cand >= 0 && freed.(nd.cand)) || Array.exists (fun f -> t.in_tfo.(f)) nd.fanins
        then begin
          t.in_tfo.(i) <- true;
          tfo := i :: !tfo
        end)
      t.nodes;
    t.tfo_freed <- Array.copy freed;
    t.tfo <- Array.of_list (List.rev !tfo)
  end

(* The miter of [key] with the freed candidates fixed to [fix]: the
   implementation cut open at the proposal, cofactored.  Built in the
   manager, so constant folding and structural hashing reduce it to the
   logic the fix changes, shared with every other copy and the
   specification. *)
let fixed_miter t key fix =
  let lit i = if t.in_tfo.(i) then t.scratch.(i) else t.base.(i) in
  Array.iter
    (fun i ->
      let nd = t.nodes.(i) in
      t.scratch.(i) <-
        (if nd.cand >= 0 && t.tfo_freed.(nd.cand) then if fix nd.cand then Aig.true_ else Aig.false_
         else
           Netlist.Convert.reduce_gate t.mgr nd.gate (Array.to_list (Array.map lit nd.fanins))))
    t.tfo;
  let miter o = Aig.xor_ t.mgr (lit (Hashtbl.find t.index_of o)) (t.spec_lit o) in
  match key with
  | Cone o -> miter o
  | Joint ->
    (* Outputs outside the proposal's reach keep their anchored value. *)
    Aig.or_list t.mgr
      (List.filter_map
         (fun o ->
           if Hashtbl.mem t.mismatched o || t.in_tfo.(Hashtbl.find t.index_of o) then
             Some (miter o)
           else None)
         t.outputs)

(* Adds the copy "the miter holds under the verifier's fix" to the
   miter's synthesis solver, behind the [off] literals of the proposal
   [s].  Under a later proposal that frees all of [s], the copy is the
   miter under one candidate fix, so every input that no fix repairs
   satisfies it: the copies stay sound for the rest of the run.  (A copy
   of the relaxed miter would hold under every proposal, but its
   multiplexers on variable activations block the constant folding, and
   proving a sufficient cut then takes the solver thousands of conflicts
   where the folded copies take tens.) *)
let add_fix t m key s =
  let fix c = m.relevant.(c) && Sat.Solver.value t.verif t.frees.(c) in
  let copy = Aig.Cnf.lit m.synth_env (fixed_miter t key fix) in
  let off c =
    match m.off.(c) with
    | Some l -> l
    | None ->
      let l = Sat.Lit.make (Sat.Solver.new_var m.synth) in
      m.off.(c) <- Some l;
      l
  in
  Sat.Solver.add_clause m.synth (copy :: List.map off s);
  Telemetry.Counter.incr tc_fixes

(* Adds the witness input [x] (a value per primary input) to the pool
   and simulates its word again in the manager, for the plain
   implementation's nodes and the specification's outputs. *)
let remember t x =
  let n = Array.length t.nodes in
  let w =
    match t.pool with
    | w :: _ when w.width < Sys.int_size -> w
    | _ ->
      let w = { width = 0; vals = Array.make n 0; spec = Array.make n 0 } in
      t.pool <- w :: t.pool;
      w
  in
  let words = Array.make (Aig.num_inputs t.mgr) 0L in
  Array.iteri
    (fun p i ->
      if x.(p) then w.vals.(i) <- w.vals.(i) lor (1 lsl w.width);
      words.(Aig.input_index t.mgr (Aig.node_of t.base.(i))) <- Int64.of_int w.vals.(i))
    t.pis;
  w.width <- w.width + 1;
  let values = Aig.simulate t.mgr words in
  let value l = Int64.to_int (Aig.lit_value values l) in
  Array.iteri (fun i l -> w.vals.(i) <- value l) t.base;
  List.iter (fun o -> w.spec.(Hashtbl.find t.index_of o) <- value (t.spec_lit o)) t.outputs

(* Whether some pooled input stays mismatched on the miter of [key]
   under every constant fix of [s], the proposal's freed relevant
   candidates: then no fix repairs it, and the answer is [`No].  Only the
   proposal's TFO is simulated again; every other node keeps its pooled
   value. *)
let pool_refutes t key s =
  let k = List.length s in
  t.pool <> []
  && k <= pool_fix_bits
  &&
  let bit = Array.make (Array.length t.acts) (-1) in
  List.iteri (fun j c -> bit.(c) <- j) s;
  let outs =
    match key with
    | Cone o -> [ Hashtbl.find t.index_of o ]
    | Joint ->
      (* As [fixed_miter]: outputs outside the proposal's reach keep
         their anchored value. *)
      List.filter_map
        (fun o ->
          let i = Hashtbl.find t.index_of o in
          if Hashtbl.mem t.mismatched o || t.in_tfo.(i) then Some i else None)
        t.outputs
  in
  List.exists
    (fun w ->
      let value i = if t.in_tfo.(i) then t.sim.(i) else w.vals.(i) in
      let alive = ref (if w.width = Sys.int_size then -1 else (1 lsl w.width) - 1) in
      let fix = ref 0 in
      while !alive <> 0 && !fix < 1 lsl k do
        Array.iter
          (fun i ->
            let nd = t.nodes.(i) in
            t.sim.(i) <-
              (if nd.cand >= 0 && t.tfo_freed.(nd.cand) then
                 if bit.(nd.cand) >= 0 && (!fix lsr bit.(nd.cand)) land 1 = 1 then -1 else 0
               else gate_word nd.gate (Array.map value nd.fanins)))
          t.tfo;
        alive := !alive land List.fold_left (fun acc i -> acc lor (value i lxor w.spec.(i))) 0 outs;
        incr fix
      done;
      !alive <> 0)
    t.pool

(* [subset a b] on ascending lists. *)
let rec subset a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' -> if x = y then subset a' b' else if x > y then subset a b' else false

(* Freeing more signals never hurts: a proposal that contains a
   sufficient one is sufficient, and one inside an insufficient one is
   insufficient. *)
let recall m s =
  if List.exists (fun d -> subset d s) m.sufficient then Some `Yes
  else if List.exists (fun d -> subset s d) m.insufficient then Some `No
  else None

(* The CEGAR loop on the solvers, for a proposal the pool does not
   refute.  A [`No] adds its witness input to the pool. *)
let solve_check t m ~budget key s freed =
  let used = ref 0 in
  (* Every solve of this check draws on one conflict budget. *)
  let solve solver assumptions =
    let left = budget - !used in
    if left <= 0 then Sat.Solver.Unknown
    else begin
      Sat.Solver.set_budget solver left;
      let before = Sat.Solver.n_conflicts solver in
      let r = Sat.Solver.solve ~assumptions solver in
      used := !used + Sat.Solver.n_conflicts solver - before;
      r
    end
  in
  (* Every input and every activation is assumed, so the verifier only
     searches the free inputs of the proposal. *)
  let proposal =
    Sat.Lit.neg m.root
    :: Array.to_list (Array.mapi (fun c a -> Sat.Lit.apply_sign a (not freed.(c))) t.acts)
  in
  let rec loop () =
    (* An input that every fix collected for a part of [s] leaves
       mismatched ... *)
    let enabled = List.filter_map (fun c -> Option.map Sat.Lit.neg m.off.(c)) s in
    match solve m.synth enabled with
    | Sat.Solver.Unknown -> `Unknown
    | Sat.Solver.Unsat -> `Yes
    | Sat.Solver.Sat -> (
      let x = Array.map (Sat.Solver.value m.synth) m.xs_synth in
      let input =
        Array.to_list (Array.mapi (fun i l -> Sat.Lit.apply_sign l (not x.(i))) t.xs_verif)
      in
      (* ... and whether some fix repairs it under this proposal. *)
      match solve t.verif (input @ proposal) with
      | Sat.Solver.Unknown -> `Unknown
      | Sat.Solver.Unsat ->
        remember t x;
        `No
      | Sat.Solver.Sat ->
        add_fix t m key s;
        loop ())
  in
  loop ()

let check t ~budget key freed =
  Telemetry.with_phase "rectify" @@ fun () ->
  let m = find_miter t key in
  let s =
    List.filter (fun c -> freed.(c) && m.relevant.(c)) (List.init (Array.length freed) Fun.id)
  in
  match recall m s with
  | Some verdict ->
    Telemetry.Counter.incr tc_recalled;
    verdict
  | None ->
    set_tfo t freed;
    let verdict =
      if pool_refutes t key s then begin
        Telemetry.Counter.incr tc_pool_refuted;
        `No
      end
      else solve_check t m ~budget key s freed
    in
    (match verdict with
    | `Yes -> m.sufficient <- s :: m.sufficient
    | `No -> m.insufficient <- s :: m.insufficient
    | `Unknown -> ());
    verdict

let cone t ~budget o freed = check t ~budget (Cone o) freed
let joint t ~budget freed = check t ~budget Joint freed
