let tc_runs = Telemetry.Counter.make "synth.rewrite.runs"
let tc_cuts = Telemetry.Counter.make "synth.rewrite.cuts"
let tc_replacements = Telemetry.Counter.make "synth.rewrite.replacements"

let max_cut_inputs = 4
let max_cuts_per_node = 8
let cone_limit = 32

(* Union of two sorted leaf arrays; [None] when it exceeds the cut size. *)
let merge_leaves a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make max_cut_inputs 0 in
  let rec go i j n =
    if i = la && j = lb then Some (Array.sub out 0 n)
    else if n = max_cut_inputs then None
    else if j = lb || (i < la && a.(i) < b.(j)) then begin
      out.(n) <- a.(i);
      go (i + 1) j (n + 1)
    end
    else if i = la || b.(j) < a.(i) then begin
      out.(n) <- b.(j);
      go i (j + 1) (n + 1)
    end
    else begin
      out.(n) <- a.(i);
      go (i + 1) (j + 1) (n + 1)
    end
  in
  go 0 0 0

exception Too_big

(* Truth table of [root]'s cone over the cut leaves.  Cut merging
   guarantees every root-to-PI path crosses a leaf, so the DFS only has
   to bail out on oversized cones. *)
let cut_tt m root leaves =
  let k = Array.length leaves in
  let tbl = Hashtbl.create 16 in
  Array.iteri (fun i n -> Hashtbl.replace tbl n (Tt.var k i)) leaves;
  let visited = ref 0 in
  let rec node_tt n =
    match Hashtbl.find_opt tbl n with
    | Some tt -> tt
    | None ->
      if Aig.is_const n then Tt.const k false
      else begin
        incr visited;
        if !visited > cone_limit then raise Too_big;
        let fa, fb = Aig.fanins m n in
        let ta = lit_tt fa and tb = lit_tt fb in
        let tt = Tt.make k (Int64.logand ta.Tt.bits tb.Tt.bits) in
        Hashtbl.replace tbl n tt;
        tt
      end
  and lit_tt l =
    let tt = node_tt (Aig.node_of l) in
    if Aig.is_complemented l then Tt.make k (Int64.lognot tt.Tt.bits) else tt
  in
  try Some (node_tt root) with Too_big -> None

(* AND nodes freed when [node]'s cone over [leaves] is replaced: the
   node itself plus the ABC-style maximum fanout-free cone, computed by
   a deref walk on the reference counts and undone by the mirror reref
   walk.  Interior nodes still referenced from outside survive and are
   not counted. *)
let cut_saved src refs node leaves =
  let is_leaf n = Array.exists (fun l -> l = n) leaves in
  let freed = ref 1 in
  let rec deref n =
    let fa, fb = Aig.fanins src n in
    List.iter
      (fun f ->
        let fn = Aig.node_of f in
        if Aig.is_and src fn && not (is_leaf fn) then begin
          refs.(fn) <- refs.(fn) - 1;
          if refs.(fn) = 0 then begin
            incr freed;
            deref fn
          end
        end)
      [ fa; fb ]
  in
  let rec reref n =
    let fa, fb = Aig.fanins src n in
    List.iter
      (fun f ->
        let fn = Aig.node_of f in
        if Aig.is_and src fn && not (is_leaf fn) then begin
          if refs.(fn) = 0 then reref fn;
          refs.(fn) <- refs.(fn) + 1
        end)
      [ fa; fb ]
  in
  deref node;
  let saved = !freed in
  reref node;
  saved

(* What to build for a replaced node: a constant, a (possibly inverted)
   cut leaf, or an imported optimal implementation over the leaves. *)
type impl =
  | Const of bool
  | Leaf of int * bool
  | Network of int array * Exact.solution

(* Weights of the local candidate cost [α·Δgates + β·Δdepth]: trade up to
   four levels for one gate, the ABC-like default. *)
let gate_weight = 4
let depth_weight = 1

let run ?(budget = 5_000) ?(deadline = Deadline.never) src =
  Telemetry.Counter.incr tc_runs;
  let n = Aig.num_nodes src in
  let refs = Aig.fanout_counts src in
  let cuts = Array.make n [] in
  let choice = Array.make n None in
  (* Pass 1: enumerate cuts bottom-up and decide, per node, whether some
     cut implementation beats rebuilding the node as-is.  The score is
     the weighted change [α·(gates added − gates freed) + β·Δdepth];
     only strictly negative scores are accepted, so ties keep the
     original structure. *)
  Array.iter (fun l -> cuts.(Aig.node_of l) <- [ [| Aig.node_of l |] ]) (Aig.inputs src);
  for node = 1 to n - 1 do
    if Aig.is_and src node && refs.(node) > 0 then begin
      let fa, fb = Aig.fanins src node in
      let na = Aig.node_of fa and nb = Aig.node_of fb in
      let merged =
        List.concat_map
          (fun ca -> List.filter_map (fun cb -> merge_leaves ca cb) cuts.(nb))
          cuts.(na)
      in
      let node_cuts =
        List.sort_uniq compare merged
        |> List.sort (fun a b -> compare (Array.length a) (Array.length b))
        |> fun l ->
        List.filteri (fun i _ -> i < max_cuts_per_node - 1) l @ [ [| node |] ]
      in
      cuts.(node) <- node_cuts;
      if not (Deadline.expired deadline) then begin
        let best_score = ref 0 in
        List.iter
          (fun leaves ->
            let k = Array.length leaves in
            if k >= 2 && leaves.(k - 1) < node then
              match cut_tt src node leaves with
              | None -> ()
              | Some tt -> (
                Telemetry.Counter.incr tc_cuts;
                let saved = cut_saved src refs node leaves in
                let leaf_level i = Aig.level src leaves.(i) in
                let consider impl ~gates ~depth =
                  let new_depth =
                    Array.to_list (Array.init k leaf_level)
                    |> List.fold_left max 0
                    |> ( + ) depth
                  in
                  let score =
                    (gate_weight * (gates - saved))
                    + (depth_weight * (new_depth - Aig.level src node))
                  in
                  if score < !best_score then begin
                    best_score := score;
                    choice.(node) <- Some impl
                  end
                in
                match Tt.is_const tt with
                | Some b -> consider (Const b) ~gates:0 ~depth:0
                | None -> (
                  match Tt.as_var tt with
                  | Some (i, phase) ->
                    consider (Leaf (leaves.(i), phase)) ~gates:0 ~depth:0
                  | None -> (
                    match Table.lookup ~budget ~deadline tt with
                    | None -> ()
                    | Some sol ->
                      consider
                        (Network (leaves, sol))
                        ~gates:sol.Exact.gates ~depth:sol.Exact.depth))))
          node_cuts
      end
    end
  done;
  (* Pass 2: rebuild the output cones top-down.  Displaced logic is
     never demanded, so it is simply not constructed; structural hashing
     in the destination recovers any sharing the estimates missed. *)
  let dst = Aig.create () in
  let unset = min_int in
  let map = Array.make n unset in
  map.(0) <- Aig.false_;
  Array.iter (fun l -> map.(Aig.node_of l) <- Aig.add_input dst) (Aig.inputs src);
  let rec image node =
    if map.(node) <> unset then map.(node)
    else begin
      let l =
        match choice.(node) with
        | None ->
          let fa, fb = Aig.fanins src node in
          Aig.and_ dst (lit_image fa) (lit_image fb)
        | Some (Const b) -> if b then Aig.true_ else Aig.false_
        | Some (Leaf (leaf, phase)) ->
          let l = image leaf in
          if phase then l else Aig.not_ l
        | Some (Network (leaves, sol)) ->
          let im = Aig.fresh_map sol.Exact.aig in
          Array.iteri
            (fun i inp -> im.(Aig.node_of inp) <- image leaves.(i))
            (Aig.inputs sol.Exact.aig);
          List.hd (Aig.import dst sol.Exact.aig ~map:im [ Aig.output sol.Exact.aig 0 ])
      in
      if choice.(node) <> None then Telemetry.Counter.incr tc_replacements;
      map.(node) <- l;
      l
    end
  and lit_image l =
    let image = image (Aig.node_of l) in
    if Aig.is_complemented l then Aig.not_ image else image
  in
  Array.iter (fun l -> ignore (Aig.add_output dst (lit_image l))) (Aig.outputs src);
  dst
