type stats = {
  sim_classes : int;
  proved : int;
  refuted : int;
  undecided : int;
  nodes_before : int;
  nodes_after : int;
}

let random_signatures ~rounds ~seed mgr =
  let rand = Random.State.make [| seed |] in
  let n_in = Graph.num_inputs mgr in
  let acc = Array.make (Graph.num_nodes mgr) [] in
  for _ = 1 to rounds do
    let words = Array.init n_in (fun _ -> Random.State.int64 rand Int64.max_int) in
    let values = Graph.simulate mgr words in
    Array.iteri (fun id v -> acc.(id) <- v :: acc.(id)) values
  done;
  acc

(* Normalize a signature so a function and its complement share a key. *)
let normalize sig_ =
  match sig_ with
  | [] -> ([], false)
  | w :: _ ->
    if Int64.logand w 1L = 1L then (List.map Int64.lognot sig_, true) else (sig_, false)

(* Merge attempts per node, refuted plus undecided candidates per sweep,
   and the seed of the simulation signatures. *)
let max_tries = 4
let max_disproofs = 500
let seed = 0xF4A16

(* One merge pass over the nodes.  Returns the rebuilt manager plus the
   counterexample input patterns collected from refuted candidates; many
   counterexamples mean the signatures were too coarse and the caller
   should refine and retry. *)
let merge_pass ~n0 ~budget ~max_queries ~queries mgr reachable sigs stats_proved stats_refuted
    stats_undecided stats_classes =
  let outs = Array.to_list (Graph.outputs mgr) in
  let solver = Sat.Solver.create () in
  let env = Cnf.create mgr solver in
  let cexs = ref [] in
  let n_cex = ref 0 in
  let record_cex () =
    if !n_cex < 62 then begin
      incr n_cex;
      let pattern =
        Array.map
          (fun l ->
            match Cnf.lit_opt env l with
            | Some sl -> Sat.Solver.value solver sl
            | None -> false)
          (Graph.inputs mgr)
      in
      cexs := pattern :: !cexs
    end
  in
  let equivalent a b =
    let x = Graph.xor_ mgr a b in
    if x = Graph.false_ then true
    else if x = Graph.true_ then false
    else if !stats_refuted + !stats_undecided >= max_disproofs || !queries >= max_queries then
      false
    else begin
      incr queries;
      Sat.Solver.set_budget solver budget;
      let xl = Cnf.lit env x in
      match Sat.Solver.solve ~assumptions:[ xl ] solver with
      | Sat.Solver.Unsat ->
        incr stats_proved;
        true
      | Sat.Solver.Sat ->
        incr stats_refuted;
        record_cex ();
        false
      | Sat.Solver.Unknown ->
        incr stats_undecided;
        false
    end
  in
  let dst = Graph.create ~capacity:n0 () in
  let map = Array.make n0 Graph.false_ in
  let buckets : (int64 list, (int * bool) list) Hashtbl.t = Hashtbl.create 1024 in
  (* Every input is recreated (in order) so arities survive the sweep.
     Equivalence queries add fresh XOR nodes to [mgr]; only the original
     [n0] nodes are candidates. *)
  Array.iter (fun l -> map.(Graph.node_of l) <- Graph.add_input dst) (Graph.inputs mgr);
  for id = 1 to n0 - 1 do
    if reachable.(id) && Graph.is_and mgr id then begin
      let f0, f1 = Graph.fanins mgr id in
      let im l =
        let v = map.(Graph.node_of l) in
        if Graph.is_complemented l then Graph.not_ v else v
      in
      let image = ref (Graph.and_ dst (im f0) (im f1)) in
      let key, inv_self = normalize sigs.(id) in
      let bucket = Option.value ~default:[] (Hashtbl.find_opt buckets key) in
      if bucket <> [] then incr stats_classes;
      (* Try to merge with an already-emitted representative. *)
      let rec try_merge tries = function
        | [] -> ()
        | (rep_id, inv_rep) :: rest ->
          if tries >= max_tries then ()
          else begin
            let phase = inv_self <> inv_rep in
            let rep_lit = Graph.lit_of_node rep_id phase in
            if equivalent (Graph.lit_of_node id false) rep_lit then begin
              let rep_image = map.(rep_id) in
              image := (if phase then Graph.not_ rep_image else rep_image)
            end
            else try_merge (tries + 1) rest
          end
      in
      try_merge 0 bucket;
      Hashtbl.replace buckets key ((id, inv_self) :: bucket);
      map.(id) <- !image
    end
  done;
  List.iter
    (fun l ->
      let v = map.(Graph.node_of l) in
      ignore (Graph.add_output dst (if Graph.is_complemented l then Graph.not_ v else v)))
    outs;
  (dst, !cexs)

let sweep ?(rounds = 8) ?(budget = 2000) ?(max_queries = max_int) ?(max_passes = 4) mgr =
  let outs = Array.to_list (Graph.outputs mgr) in
  let n0 = Graph.num_nodes mgr in
  let reachable = Graph.tfi_mark mgr outs in
  let sigs = random_signatures ~rounds ~seed mgr in
  let proved = ref 0 and refuted = ref 0 and undecided = ref 0 in
  let classes = ref 0 and queries = ref 0 in
  let result = ref None in
  let passes = ref 0 in
  (* Counterexample-guided refinement: a pass that refutes many candidates
     contributes its distinguishing input patterns to the signatures, and
     the merge is redone with the sharper classes. *)
  while !result = None do
    incr passes;
    let dst, cexs =
      merge_pass ~n0 ~budget ~max_queries ~queries mgr reachable sigs proved refuted undecided
        classes
    in
    if List.length cexs < 4 || !passes >= max_passes then result := Some dst
    else begin
      let n_in = Graph.num_inputs mgr in
      let words = Array.make n_in 0L in
      List.iteri
        (fun bit pattern ->
          Array.iteri
            (fun i b ->
              if b then words.(i) <- Int64.logor words.(i) (Int64.shift_left 1L bit))
            pattern)
        cexs;
      let values = Graph.simulate mgr words in
      Array.iteri (fun id v -> if id < n0 then sigs.(id) <- v :: sigs.(id)) values
    end
  done;
  let dst = match !result with Some d -> d | None -> assert false in
  ( dst,
    {
      sim_classes = !classes;
      proved = !proved;
      refuted = !refuted;
      undecided = !undecided;
      nodes_before = Graph.count_cone_ands mgr outs;
      nodes_after = Graph.count_cone_ands dst (Array.to_list (Graph.outputs dst));
    } )
