type stats = {
  candidates : int;
  confirmed : int;
  cut_value : int;
  improved : bool;
}

(* Multi-round simulation signature of every node in [mgr]. *)
let signatures ~rounds ~seed mgr =
  let rand = Random.State.make [| seed |] in
  let n_in = Aig.num_inputs mgr in
  let n = Aig.num_nodes mgr in
  let sigs = Array.make n [] in
  for _ = 1 to rounds do
    let words = Array.init n_in (fun _ -> Random.State.int64 rand Int64.max_int) in
    let values = Aig.simulate mgr words in
    for id = 0 to n - 1 do
      sigs.(id) <- values.(id) :: sigs.(id)
    done
  done;
  sigs

(* Signature rounds and seed; SAT confirmations per patch, conflicts per
   confirmation (an equivalence either falls out quickly from the shared
   structure or is not worth chasing) and tries per cone node. *)
let sim_rounds = 4
let seed = 0xeca
let max_queries = 600
let budget = 20_000
let max_tries = 4

let improve ?(free = []) (miter : Miter.t) (patch : Patch.t) =
  (* Signals in [free] are already paid for by other patches of the same
     ECO: reusing them costs nothing extra, so they price at 0 in the cut
     and in the acceptance comparison. *)
  let free_set = Hashtbl.create 8 in
  List.iter (fun nm -> Hashtbl.replace free_set nm ()) free;
  let effective_cost nm c = if Hashtbl.mem free_set nm then 0 else c in
  let mgr = miter.Miter.mgr in
  (* Bring the patch into the miter manager over the x-input literals. *)
  let support_lits =
    List.map
      (fun (name, _) ->
        match List.assoc_opt name miter.Miter.x_inputs with
        | Some l -> l
        | None -> invalid_arg "Cegar_min.improve: patch support is not primary inputs")
      patch.Patch.support
  in
  let root = Patch.import_into patch mgr ~support_lits in
  if Aig.is_const (Aig.node_of root) then
    (* Constant patch: nothing to resubstitute. *)
    (patch, { candidates = 0; confirmed = 0; cut_value = 0; improved = false })
  else begin
  (* Patch cone nodes (in the miter manager). *)
  let cone_mark = Aig.tfi_mark mgr [ root ] in
  let cone_nodes = ref [] in
  Array.iteri (fun id m -> if m && not (Aig.is_const id) then cone_nodes := id :: !cone_nodes) cone_mark;
  let cone_nodes = Array.of_list (List.rev !cone_nodes) in
  let index_of = Hashtbl.create 64 in
  Array.iteri (fun i id -> Hashtbl.replace index_of id i) cone_nodes;
  (* Simulation signatures over the whole manager: divisor signals and
     patch cone nodes share input words. *)
  let sigs = signatures ~rounds:sim_rounds ~seed mgr in
  let class_of = Hashtbl.create 1024 in
  (* Normalize signature by complementing when the first bit is 1 so that
     complement-equivalences land in the same class. *)
  let normalize sig_ =
    match sig_ with
    | [] -> ([], false)
    | w :: _ ->
      if Int64.logand w 1L = 1L then (List.map Int64.lognot sig_, true) else (sig_, false)
  in
  Array.iter
    (fun (d : Miter.divisor) ->
      let id = Aig.node_of d.Miter.div_lit in
      let sig_, inv = normalize sigs.(id) in
      let inv = if Aig.is_complemented d.Miter.div_lit then not inv else inv in
      let existing = Option.value ~default:[] (Hashtbl.find_opt class_of sig_) in
      Hashtbl.replace class_of sig_ ((d, inv) :: existing))
    miter.Miter.divisors;
  (* SAT confirmation environment. *)
  let solver = Sat.Solver.create () in
  let env = Aig.Cnf.create mgr solver in
  let candidates = ref 0 and confirmed = ref 0 in
  let queries = ref 0 in
  let equivalent a b =
    incr candidates;
    let x = Aig.xor_ mgr a b in
    if x = Aig.false_ then begin
      incr confirmed;
      true
    end
    else if x = Aig.true_ then false
    else if !queries >= max_queries then false
    else begin
      incr queries;
      Sat.Solver.set_budget solver budget;
      let xl = Aig.Cnf.lit env x in
      match Sat.Solver.solve ~assumptions:[ xl ] solver with
      | Sat.Solver.Unsat ->
        incr confirmed;
        true
      | _ -> false
    end
  in
  (* Cheapest confirmed equivalent divisor per cone node. *)
  let equiv_divisor = Array.make (Array.length cone_nodes) None in
  Array.iteri
    (fun i id ->
      let node_lit = Aig.lit_of_node id false in
      let sig_, inv_node = normalize sigs.(id) in
      match Hashtbl.find_opt class_of sig_ with
      | None -> ()
      | Some divs ->
        let sorted =
          List.sort (fun (a, _) (b, _) -> compare a.Miter.div_cost b.Miter.div_cost) divs
        in
        let rec try_list tries = function
          | [] -> ()
          | (d, inv_div) :: rest ->
            if tries >= max_tries then ()
            else begin
              (* node = divisor (xor inversion difference) *)
              let phase = inv_node <> inv_div in
              let d_lit = if phase then Aig.not_ d.Miter.div_lit else d.Miter.div_lit in
              if equivalent node_lit d_lit then equiv_divisor.(i) <- Some (d, phase)
              else try_list (tries + 1) rest
            end
        in
        try_list 0 sorted)
    cone_nodes;
  (* Flow network: separate the patch inputs from the root through nodes
     priced at their cheapest equivalent signal. *)
  let g = Flow.Maxflow.Node_cut.create (Array.length cone_nodes) in
  Array.iteri
    (fun i id ->
      (match equiv_divisor.(i) with
      | Some (d, _) ->
        Flow.Maxflow.Node_cut.set_node_capacity g i
          (effective_cost d.Miter.div_name d.Miter.div_cost)
      | None -> ());
      if Aig.is_and mgr id then begin
        let f0, f1 = Aig.fanins mgr id in
        List.iter
          (fun f ->
            match Hashtbl.find_opt index_of (Aig.node_of f) with
            | Some j -> Flow.Maxflow.Node_cut.add_arc g j i
            | None -> ())
          [ f0; f1 ]
      end)
    cone_nodes;
  let sources =
    List.filter_map
      (fun l -> Hashtbl.find_opt index_of (Aig.node_of l))
      support_lits
  in
  let sink = Hashtbl.find index_of (Aig.node_of root) in
  let old_cost =
    List.fold_left (fun acc (nm, c) -> acc + effective_cost nm c) 0 patch.Patch.support
  in
  let fallback value =
    (patch, { candidates = !candidates; confirmed = !confirmed; cut_value = value; improved = false })
  in
  if sources = [] then fallback 0
  else begin
    let value, cut = Flow.Maxflow.Node_cut.solve g ~sources ~sinks:[ sink ] in
    if value >= old_cost || value >= Flow.Maxflow.infinite || cut = [] then fallback value
    else begin
      (* Rebuild the patch above the cut: cut nodes become fresh inputs
         wired (conceptually) to their equivalent implementation signals. *)
      let m = Aig.create () in
      let map = Aig.fresh_map mgr in
      let new_support =
        List.map
          (fun i ->
            let id = cone_nodes.(i) in
            let d, phase =
              match equiv_divisor.(i) with Some x -> x | None -> assert false
            in
            let inp = Aig.add_input m in
            map.(id) <- (if phase then Aig.not_ inp else inp);
            (d.Miter.div_name, d.Miter.div_cost))
          cut
      in
      match Aig.import m mgr ~map [ root ] with
      | [ out ] ->
        ignore (Aig.add_output m out);
        let improved = Patch.make ~target:patch.Patch.target ~support:new_support m in
        let improved_cost =
          List.fold_left (fun acc (nm, c) -> acc + effective_cost nm c) 0 new_support
        in
        if improved_cost < old_cost || (improved_cost = old_cost && improved.Patch.gates < patch.Patch.gates) then
          ( improved,
            {
              candidates = !candidates;
              confirmed = !confirmed;
              cut_value = value;
              improved = true;
            } )
        else fallback value
      | _ -> assert false
    end
  end
  end
