type result = {
  patch : Patch.t;
  bdd_nodes : int;
  cubes : int;
}

(* Window inputs beyond which BDDs are not attempted. *)
let max_vars = 24

let compute (miter : Miter.t) ~m_i ~target ~(window : Window.t) =
  let support_names =
    List.filter (fun n -> List.mem_assoc n miter.Miter.x_inputs) window.Window.window_pis
  in
  let k = List.length support_names in
  if k > max_vars then None
  else begin
    let mgr = miter.Miter.mgr in
    let n_lit = Miter.target_lit miter target in
    let cof phase =
      match Aig.cofactor mgr ~var:n_lit phase [ m_i ] with
      | [ l ] -> l
      | _ -> assert false
    in
    let m0 = cof false and m1 = cof true in
    (* Variable i of the BDD = i-th window PI. *)
    let man = Bdd.create k in
    let pi_index = Hashtbl.create 16 in
    List.iteri (fun i n -> Hashtbl.replace pi_index n i) support_names;
    let input_map =
      let by_ordinal = Hashtbl.create 16 in
      List.iteri
        (fun i name ->
          let lit = List.assoc name miter.Miter.x_inputs in
          ignore i;
          Hashtbl.replace by_ordinal
            (Aig.input_index mgr (Aig.node_of lit))
            (Bdd.var man (Hashtbl.find pi_index name)))
        support_names;
      fun ordinal ->
        match Hashtbl.find_opt by_ordinal ordinal with
        | Some b -> b
        | None -> invalid_arg "Patch_bdd: miter cone escapes the window inputs"
    in
    let onset = Bdd.of_aig man mgr ~map:input_map m0 in
    let offset = Bdd.of_aig man mgr ~map:input_map m1 in
    if not (Bdd.is_false (Bdd.and_ man onset offset)) then
      failwith "Patch_bdd.compute: target cannot rectify (onset meets offset)";
    let sop, _cover = Bdd.isop man ~lower:onset ~upper:(Bdd.not_ man offset) in
    let sop = Twolevel.Sop.scc_minimize sop in
    let expr = Twolevel.Factor.factor sop in
    let weights_of name =
      match Array.find_opt (fun d -> d.Miter.div_name = name) miter.Miter.divisors with
      | Some d -> d.Miter.div_cost
      | None -> 1
    in
    let support = List.map (fun n -> (n, weights_of n)) support_names in
    let patch = Patch.of_expr ~sop ~target ~support expr in
    Some
      {
        patch;
        bdd_nodes = Bdd.size man onset + Bdd.size man offset;
        cubes = Twolevel.Sop.num_cubes sop;
      }
  end
