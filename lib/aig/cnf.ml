type env = {
  mgr : Graph.t;
  solver : Sat.Solver.t;
  part : Sat.Proof.part option; (* interpolation partition for added clauses *)
  mutable vars : int array; (* node id -> solver var, -1 if none *)
}

let create ?part mgr solver = { mgr; solver; part; vars = Array.make (Graph.num_nodes mgr) (-1) }

let emit env clause =
  match env.part with
  | None -> Sat.Solver.add_clause env.solver clause
  | Some part -> Sat.Solver.add_clause_part env.solver part clause

let solver env = env.solver
let manager env = env.mgr

let ensure_capacity env =
  let n = Graph.num_nodes env.mgr in
  let old = Array.length env.vars in
  if n > old then begin
    let vars = Array.make (max n (2 * old)) (-1) in
    Array.blit env.vars 0 vars 0 old;
    env.vars <- vars
  end

let var_of_node env id =
  ensure_capacity env;
  if env.vars.(id) >= 0 then env.vars.(id)
  else begin
    let v = Sat.Solver.new_var env.solver in
    env.vars.(id) <- v;
    if Graph.is_const id then
      (* Constant-false node: fix its variable to 0. *)
      emit env [ Sat.Lit.make_neg v ];
    v
  end

(* Encode the cone of [root] bottom-up (iterative, deep-graph safe). *)
let encode_cone env root =
  let mgr = env.mgr in
  ensure_capacity env;
  let stack = Sat.Vec.create ~dummy:(-1) () in
  let push l =
    let id = Graph.node_of l in
    if env.vars.(id) < 0 && Graph.is_and mgr id then Sat.Vec.push stack id
    else ignore (var_of_node env id)
  in
  push root;
  while not (Sat.Vec.is_empty stack) do
    let id = Sat.Vec.last stack in
    if env.vars.(id) >= 0 then ignore (Sat.Vec.pop stack)
    else begin
      let f0, f1 = Graph.fanins mgr id in
      let n0 = Graph.node_of f0 and n1 = Graph.node_of f1 in
      let pending0 = env.vars.(n0) < 0 && Graph.is_and mgr n0 in
      let pending1 = env.vars.(n1) < 0 && Graph.is_and mgr n1 in
      if pending0 || pending1 then begin
        if pending0 then Sat.Vec.push stack n0;
        if pending1 then Sat.Vec.push stack n1
      end
      else begin
        ignore (Sat.Vec.pop stack);
        let v0 = var_of_node env n0 and v1 = var_of_node env n1 in
        let l0 = Sat.Lit.of_var v0 (Graph.is_complemented f0) in
        let l1 = Sat.Lit.of_var v1 (Graph.is_complemented f1) in
        let v = Sat.Solver.new_var env.solver in
        env.vars.(id) <- v;
        let lv = Sat.Lit.make v in
        (* v <-> l0 & l1 *)
        emit env [ Sat.Lit.neg lv; l0 ];
        emit env [ Sat.Lit.neg lv; l1 ];
        emit env [ lv; Sat.Lit.neg l0; Sat.Lit.neg l1 ]
      end
    end
  done

let lit env l =
  encode_cone env l;
  let v = env.vars.(Graph.node_of l) in
  Sat.Lit.of_var v (Graph.is_complemented l)

let lit_opt env l =
  ensure_capacity env;
  let v = env.vars.(Graph.node_of l) in
  if v < 0 then None else Some (Sat.Lit.of_var v (Graph.is_complemented l))
