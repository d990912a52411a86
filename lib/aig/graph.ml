type lit = int

(* Node storage: parallel growable arrays.  Node 0 is the constant false.
   Inputs have fanin0 = -2; AND nodes store their two fanin literals. *)
type t = {
  mutable fanin0 : int array;
  mutable fanin1 : int array;
  mutable levels : int array;
  mutable n : int; (* number of nodes *)
  mutable input_list : int Sat.Vec.t; (* node ids of inputs, in PI order *)
  mutable input_idx : int array; (* node id -> PI ordinal, -1 otherwise *)
  strash : (int * int, int) Hashtbl.t;
  outs : int Sat.Vec.t; (* output literals *)
}

let input_tag = -2
let const_tag = -3

let false_ = 0
let true_ = 1

let create ?(capacity = 1024) () =
  let capacity = max capacity 4 in
  let m =
    {
      fanin0 = Array.make capacity 0;
      fanin1 = Array.make capacity 0;
      levels = Array.make capacity 0;
      n = 1;
      input_list = Sat.Vec.create ~dummy:(-1) ();
      input_idx = Array.make capacity (-1);
      strash = Hashtbl.create 1024;
      outs = Sat.Vec.create ~dummy:(-1) ();
    }
  in
  m.fanin0.(0) <- const_tag;
  m.fanin1.(0) <- const_tag;
  m

let node_of l = l lsr 1
let is_complemented l = l land 1 = 1
let lit_of_node n c = (n lsl 1) lor (if c then 1 else 0)
let not_ l = l lxor 1

let grow m =
  let old = Array.length m.fanin0 in
  if m.n >= old then begin
    let sz = 2 * old in
    let g a def =
      let b = Array.make sz def in
      Array.blit a 0 b 0 old;
      b
    in
    m.fanin0 <- g m.fanin0 0;
    m.fanin1 <- g m.fanin1 0;
    m.levels <- g m.levels 0;
    m.input_idx <- g m.input_idx (-1)
  end

let new_node m f0 f1 lvl =
  grow m;
  let id = m.n in
  m.n <- id + 1;
  m.fanin0.(id) <- f0;
  m.fanin1.(id) <- f1;
  m.levels.(id) <- lvl;
  id

let add_input m =
  let id = new_node m input_tag input_tag 0 in
  m.input_idx.(id) <- Sat.Vec.size m.input_list;
  Sat.Vec.push m.input_list id;
  lit_of_node id false

let add_inputs m k = Array.init k (fun _ -> add_input m)

let num_nodes m = m.n
let num_inputs m = Sat.Vec.size m.input_list
let num_ands m = m.n - 1 - num_inputs m
let is_input m id = id > 0 && id < m.n && m.fanin0.(id) = input_tag
let is_const id = id = 0
let is_and m id = id > 0 && id < m.n && m.fanin0.(id) >= 0

let input_index m id =
  if not (is_input m id) then invalid_arg "Aig.input_index: not an input";
  m.input_idx.(id)

let inputs m = Array.map (fun id -> lit_of_node id false) (Sat.Vec.to_array m.input_list)

let fanins m id =
  if not (is_and m id) then invalid_arg "Aig.fanins: not an AND node";
  (m.fanin0.(id), m.fanin1.(id))

let level m id =
  if id < 0 || id >= m.n then invalid_arg "Aig.level";
  m.levels.(id)

let lit_level m l = level m (node_of l)

let and_ m a b =
  if a < 0 || b < 0 || node_of a >= m.n || node_of b >= m.n then invalid_arg "Aig.and_";
  if a = false_ || b = false_ then false_
  else if a = true_ then b
  else if b = true_ then a
  else if a = b then a
  else if a = not_ b then false_
  else begin
    let a, b = if a <= b then (a, b) else (b, a) in
    match Hashtbl.find_opt m.strash (a, b) with
    | Some id -> lit_of_node id false
    | None ->
      let lvl = 1 + max (lit_level m a) (lit_level m b) in
      let id = new_node m a b lvl in
      Hashtbl.add m.strash (a, b) id;
      lit_of_node id false
  end

let or_ m a b = not_ (and_ m (not_ a) (not_ b))
let xor_ m a b = or_ m (and_ m a (not_ b)) (and_ m (not_ a) b)
let xnor_ m a b = not_ (xor_ m a b)
let ite m c a b = or_ m (and_ m c a) (and_ m (not_ c) b)

let and_list m = List.fold_left (and_ m) true_
let or_list m = List.fold_left (or_ m) false_

let add_output m l =
  let i = Sat.Vec.size m.outs in
  Sat.Vec.push m.outs l;
  i

let output m i = Sat.Vec.get m.outs i
let outputs m = Sat.Vec.to_array m.outs
let num_outputs m = Sat.Vec.size m.outs

(* Iterative TFI walk to avoid stack overflow on deep graphs. *)
let tfi_mark m roots =
  let mark = Array.make m.n false in
  let stack = Sat.Vec.create ~dummy:(-1) () in
  List.iter
    (fun l ->
      let id = node_of l in
      if not mark.(id) then begin
        mark.(id) <- true;
        Sat.Vec.push stack id
      end)
    roots;
  while not (Sat.Vec.is_empty stack) do
    let id = Sat.Vec.pop stack in
    if is_and m id then begin
      let f0 = node_of m.fanin0.(id) and f1 = node_of m.fanin1.(id) in
      if not mark.(f0) then begin
        mark.(f0) <- true;
        Sat.Vec.push stack f0
      end;
      if not mark.(f1) then begin
        mark.(f1) <- true;
        Sat.Vec.push stack f1
      end
    end
  done;
  mark

let support m roots =
  let mark = tfi_mark m roots in
  let acc = ref [] in
  for id = m.n - 1 downto 1 do
    if mark.(id) && is_input m id then acc := id :: !acc
  done;
  !acc

let count_cone_ands m roots =
  let mark = tfi_mark m roots in
  let c = ref 0 in
  for id = 1 to m.n - 1 do
    if mark.(id) && is_and m id then incr c
  done;
  !c

let fanout_counts m =
  let counts = Array.make m.n 0 in
  for id = 1 to m.n - 1 do
    if is_and m id then begin
      counts.(node_of m.fanin0.(id)) <- counts.(node_of m.fanin0.(id)) + 1;
      counts.(node_of m.fanin1.(id)) <- counts.(node_of m.fanin1.(id)) + 1
    end
  done;
  Sat.Vec.iter (fun l -> counts.(node_of l) <- counts.(node_of l) + 1) m.outs;
  counts

let unmapped = -1
let fresh_map src = Array.make src.n unmapped

(* Copy cones from [src] to [dst].  Works iteratively: a node is emitted
   once both fanins are mapped. *)
let import dst src ~map roots =
  if Array.length map < src.n then invalid_arg "Aig.import: map too small";
  if map.(0) = unmapped then map.(0) <- false_;
  let stack = Sat.Vec.create ~dummy:(-1) () in
  let push_unmapped l =
    let id = node_of l in
    if map.(id) = unmapped then begin
      if not (is_and src id) then
        invalid_arg "Aig.import: unmapped input reachable from roots";
      Sat.Vec.push stack id
    end
  in
  List.iter push_unmapped roots;
  while not (Sat.Vec.is_empty stack) do
    let id = Sat.Vec.last stack in
    if map.(id) <> unmapped then ignore (Sat.Vec.pop stack)
    else begin
      let f0 = src.fanin0.(id) and f1 = src.fanin1.(id) in
      let m0 = map.(node_of f0) and m1 = map.(node_of f1) in
      if m0 <> unmapped && m1 <> unmapped then begin
        ignore (Sat.Vec.pop stack);
        let a = if is_complemented f0 then not_ m0 else m0 in
        let b = if is_complemented f1 then not_ m1 else m1 in
        map.(id) <- and_ dst a b
      end
      else begin
        push_unmapped f0;
        push_unmapped f1
      end
    end
  done;
  List.map
    (fun l ->
      let v = map.(node_of l) in
      if is_complemented l then not_ v else v)
    roots

let copy src =
  let dst = create ~capacity:src.n () in
  let map = fresh_map src in
  Array.iter (fun l -> map.(node_of l) <- add_input dst) (inputs src);
  let outs = import dst src ~map (Array.to_list (outputs src)) in
  List.iter (fun l -> ignore (add_output dst l)) outs;
  dst

(* In-manager rebuild with one input remapped.  Reuses [import] with dst =
   the same manager: sound because strashing makes re-insertion cheap and
   the map prevents infinite recursion. *)
let rebuild_with m ~input_node ~image roots =
  let map = Array.make m.n unmapped in
  map.(0) <- false_;
  Sat.Vec.iter (fun id -> map.(id) <- lit_of_node id false) m.input_list;
  map.(input_node) <- image;
  import m m ~map roots

let cofactor m ~var phase roots =
  let id = node_of var in
  if not (is_input m id) then invalid_arg "Aig.cofactor: not an input literal";
  let image = if phase then true_ else false_ in
  let image = if is_complemented var then not_ image else image in
  rebuild_with m ~input_node:id ~image roots

let substitute m ~input f roots =
  let id = node_of input in
  if not (is_input m id) then invalid_arg "Aig.substitute: not an input literal";
  let f = if is_complemented input then not_ f else f in
  rebuild_with m ~input_node:id ~image:f roots

let forall m ~var f =
  match (cofactor m ~var false [ f ], cofactor m ~var true [ f ]) with
  | [ c0 ], [ c1 ] -> and_ m c0 c1
  | _ -> assert false

let exists m ~var f =
  match (cofactor m ~var false [ f ], cofactor m ~var true [ f ]) with
  | [ c0 ], [ c1 ] -> or_ m c0 c1
  | _ -> assert false

let lit_value values l =
  let v = values.(node_of l) in
  if is_complemented l then Int64.lognot v else v

let simulate m input_words =
  if Array.length input_words <> num_inputs m then invalid_arg "Aig.simulate: arity";
  let values = Array.make m.n 0L in
  for id = 1 to m.n - 1 do
    if is_input m id then values.(id) <- input_words.(m.input_idx.(id))
    else
      values.(id) <- Int64.logand (lit_value values m.fanin0.(id)) (lit_value values m.fanin1.(id))
  done;
  values

let eval m bits l =
  let words = Array.map (fun b -> if b then -1L else 0L) bits in
  let values = simulate m words in
  Int64.logand (lit_value values l) 1L <> 0L

let pp_stats ppf m =
  Format.fprintf ppf "inputs=%d ands=%d outputs=%d nodes=%d" (num_inputs m) (num_ands m)
    (num_outputs m) m.n
