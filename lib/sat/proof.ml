type part = Part_a | Part_b

type node =
  | Leaf of { lits : Lit.t array; part : part }
  | Derived of { lits : Lit.t array; base : int; steps : (int * int) array }

type t = {
  nodes : node Vec.t;
  mutable empty : int option;
  mutable in_a : bool array; (* var occurs in an A leaf *)
  mutable in_b : bool array;
}

let dummy = Leaf { lits = [||]; part = Part_a }

let create () =
  { nodes = Vec.create ~dummy (); empty = None; in_a = Array.make 64 false; in_b = Array.make 64 false }

let ensure t v =
  let n = Array.length t.in_a in
  if v >= n then begin
    let m = max (2 * n) (v + 1) in
    let grow a =
      let b = Array.make m false in
      Array.blit a 0 b 0 n;
      b
    in
    t.in_a <- grow t.in_a;
    t.in_b <- grow t.in_b
  end

let add_leaf t part lits =
  Array.iter
    (fun l ->
      let v = Lit.var l in
      ensure t v;
      match part with Part_a -> t.in_a.(v) <- true | Part_b -> t.in_b.(v) <- true)
    lits;
  let id = Vec.size t.nodes in
  Vec.push t.nodes (Leaf { lits; part });
  id

let add_derived t lits ~base ~steps =
  let id = Vec.size t.nodes in
  Vec.push t.nodes (Derived { lits; base; steps = Array.of_list steps });
  id

let node t id = Vec.get t.nodes id
let size t = Vec.size t.nodes
let set_empty t id = t.empty <- Some id
let empty_clause t = t.empty

let var_class t v =
  let a = v < Array.length t.in_a && t.in_a.(v) in
  let b = v < Array.length t.in_b && t.in_b.(v) in
  match (a, b) with
  | true, true -> `Shared
  | true, false -> `A_local
  | false, true -> `B_local
  | false, false -> `Unused
