type t = {
  prefix : string;
  mutable nodes : Netlist.node list; (* reversed *)
  mutable next : int;
  mutable names : string list; (* reversed *)
  mutable c0 : string option;
  mutable c1 : string option;
}

let create ?(prefix = "n") () = { prefix; nodes = []; next = 0; names = []; c0 = None; c1 = None }

let add b node =
  b.nodes <- node :: b.nodes;
  b.names <- node.Netlist.name :: b.names;
  node.Netlist.name

let input b name = add b { Netlist.name; gate = Netlist.Input; fanins = [||] }

let fresh b =
  let name = Printf.sprintf "%s%d" b.prefix b.next in
  b.next <- b.next + 1;
  name

let gate b ?name g fanins =
  let name = match name with Some n -> n | None -> fresh b in
  add b { Netlist.name; gate = g; fanins = Array.of_list fanins }

let and2 b x y = gate b Netlist.And [ x; y ]
let or2 b x y = gate b Netlist.Or [ x; y ]
let xor2 b x y = gate b Netlist.Xor [ x; y ]
let xnor2 b x y = gate b Netlist.Xnor [ x; y ]
let not1 b x = gate b Netlist.Not [ x ]
let mux b ~sel a c = gate b Netlist.Mux [ sel; a; c ]

let const0 b =
  match b.c0 with
  | Some n -> n
  | None ->
    let n = gate b Netlist.Const0 [] in
    b.c0 <- Some n;
    n

let const1 b =
  match b.c1 with
  | Some n -> n
  | None ->
    let n = gate b Netlist.Const1 [] in
    b.c1 <- Some n;
    n

let signals b = List.rev b.names

let finish b ~outputs = Netlist.create (List.rev b.nodes) ~outputs
