type t = {
  window_pos : string list;
  window_pis : string list;
  divisors : (string * int) list;
}

let compute (inst : Instance.t) =
  let impl = inst.Instance.impl and spec = inst.Instance.spec in
  let tfo = Netlist.tfo impl inst.Instance.targets in
  let window_pos = List.filter (Hashtbl.mem tfo) (Netlist.outputs impl) in
  if window_pos = [] then failwith "Window.compute: targets reach no output";
  (* PIs feeding the affected outputs, on either side of the miter. *)
  let impl_pis = Netlist.support_of impl window_pos in
  let spec_pis = Netlist.support_of spec window_pos in
  let pi_set = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace pi_set p ()) (impl_pis @ spec_pis);
  (* Deterministic PI order: the implementation's input declaration order,
     never either netlist's traversal order — discovery hands windowing
     proposed (not planted) targets, and cache fingerprints and SAT
     encodings must not depend on how the proposal was found.  Both sides
     declare the same input set (Instance.make validates), so filtering
     the implementation's list covers the union. *)
  let window_pis = List.filter (Hashtbl.mem pi_set) (Netlist.inputs impl) in
  (* A node's support lies within the window unless an input outside it
     is in its TFI, i.e. unless the node is in the TFO of those inputs:
     one walk for every node, not a TFI walk per node. *)
  let escapes =
    Netlist.tfo impl (List.filter (fun p -> not (Hashtbl.mem pi_set p)) (Netlist.inputs impl))
  in
  (* Candidate divisors: not in the targets' TFO (no combinational loop
     through the patch), not a constant, support within the window. *)
  let divisors =
    List.filter_map
      (fun name ->
        match (Netlist.node impl name).Netlist.gate with
        | Netlist.Const0 | Netlist.Const1 -> None
        | _ ->
          if Hashtbl.mem tfo name || Hashtbl.mem escapes name then None
          else Some (name, Netlist.Weights.cost inst.Instance.weights name))
      (Netlist.topological_order impl)
  in
  let divisors =
    List.stable_sort (fun (_, c1) (_, c2) -> compare c1 c2) divisors
  in
  { window_pos; window_pis; divisors }

let pp ppf w =
  Format.fprintf ppf "window: pos=%d pis=%d divisors=%d" (List.length w.window_pos)
    (List.length w.window_pis) (List.length w.divisors)
