type spec_style =
  | Gate_change
  | Rewire
  | New_cone of int
  | Stuck_const of bool

let pick_targets ~rand netlist k =
  let gates =
    List.filter
      (fun name ->
        match (Netlist.node netlist name).Netlist.gate with
        | Netlist.Input | Netlist.Const0 | Netlist.Const1 -> false
        | _ -> true)
      (Netlist.topological_order netlist)
  in
  (* Usable target: reaches an output (and so leaves divisors visible),
     i.e. lies in the outputs' TFI, one walk for every candidate. *)
  let reaches_po = Hashtbl.mem (Netlist.tfi netlist (Netlist.outputs netlist)) in
  let eligible = List.filter reaches_po gates in
  let avail = List.length eligible in
  if avail = 0 && k > 0 then failwith "Mutate.pick_targets: no eligible target signals";
  (* Clamp rather than loop or raise when asked for more targets than the
     unit has eligible internal signals (small units under --no-targets
     sweeps); the shortfall is recorded for telemetry. *)
  let k =
    if k > avail then begin
      Telemetry.bump "gen.targets_clamped" (k - avail);
      avail
    end
    else k
  in
  let arr = Array.of_list gates in
  let n = Array.length arr in
  let chosen = Hashtbl.create (max 1 k) in
  let guard = ref 0 in
  while Hashtbl.length chosen < k && !guard < 10_000 do
    incr guard;
    (* Bias toward late topological positions: realistic ECO targets sit
       close to the outputs, with small fanout cones, which also keeps the
       miter's unshared region small. *)
    let cand =
      if Random.State.int rand 4 = 0 then arr.(Random.State.int rand n)
      else arr.(n - 1 - Random.State.int rand (max 1 (n / 4)))
    in
    if (not (Hashtbl.mem chosen cand)) && reaches_po cand then Hashtbl.replace chosen cand ()
  done;
  (* The sampler is randomized; when it stalls against a nearly-exhausted
     pool, complete deterministically from the latest eligible signals. *)
  if Hashtbl.length chosen < k then
    List.iter
      (fun cand ->
        if Hashtbl.length chosen < k && not (Hashtbl.mem chosen cand) then
          Hashtbl.replace chosen cand ())
      (List.rev eligible);
  List.filter (Hashtbl.mem chosen) (Netlist.topological_order netlist)

(* Signals outside the targets' TFO: safe fanins for the replacement cones
   (guaranteed acyclic, and guaranteed to be divisor candidates). *)
let visible_signals netlist ~targets =
  let tfo = Netlist.tfo netlist targets in
  List.filter
    (fun name ->
      (not (Hashtbl.mem tfo name))
      &&
      match (Netlist.node netlist name).Netlist.gate with
      | Netlist.Const0 | Netlist.Const1 -> false
      | _ -> true)
    (Netlist.topological_order netlist)

let restructure netlist =
  let conv = Netlist.Convert.to_aig netlist in
  let back = Netlist.Convert.of_aig conv.Netlist.Convert.mgr ~prefix:"r$" in
  (* Restore original PI names (creation order matches input order) and PO
     names (output registration order matches the outputs list). *)
  let pi_names = Array.of_list (Netlist.inputs netlist) in
  let po_names = Array.of_list (Netlist.outputs netlist) in
  let digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s in
  let rename name =
    let suffix = if String.length name > 4 then String.sub name 4 (String.length name - 4) else "" in
    if String.length name > 4 && String.sub name 0 4 = "r$pi" && digits suffix then
      pi_names.(int_of_string suffix)
    else if String.length name > 4 && String.sub name 0 4 = "r$po" && digits suffix then
      po_names.(int_of_string suffix)
    else name
  in
  let nodes =
    List.map
      (fun n ->
        { Netlist.name = rename n.Netlist.name; gate = n.Netlist.gate;
          fanins = Array.map rename n.Netlist.fanins })
      (Netlist.nodes back)
  in
  Netlist.create nodes ~outputs:(Array.to_list po_names)

let random_cone ~rand ~visible ~size prefix =
  (* Returns replacement nodes (reversed) and the root signal name. *)
  let pool = ref (Array.of_list visible) in
  let nodes = ref [] in
  let counter = ref 0 in
  let pick () = !pool.(Random.State.int rand (Array.length !pool)) in
  let kinds = [| Netlist.And; Netlist.Or; Netlist.Nand; Netlist.Nor; Netlist.Xor; Netlist.Xnor |] in
  let root = ref (pick ()) in
  for _ = 1 to max 1 size do
    incr counter;
    let name = Printf.sprintf "%s_m%d" prefix !counter in
    let g = kinds.(Random.State.int rand (Array.length kinds)) in
    let fanins =
      if Random.State.int rand 6 = 0 then [| pick (); pick (); pick () |]
      else [| pick (); pick () |]
    in
    nodes := { Netlist.name; gate = g; fanins } :: !nodes;
    pool := Array.append !pool [| name |];
    root := name
  done;
  (!nodes, !root)

let restructure_netlist = restructure

let derive_spec ~rand ?(style = New_cone 6) ?(restructure = true) netlist ~targets =
  let visible = visible_signals netlist ~targets in
  if visible = [] then failwith "Mutate.derive_spec: no visible signals";
  let visible_set = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace visible_set v ()) visible;
  (* Replacement cones draw mostly from the target's own fanin cone:
     contest-style ECOs are local tweaks, which keeps patches expressible
     over nearby divisors. *)
  let local_pool name =
    let n = Netlist.node netlist name in
    let tfi = Netlist.tfi netlist (Array.to_list n.Netlist.fanins) in
    let local = List.filter (Hashtbl.mem tfi) visible in
    if List.length local >= 4 then local else visible
  in
  let extra = ref [] in
  let replace name =
    let n = Netlist.node netlist name in
    match style with
    | Stuck_const b ->
      { Netlist.name; gate = (if b then Netlist.Const1 else Netlist.Const0); fanins = [||] }
    | Gate_change ->
      let alternatives =
        match n.Netlist.gate with
        | Netlist.And -> [ Netlist.Nand; Netlist.Or; Netlist.Xor ]
        | Netlist.Or -> [ Netlist.Nor; Netlist.And; Netlist.Xnor ]
        | Netlist.Nand -> [ Netlist.And; Netlist.Nor ]
        | Netlist.Nor -> [ Netlist.Or; Netlist.Nand ]
        | Netlist.Xor -> [ Netlist.Xnor; Netlist.Or ]
        | Netlist.Xnor -> [ Netlist.Xor; Netlist.And ]
        | Netlist.Not -> [ Netlist.Buf ]
        | Netlist.Buf -> [ Netlist.Not ]
        | g -> [ g ]
      in
      let g = List.nth alternatives (Random.State.int rand (List.length alternatives)) in
      (* Buf/Not keep one fanin; variadic gates keep all. *)
      let fanins =
        match g with
        | Netlist.Buf | Netlist.Not -> [| n.Netlist.fanins.(0) |]
        | _ when Array.length n.Netlist.fanins >= 2 -> n.Netlist.fanins
        | _ ->
          let v = Array.of_list visible in
          [| n.Netlist.fanins.(0); v.(Random.State.int rand (Array.length v)) |]
      in
      { n with Netlist.gate = g; fanins }
    | Rewire ->
      let v = Array.of_list (local_pool name) in
      let fanins = Array.copy n.Netlist.fanins in
      if Array.length fanins > 0 then
        fanins.(Random.State.int rand (Array.length fanins)) <-
          v.(Random.State.int rand (Array.length v));
      { n with Netlist.fanins }
    | New_cone size ->
      let cone_nodes, root = random_cone ~rand ~visible:(local_pool name) ~size name in
      extra := cone_nodes @ !extra;
      { Netlist.name; gate = Netlist.Buf; fanins = [| root |] }
  in
  let target_set = Hashtbl.create 8 in
  List.iter (fun t -> Hashtbl.replace target_set t ()) targets;
  let nodes =
    List.map
      (fun name ->
        let n = Netlist.node netlist name in
        if Hashtbl.mem target_set name then replace name else n)
      (Netlist.topological_order netlist)
  in
  let spec = Netlist.create (nodes @ !extra) ~outputs:(Netlist.outputs netlist) in
  (* The AIG round-trip removes shared structure and planted-cone names. *)
  if restructure then restructure_netlist spec else spec

let make_instance ?name ?style ?(dist = Netlist.Weights.T8) ~seed ~n_targets netlist =
  let rand = Random.State.make [| seed |] in
  let targets = pick_targets ~rand netlist n_targets in
  let spec = derive_spec ~rand ?style netlist ~targets in
  let weights = Netlist.Weights.generate ~rand dist netlist in
  Eco.Instance.make ?name ~impl:netlist ~spec ~targets ~weights ()
