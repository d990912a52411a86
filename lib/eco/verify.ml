let sanitize name =
  String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' then c else '_') name

let patched_netlist (inst : Instance.t) patches =
  let impl = inst.Instance.impl in
  let patched_names = List.map (fun p -> p.Patch.target) patches in
  (* Keep every implementation node except the old definitions of patched
     targets. *)
  let kept =
    List.filter_map
      (fun name -> if List.mem name patched_names then None else Some (Netlist.node impl name))
      (Netlist.topological_order impl)
  in
  let extra = ref [] in
  List.iteri
    (fun pi (p : Patch.t) ->
      let prefix = Printf.sprintf "eco$%d$%s$" pi (sanitize p.Patch.target) in
      let sub = Netlist.Convert.of_aig p.Patch.circuit ~prefix in
      (* Re-point the subcircuit inputs at the support signals. *)
      List.iter
        (fun n ->
          match n.Netlist.gate with
          | Netlist.Input ->
            let idx =
              Scanf.sscanf (String.sub n.Netlist.name (String.length prefix) (String.length n.Netlist.name - String.length prefix)) "pi%d" Fun.id
            in
            let support_name = fst (List.nth p.Patch.support idx) in
            if not (Netlist.mem impl support_name) then
              failwith (Printf.sprintf "Verify: unknown support signal %s" support_name);
            extra := { Netlist.name = n.Netlist.name; gate = Netlist.Buf; fanins = [| support_name |] } :: !extra
          | _ -> extra := n :: !extra)
        (Netlist.nodes sub);
      (* The target becomes a buffer of the patch output. *)
      extra :=
        { Netlist.name = p.Patch.target; gate = Netlist.Buf; fanins = [| prefix ^ "po0" |] }
        :: !extra)
    patches;
  Netlist.create (kept @ List.rev !extra) ~outputs:(Netlist.outputs impl)

let check ?budget ?certify (inst : Instance.t) patches =
  let impl' = patched_netlist inst patches in
  let mgr = Aig.create () in
  let conv_impl = Netlist.Convert.to_aig ~mgr impl' in
  let conv_spec =
    Netlist.Convert.to_aig ~mgr ~pi_map:conv_impl.Netlist.Convert.lit_of_name inst.Instance.spec
  in
  let diff_of po =
    Aig.xor_ mgr
      (Hashtbl.find conv_impl.Netlist.Convert.lit_of_name po)
      (Hashtbl.find conv_spec.Netlist.Convert.lit_of_name po)
  in
  let miter = Aig.or_list mgr (List.map diff_of (Netlist.outputs impl')) in
  Cec.check_miter ?budget ?certify mgr miter
