(* Structural-Verilog-subset frontend: primitive gates only, matching the
   format of the 2017 ICCAD contest Problem A benchmarks. *)

let keyword_of_gate = function
  | Base.And -> "and"
  | Base.Or -> "or"
  | Base.Nand -> "nand"
  | Base.Nor -> "nor"
  | Base.Xor -> "xor"
  | Base.Xnor -> "xnor"
  | Base.Not -> "not"
  | Base.Buf -> "buf"
  | Base.Input | Base.Const0 | Base.Const1 | Base.Mux -> assert false

let to_string ?(name = "top") t =
  let buf = Buffer.create 4096 in
  let ins = Base.inputs t and outs = Base.outputs t in
  Buffer.add_string buf (Printf.sprintf "module %s (%s);\n" name (String.concat ", " (ins @ outs)));
  if ins <> [] then Buffer.add_string buf (Printf.sprintf "  input %s;\n" (String.concat ", " ins));
  if outs <> [] then Buffer.add_string buf (Printf.sprintf "  output %s;\n" (String.concat ", " outs));
  let io = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace io n ()) (ins @ outs);
  let wires = List.filter (fun n -> not (Hashtbl.mem io n)) (Base.topological_order t) in
  if wires <> [] then Buffer.add_string buf (Printf.sprintf "  wire %s;\n" (String.concat ", " wires));
  let gate_idx = ref 0 in
  List.iter
    (fun nm ->
      let n = Base.node t nm in
      incr gate_idx;
      match n.Base.gate with
      | Base.Input -> ()
      | Base.Const0 -> Buffer.add_string buf (Printf.sprintf "  buf g%d (%s, 1'b0);\n" !gate_idx nm)
      | Base.Const1 -> Buffer.add_string buf (Printf.sprintf "  buf g%d (%s, 1'b1);\n" !gate_idx nm)
      | Base.Mux ->
        (* Expand mux structurally: y = (s & a) | (!s & b). *)
        let s = n.Base.fanins.(0) and a = n.Base.fanins.(1) and b = n.Base.fanins.(2) in
        Buffer.add_string buf (Printf.sprintf "  wire %s_sn, %s_t0, %s_t1;\n" nm nm nm);
        Buffer.add_string buf (Printf.sprintf "  not g%d_n (%s_sn, %s);\n" !gate_idx nm s);
        Buffer.add_string buf (Printf.sprintf "  and g%d_a (%s_t1, %s, %s);\n" !gate_idx nm s a);
        Buffer.add_string buf (Printf.sprintf "  and g%d_b (%s_t0, %s_sn, %s);\n" !gate_idx nm nm b);
        Buffer.add_string buf (Printf.sprintf "  or g%d (%s, %s_t1, %s_t0);\n" !gate_idx nm nm nm)
      | g ->
        Buffer.add_string buf
          (Printf.sprintf "  %s g%d (%s, %s);\n" (keyword_of_gate g) !gate_idx nm
             (String.concat ", " (Array.to_list n.Base.fanins))))
    (Base.topological_order t);
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf

(* --- parsing --- *)

type token = Ident of string | Punct of char

let tokenize text =
  let toks = ref [] in
  let n = String.length text in
  let i = ref 0 in
  let is_ident c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
    || c = '\'' || c = '\\' || c = '[' || c = ']' || c = '.' || c = '$'
  in
  while !i < n do
    let c = text.[!i] in
    if c = '/' && !i + 1 < n && text.[!i + 1] = '/' then begin
      while !i < n && text.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '*' then begin
      i := !i + 2;
      while !i + 1 < n && not (text.[!i] = '*' && text.[!i + 1] = '/') do
        incr i
      done;
      i := !i + 2
    end
    else if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_ident c then begin
      let start = !i in
      while !i < n && is_ident text.[!i] do
        incr i
      done;
      toks := Ident (String.sub text start (!i - start)) :: !toks
    end
    else begin
      toks := Punct c :: !toks;
      incr i
    end
  done;
  List.rev !toks

let gate_of_keyword = function
  | "and" -> Some Base.And
  | "or" -> Some Base.Or
  | "nand" -> Some Base.Nand
  | "nor" -> Some Base.Nor
  | "xor" -> Some Base.Xor
  | "xnor" -> Some Base.Xnor
  | "not" -> Some Base.Not
  | "buf" -> Some Base.Buf
  | _ -> None

let of_string text =
  let toks = ref (tokenize text) in
  let peek () = match !toks with [] -> None | t :: _ -> Some t in
  let advance () = match !toks with [] -> failwith "Verilog: unexpected EOF" | t :: r -> toks := r; t in
  let expect_punct c =
    match advance () with
    | Punct c' when c = c' -> ()
    | _ -> failwith (Printf.sprintf "Verilog: expected '%c'" c)
  in
  let expect_ident () =
    match advance () with
    | Ident s -> s
    | Punct c -> failwith (Printf.sprintf "Verilog: expected identifier, got '%c'" c)
  in
  let ident_list stop =
    (* comma-separated identifiers until [stop] punct (consumed) *)
    let acc = ref [] in
    let rec go () =
      acc := expect_ident () :: !acc;
      match advance () with
      | Punct ',' -> go ()
      | Punct c when c = stop -> ()
      | _ -> failwith "Verilog: bad identifier list"
    in
    go ();
    List.rev !acc
  in
  (match advance () with
  | Ident "module" -> ()
  | _ -> failwith "Verilog: expected module");
  let _module_name = expect_ident () in
  expect_punct '(';
  let _ports = ident_list ')' in
  expect_punct ';';
  let inputs = ref [] and outs = ref [] and gates = ref [] in
  let const_used = ref None in
  let finished = ref false in
  while not !finished do
    match advance () with
    | Ident "endmodule" -> finished := true
    | Ident "input" -> inputs := !inputs @ ident_list ';'
    | Ident "output" -> outs := !outs @ ident_list ';'
    | Ident "wire" -> ignore (ident_list ';')
    | Ident kw -> (
      match gate_of_keyword kw with
      | None -> failwith (Printf.sprintf "Verilog: unsupported construct %s" kw)
      | Some gate ->
        (* optional instance name *)
        (match peek () with
        | Some (Ident _) -> ignore (advance ())
        | _ -> ());
        expect_punct '(';
        let args = ident_list ')' in
        expect_punct ';';
        (match args with
        | out :: ins when ins <> [] ->
          (* Map 1'b0 / 1'b1 constants to shared constant nodes. *)
          let ins =
            List.map
              (fun a ->
                if a = "1'b0" || a = "1'b1" then begin
                  const_used := Some ();
                  a
                end
                else a)
              ins
          in
          gates := (out, gate, ins) :: !gates
        | _ -> failwith "Verilog: gate needs an output and at least one input"))
    | Punct c -> failwith (Printf.sprintf "Verilog: unexpected '%c'" c)
  done;
  ignore !const_used;
  let nodes = ref [] in
  List.iter (fun i -> nodes := { Base.name = i; gate = Base.Input; fanins = [||] } :: !nodes) !inputs;
  let needs_const0 = ref false and needs_const1 = ref false in
  List.iter
    (fun (out, gate, ins) ->
      match (gate, ins) with
      (* [buf g (x, 1'b0)] is how the printer spells a constant driver:
         parse it straight back into a constant node (avoids a clash when
         the netlist itself contains the shared constant node). *)
      | Base.Buf, [ "1'b0" ] ->
        nodes := { Base.name = out; gate = Base.Const0; fanins = [||] } :: !nodes
      | Base.Buf, [ "1'b1" ] ->
        nodes := { Base.name = out; gate = Base.Const1; fanins = [||] } :: !nodes
      | _ ->
        let ins =
          List.map
            (fun a ->
              if a = "1'b0" then begin
                needs_const0 := true;
                "const0$"
              end
              else if a = "1'b1" then begin
                needs_const1 := true;
                "const1$"
              end
              else a)
            ins
        in
        nodes := { Base.name = out; gate; fanins = Array.of_list ins } :: !nodes)
    (List.rev !gates);
  let defined nm = List.exists (fun n -> n.Base.name = nm) !nodes in
  if !needs_const0 && not (defined "const0$") then
    nodes := { Base.name = "const0$"; gate = Base.Const0; fanins = [||] } :: !nodes;
  if !needs_const1 && not (defined "const1$") then
    nodes := { Base.name = "const1$"; gate = Base.Const1; fanins = [||] } :: !nodes;
  Base.create (List.rev !nodes) ~outputs:!outs

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_string s

let write_file path ?name t =
  let oc = open_out path in
  output_string oc (to_string ?name t);
  close_out oc
