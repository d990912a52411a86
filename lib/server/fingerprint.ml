(* 64-bit mixing: splitmix64's finalizer, the standard cheap avalanche. *)
let splitmix64 z =
  let z = Int64.add z 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let combine h x = splitmix64 (Int64.logxor (Int64.mul h 0x100000001B3L) x)

let combine_int h i = combine h (Int64.of_int i)

let hash_string h s =
  let acc = ref h in
  String.iter (fun c -> acc := combine_int !acc (Char.code c)) s;
  !acc

(* Deterministic 64-pattern stimulus for one input, derived from a seed
   (the input's ordinal or the hash of its name). *)
let input_word seed = splitmix64 (Int64.mul 0x2545F4914F6CDD1DL seed)

(* {2 AIG structure and simulation} *)

(* Canonical dump of a manager: input count, fanin pair per AND node in
   node order (construction order — deterministic for a given request),
   registered outputs.  Complement bits ride along in the literals. *)
let aig_canon buf m =
  Buffer.add_string buf (Printf.sprintf "i%d;" (Aig.num_inputs m));
  for node = 0 to Aig.num_nodes m - 1 do
    if Aig.is_and m node then begin
      let f0, f1 = Aig.fanins m node in
      Buffer.add_string buf (Printf.sprintf "%d.%d,%d;" node f0 f1)
    end
  done;
  Buffer.add_string buf "o";
  Array.iter (fun l -> Buffer.add_string buf (Printf.sprintf "%d," l)) (Aig.outputs m)

let aig_structure_sig h m =
  let acc = ref (combine_int h (Aig.num_inputs m)) in
  for node = 0 to Aig.num_nodes m - 1 do
    if Aig.is_and m node then begin
      let f0, f1 = Aig.fanins m node in
      acc := combine_int (combine_int !acc f0) f1
    end
  done;
  Array.iter (fun l -> acc := combine_int !acc l) (Aig.outputs m);
  !acc

(* Simulation signature: all outputs (plus any extra literals the caller
   cares about, e.g. target cones) evaluated over the per-input words. *)
let aig_sim_sig h m ~words ~extra =
  let values = Aig.simulate m words in
  let acc = ref h in
  Array.iter (fun l -> acc := combine !acc (Aig.lit_value values l)) (Aig.outputs m);
  List.iter (fun l -> acc := combine !acc (Aig.lit_value values l)) extra;
  !acc

let words_by_ordinal m =
  Array.init (Aig.num_inputs m) (fun i -> input_word (Int64.of_int (i + 1)))

(* {2 Instance keys} *)

let canon_weights w =
  (* Weight tables are hashtables; serialise order-independently. *)
  Netlist.Weights.to_string w |> String.split_on_char '\n' |> List.sort compare
  |> String.concat "\n"

let options_canon (o : Request.options) =
  Printf.sprintf "method=%s;certify=%b;structural=%b"
    (Request.method_name o.Request.method_)
    o.Request.certify o.Request.structural

let netlist_side h nl ~targets =
  let conv = Netlist.Convert.to_aig nl in
  let m = conv.Netlist.Convert.mgr in
  (* Stimulate by input *name* so the implementation and specification
     sides of the instance see identical words on shared inputs whatever
     their declaration order.  [Convert.to_aig] allocates AIG inputs in
     [Netlist.inputs] order, so ordinal [i] is the [i]-th input name. *)
  let words =
    Array.of_list
      (List.map (fun name -> input_word (hash_string 0x517CC1B727220A95L name)) (Netlist.inputs nl))
  in
  let extra =
    List.filter_map (fun t -> Hashtbl.find_opt conv.Netlist.Convert.lit_of_name t) targets
  in
  let h = aig_structure_sig h m in
  aig_sim_sig h m ~words ~extra

let instance (inst : Eco.Instance.t) options =
  let sig64 =
    let h = netlist_side 0L inst.Eco.Instance.impl ~targets:inst.Eco.Instance.targets in
    let h = netlist_side h inst.Eco.Instance.spec ~targets:[] in
    let h = List.fold_left hash_string h inst.Eco.Instance.targets in
    hash_string h (options_canon options)
  in
  let canon =
    String.concat "\x00"
      [
        Netlist.Verilog.to_string ~name:"impl" inst.Eco.Instance.impl;
        Netlist.Verilog.to_string ~name:"spec" inst.Eco.Instance.spec;
        String.concat "," inst.Eco.Instance.targets;
        canon_weights inst.Eco.Instance.weights;
        options_canon options;
      ]
  in
  { Cache.sig64; canon }

(* {2 CEC literal keys} *)

let aig_lit m l =
  let sig64 =
    let h = aig_structure_sig 2L m in
    combine_int (aig_sim_sig h m ~words:(words_by_ordinal m) ~extra:[ l ]) l
  in
  let buf = Buffer.create 1024 in
  aig_canon buf m;
  Buffer.add_string buf (Printf.sprintf "\x01l%d" l);
  { Cache.sig64; canon = Buffer.contents buf }
