(** Named gate-level netlists: the exchange format between benchmark files,
    the instance generator and the ECO engine.  The root module holds the
    data type and graph analyses; submodules: {!Verilog} (structural-subset
    parser/printer), {!Weights} (per-signal costs and the contest's T1–T8
    distributions), {!Convert} (netlist ↔ AIG). *)

type gate =
  | Input
  | Const0
  | Const1
  | Buf
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Mux  (** fanins [s; a; b]: [s ? a : b] *)

type node = { name : string; gate : gate; fanins : string array }

type t
(** A combinational netlist: nodes indexed by name, distinguished primary
    inputs and outputs.  Guaranteed acyclic and name-closed after
    {!create}. *)

val create : node list -> outputs:string list -> t
(** Builds and validates a netlist.  Inputs are the nodes with gate
    [Input].  Raises [Failure] on dangling fanins, duplicate names, cycles
    or bad gate arities. *)

val inputs : t -> string list
val outputs : t -> string list
val node : t -> string -> node
val mem : t -> string -> bool
val nodes : t -> node list
(** All nodes in topological order (inputs first). *)

val num_nodes : t -> int
val num_gates : t -> int
(** Non-input, non-constant nodes — the "#gate" columns of Table 1. *)

val gate_arity : gate -> int option
(** [None] for variadic gates (And/Or/Nand/Nor/Xor/Xnor accept >= 2). *)

val gate_name : gate -> string

(** {2 Graph analyses (the basis of §3.3 structural pruning)} *)

val topological_order : t -> string list
val tfo : t -> string list -> (string, unit) Hashtbl.t
(** Transitive fanout of the given nodes, the nodes themselves included. *)

val tfi : t -> string list -> (string, unit) Hashtbl.t
val support_of : t -> string list -> string list
(** Primary inputs in the TFI of the given nodes. *)

val outputs_reached_by : t -> string list -> string list
(** Primary outputs in the TFO of the given nodes (in PO order). *)

val level_from_inputs : t -> (string, int) Hashtbl.t
(** Distance (longest path) from the inputs; inputs have level 0. *)

val level_to_outputs : t -> (string, int) Hashtbl.t
(** Longest path to any output; outputs' drivers count from 0. *)

val fanout_map : t -> (string, string list) Hashtbl.t

val eval : t -> (string * bool) list -> (string * bool) list
(** Single-pattern functional evaluation; returns output values. *)

val rename : t -> prefix:string -> t
(** Prefixes every non-PI/PO name; used to avoid clashes when mixing
    netlists. *)

val pp_stats : Format.formatter -> t -> unit

module Verilog : sig
  val to_string : ?name:string -> t -> string
  (** Structural Verilog with primitive gates. *)

  val of_string : string -> t
  (** Parses the structural subset: [module]/[input]/[output]/[wire]
      declarations and primitive-gate instantiations
      ([and g1 (out, a, b);] …).  Raises [Failure] on anything else. *)

  val read_file : string -> t
  val write_file : string -> ?name:string -> t -> unit
end

module Weights : sig
  type weights = (string, int) Hashtbl.t

  val uniform : t -> int -> weights
  (** Every node of the netlist gets the given weight. *)

  val cost : weights -> string -> int
  (** Cost of a signal; defaults to 1 when absent. *)

  val total : weights -> string list -> int

  val of_string : string -> weights
  (** Parses "name weight" lines. *)

  val to_string : weights -> string
  val read_file : string -> weights
  val write_file : string -> weights -> unit

  type distribution = T1 | T2 | T3 | T4 | T5 | T6 | T7 | T8

  val distribution_name : distribution -> string
  val all_distributions : distribution list

  val generate : rand:Random.State.t -> distribution -> t -> weights
  (** The 2017 ICCAD contest weight taxonomy: T1/T2 distance-aware (larger
      near/far from PIs in parts of the circuit), T3 path-aware, T4
      locality-aware, T5–T7 compositions, T8 highly mixed. *)
end

module Convert : sig
  type to_aig_result = {
    mgr : Aig.t;
    lit_of_name : (string, Aig.lit) Hashtbl.t;
    target_inputs : (string * Aig.lit) list;
        (** For every cut target: the fresh AIG input standing for it. *)
  }

  val to_aig : ?cut:string list -> ?mgr:Aig.t -> ?pi_map:(string, Aig.lit) Hashtbl.t -> t -> to_aig_result
  (** Converts a netlist into an AIG.  [cut] names become fresh AIG inputs
      (the targets [n] of the ECO miter); [mgr]/[pi_map] allow sharing a
      manager and PI literals with a previously converted netlist (the way
      the implementation and specification sides of the miter share x).
      Outputs are registered in the manager in netlist-output order. *)

  val of_aig : Aig.t -> prefix:string -> t
  (** Rebuilds a netlist view of an AIG (AND/NOT structure). *)

  val reduce_gate : Aig.t -> gate -> Aig.lit list -> Aig.lit
  (** The literal of one gate over its fanins' literals, as {!to_aig}
      builds it.  Raises [Invalid_argument] for [Input] and for a [Buf],
      [Not] or [Mux] with the wrong fanin count. *)
end
