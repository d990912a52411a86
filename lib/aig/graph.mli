(** And-Inverter Graphs with structural hashing.

    A manager owns a growing set of nodes: node 0 is the constant, other
    nodes are either primary inputs or two-input AND gates.  Edges are
    literals: [2 * node] (plain) or [2 * node + 1] (complemented).  The
    constant-false function is literal {!false_} and constant-true is
    {!true_}.  All construction goes through {!and_} and friends, which
    apply constant folding and structural hashing, so structurally equal
    cones are shared. *)

type t

type lit = int
(** An edge: node id with a complementation bit in the LSB. *)

val create : ?capacity:int -> unit -> t

val false_ : lit
val true_ : lit

val add_input : t -> lit
(** Allocates a fresh primary input; returns its plain literal. *)

val add_inputs : t -> int -> lit array

val and_ : t -> lit -> lit -> lit
val not_ : lit -> lit
val or_ : t -> lit -> lit -> lit
val xor_ : t -> lit -> lit -> lit
val xnor_ : t -> lit -> lit -> lit
val ite : t -> lit -> lit -> lit -> lit
(** [ite m c a b] is if-then-else: [c ? a : b]. *)

val and_list : t -> lit list -> lit
val or_list : t -> lit list -> lit

val add_output : t -> lit -> int
(** Registers an output; returns its index. *)

val output : t -> int -> lit
val outputs : t -> lit array
val num_outputs : t -> int

val node_of : lit -> int
val is_complemented : lit -> bool
val lit_of_node : int -> bool -> lit

val num_nodes : t -> int
(** Total nodes including the constant and inputs. *)

val num_inputs : t -> int
val num_ands : t -> int
val inputs : t -> lit array
val input_index : t -> int -> int
(** [input_index m node] is the PI ordinal of an input node.
    Raises [Invalid_argument] if the node is not an input. *)

val is_input : t -> int -> bool
val is_and : t -> int -> bool
val is_const : int -> bool
val fanins : t -> int -> lit * lit
(** Fanins of an AND node. *)

val level : t -> int -> int
(** Structural depth: 0 for constant and inputs. *)

val lit_level : t -> lit -> int

(** {2 Cone analysis} *)

val tfi_mark : t -> lit list -> bool array
(** Marks (by node id) every node in the transitive fanin of the roots,
    roots included. *)

val support : t -> lit list -> int list
(** Input node ids appearing in the TFI of the roots, ascending. *)

val count_cone_ands : t -> lit list -> int
(** Number of distinct AND nodes in the union of the TFIs. *)

val fanout_counts : t -> int array
(** Fanout count per node, counting registered outputs as fanouts. *)

(** {2 Copying between managers} *)

val import : t -> t -> map:int array -> lit list -> lit list
(** [import dst src ~map roots] copies the cones of [roots] from [src] into
    [dst].  [map] has one entry per [src] node: a [dst] literal, or [-1] for
    not-yet-mapped.  Entries for all source inputs (and the constant, which
    is premapped automatically) reachable from the roots must be set unless
    they are AND nodes.  The array is updated in place with every node
    copied, so divisor images can be read back after the call. *)

val unmapped : int
(** The [-1] sentinel for {!import} maps. *)

val fresh_map : t -> int array
(** A map for {!import} with every node unmapped. *)

val copy : t -> t
(** Deep copy with identical node numbering of reachable nodes is not
    guaranteed; inputs and outputs are preserved in order. *)

val cofactor : t -> var:lit -> bool -> lit list -> lit list
(** [cofactor m ~var phase roots] rebuilds the root cones inside [m] with
    input [var] replaced by the constant [phase]. *)

val substitute : t -> input:lit -> lit -> lit list -> lit list
(** [substitute m ~input f roots] rebuilds the root cones inside [m] with
    the given primary input replaced by function [f] (a literal of [m]
    whose cone must not contain [input]). *)

val forall : t -> var:lit -> lit -> lit
(** Universal quantification: [forall m ~var f] is [f|var=0 AND f|var=1]. *)

val exists : t -> var:lit -> lit -> lit
(** Existential quantification: [exists m ~var f] = [f|var=0 OR f|var=1]. *)

(** {2 Simulation} *)

val simulate : t -> int64 array -> int64 array
(** [simulate m input_words] evaluates all nodes over 64 parallel patterns;
    result is indexed by node id (values are of plain literals). *)

val eval : t -> bool array -> lit -> bool
(** Single-pattern evaluation of one literal. *)

val lit_value : int64 array -> lit -> int64
(** Value of a literal given node simulation values. *)

(** {2 Miscellany} *)

val pp_stats : Format.formatter -> t -> unit
