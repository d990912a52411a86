(** Small netlist-construction DSL used by the circuit generators. *)

type t

val create : ?prefix:string -> unit -> t

val input : t -> string -> string
(** Declares a primary input; returns its name. *)

val gate : t -> ?name:string -> Netlist.gate -> string list -> string
(** Adds a gate over existing signals; auto-names it when [name] is
    omitted.  Returns the output signal name. *)

val and2 : t -> string -> string -> string
val or2 : t -> string -> string -> string
val xor2 : t -> string -> string -> string
val xnor2 : t -> string -> string -> string
val not1 : t -> string -> string
val mux : t -> sel:string -> string -> string -> string
(** [mux b ~sel a c] is [sel ? a : c]. *)

val const0 : t -> string
val const1 : t -> string

val signals : t -> string list
(** All signal names declared so far, in creation order. *)

val finish : t -> outputs:string list -> Netlist.t
