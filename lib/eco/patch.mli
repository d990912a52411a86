(** The product of the engine for one target: a patch function over a
    chosen support, as a standalone circuit plus metadata. *)

type t = {
  target : string;
  support : (string * int) list;
      (** support signal names and costs, in circuit-input order *)
  circuit : Aig.t;
      (** standalone single-output AIG; input [i] is [List.nth support i] *)
  gates : int;  (** AND nodes of the factored patch circuit *)
  depth : int;  (** structural level of the patch output *)
  sop : Twolevel.Sop.t option;
      (** the prime irredundant cover, when computed by cube enumeration *)
}

val cost : t -> int

val make :
  ?sop:Twolevel.Sop.t -> target:string -> support:(string * int) list -> Aig.t -> t
(** Validates that the circuit has one output and an input per support
    entry; computes the gate count and depth. *)

val of_expr :
  ?sop:Twolevel.Sop.t ->
  target:string ->
  support:(string * int) list ->
  Twolevel.Factor.expr ->
  t
(** Synthesizes a factored expression into a standalone circuit. *)

val import_into : t -> Aig.t -> support_lits:Aig.lit list -> Aig.lit
(** Copies the patch circuit into another manager, mapping its inputs to
    the given literals (e.g. the divisor literals of the miter). *)

val eval : t -> bool array -> bool

val pp : Format.formatter -> t -> unit

val sweep : ?max_queries:int -> t -> t
(** SAT-sweeps the patch circuit ({!Aig.Fraig}), merging functionally
    equivalent internal nodes; support and input order are preserved.
    The sweep makes at most [max_queries] SAT queries (default 500);
    candidates past the cap stay unmerged, so the result is always
    equivalent and never depends on the clock.  Sweep effort is booked
    under the [eco.sweep.*] counters. *)
