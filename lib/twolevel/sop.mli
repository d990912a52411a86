(** Sum-of-products covers over a fixed support. *)

type t

val create : int -> Cube.t list -> t
(** [create n cubes] builds a cover over [n] variables.  All cubes must have
    support size [n]. *)

val zero : int -> t
(** The empty cover (constant 0). *)

val one : int -> t
(** The tautology cover (a single full cube). *)

val nvars : t -> int
val cubes : t -> Cube.t list
val num_cubes : t -> int
val num_literals : t -> int
val is_zero : t -> bool
val is_one : t -> bool
(** Syntactic check: a single literal-free cube. *)

val add_cube : t -> Cube.t -> t
val eval : t -> bool array -> bool

val scc_minimize : t -> t
(** Single-cube-containment minimization: drops every cube contained in
    another cube of the cover. *)

val equal_semantic : t -> t -> bool
(** Exhaustive equivalence check — exponential in [nvars]; only for small
    supports (tests). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
