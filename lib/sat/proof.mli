(** Resolution proof logging for interpolation.

    When a solver is created with proof logging enabled (see
    {!Solver.create}), every original clause is registered as a leaf
    tagged with an interpolation partition (A or B), and every learned
    clause records its derivation: a base clause resolved against a
    sequence of (pivot variable, antecedent clause) steps.  An
    unsatisfiable run ends with a derivation of the empty clause, from
    which {!Aig}-level code (see [Aig.Interp]) extracts a Craig
    interpolant — the machinery behind the interpolation-based patch
    computation of Wu et al. [15] that the paper's cube enumeration is
    compared against. *)

type part = Part_a | Part_b

type node =
  | Leaf of { lits : Lit.t array; part : part }
  | Derived of { lits : Lit.t array; base : int; steps : (int * int) array }
      (** [steps] are (pivot variable, antecedent id) resolutions applied in
          order to [base]. *)

type t

val create : unit -> t
val add_leaf : t -> part -> Lit.t array -> int
val add_derived : t -> Lit.t array -> base:int -> steps:(int * int) list -> int
val node : t -> int -> node
val size : t -> int

val set_empty : t -> int -> unit
(** Marks the node deriving the empty clause. *)

val empty_clause : t -> int option

val var_class : t -> int -> [ `A_local | `B_local | `Shared | `Unused ]
(** Occurrence class of a variable over the leaf clauses. *)
