(** Incremental CDCL SAT solver.

    A MiniSAT-style solver: two-watched-literal propagation, first-UIP
    conflict analysis with recursive clause minimization, VSIDS decision
    ordering with phase saving, Luby restarts, and LBD-guided deletion of
    learned clauses.

    The solver is incremental: clauses may be added between [solve] calls,
    and each call may carry a list of assumption literals.  After an
    unsatisfiable answer under assumptions, {!final_conflict} returns the
    subset of assumptions the proof used (MiniSAT's [analyze_final] /
    [conflict] vector), which is the primitive both the baseline support
    computation and [minimize_assumptions] are built on.

    {b Watcher discipline.}  Clauses live in a table owned by the solver
    and are named by their index there.  Every clause of length ≥ 2
    keeps its two watched literals in positions 0 and 1 of its literal
    array, and appears on exactly the watch lists of those two literals'
    negations.  A watch list is a flat [int] array of (clause index,
    blocker) pairs: propagation tests the blocker, a literal of the
    clause, before it reads the clause, and moving a watch rewrites two
    ints in place.  Propagation maintains the invariant that a watched
    literal is false only when the other watch is true (or a conflict is
    being reported), so backtracking never needs to revisit watch lists.
    Database reduction drops the pairs of the learned clauses it deletes
    from every watch list in one sweep before their table slots are
    reused, so propagation never meets a deleted clause.  There is no
    preprocessing: clauses enter the solver as given, apart from the
    per-clause cleanup {!add_clause} describes. *)

type t

type result = Sat | Unsat | Unknown

val create : ?proof:bool -> unit -> t
(** [~proof:true] enables resolution-proof logging: clause-database
    simplifications that are awkward to trace (conflict-clause
    minimization, eager literal elimination at level 0) are disabled, and
    each clause records its derivation for interpolant extraction.  Slower;
    off by default. *)

val new_var : t -> int
(** Allocates a fresh variable and returns its index. *)

val new_vars : t -> int -> int
(** [new_vars s n] allocates [n] variables, returning the first index. *)

val nvars : t -> int
(** Number of variables allocated so far. *)

val nclauses : t -> int
(** Number of live problem (non-learned) clauses. *)

val add_clause : t -> Lit.t list -> unit
(** Adds a clause.  Tautologies are dropped; literals false at level 0 are
    removed.  If the clause becomes empty the solver enters a permanently
    unsatisfiable state ({!okay} becomes [false]). *)

val add_clause_a : t -> Lit.t array -> unit
(** Array variant of {!add_clause}; the array is not captured. *)

val set_tap : t -> (Lit.t array -> unit) -> unit
(** Installs an observer called with a private copy of every clause
    subsequently added through {!add_clause} / {!add_clause_a}, with the
    caller's literals as given: before duplicates, tautologies and
    level-0 false literals are dropped, and even once the solver is
    unsatisfiable.  Learnt clauses never reach it.  This is how the
    certification layer ([Cert]) records the clause set that verdicts
    are checked against; it never affects solving. *)

val okay : t -> bool
(** [false] once the clause set is unsatisfiable without assumptions. *)

val solve : ?assumptions:Lit.t list -> t -> result
(** Decides satisfiability of the clause set under the assumptions.
    Returns [Unknown] only when a conflict budget is active and exhausted. *)

val set_budget : t -> int -> unit
(** Limits each subsequent [solve] call to the given number of conflicts;
    a non-positive value removes the limit. *)

val clear_budget : t -> unit
(** Removes any conflict budget set by {!set_budget}. *)

val value : t -> Lit.t -> bool
(** Model value of a literal after [Sat].  Unassigned model variables
    default to [false] polarity.  Raises [Invalid_argument] if the last call
    did not return [Sat]. *)

val model : t -> bool array
(** Full model after [Sat], indexed by variable. *)

val final_conflict : t -> Lit.t list
(** After [Unsat] under assumptions: a subset of the assumption literals
    whose conjunction with the clause set is already unsatisfiable.  Empty
    when the clause set is unsatisfiable on its own. *)

val n_conflicts : t -> int
(** Conflicts hit over the solver's lifetime. *)

val n_decisions : t -> int
(** Decisions made over the solver's lifetime. *)

val n_propagations : t -> int
(** Literals propagated over the solver's lifetime. *)

val n_solve_calls : t -> int
(** Completed {!solve} calls. *)

val n_restarts : t -> int
(** Search restarts (Luby sequence) over the solver's lifetime. *)

val n_learned : t -> int
(** Learned clauses attached over the solver's lifetime (units included). *)

val n_learned_lits : t -> int
(** Total literal count of the learned clauses. *)

val n_deleted : t -> int
(** Learned clauses discarded by database reduction. *)

val avg_lbd : t -> float
(** Mean LBD (glue) of the learned clauses; 0 when none were learned.

    Beyond these per-instance accessors, every solver feeds the global
    {!Telemetry} registry: cumulative [sat.*] counters over all instances
    and a ["sat.solve"] trace event per {!solve} call. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line rendering of the per-instance counters above. *)

(** {2 Proof logging and interpolation support} *)

val add_clause_part : t -> Proof.part -> Lit.t list -> unit
(** Adds a clause tagged with an interpolation partition.  Only valid on a
    solver created with [~proof:true]; [add_clause] on such a solver tags
    [Part_a]. *)

val proof : t -> Proof.t option
(** The resolution proof accumulated so far (when logging is enabled).
    After an unsatisfiable [solve] with no assumptions,
    [Proof.empty_clause] points at the derivation of the empty clause. *)
