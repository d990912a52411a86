(** Independent certification of final solver verdicts.

    The solver stack answers "this clause set is satisfiable (here is a
    model)" or "unsatisfiable (trust me / here is a core)".  This layer
    validates those answers against the {e original} clause set of the
    solver, recorded by a tap on the solver ({!Sat.Solver.set_tap})
    before the solver drops or shortens anything:

    - a SAT verdict is certified by evaluating the model on every
      recorded clause;
    - an UNSAT verdict — with or without an assumption core — is
      certified by re-deriving it in a fresh proof-logging solver over
      the recorded clauses plus the core literals as unit clauses, then
      replaying the resulting resolution proof with the standalone
      {!Checker} (whose leaves are checked for membership in the
      recorded set, so the proof provably refutes {e this} problem).

    Trust boundary: only the clause log, {!Checker}, and model
    evaluation are trusted; both the original and the re-deriving solver
    are not.  Every certification attempt bumps the [cert.checked]
    telemetry counter; failures bump [cert.failed] and emit a
    ["cert.failed"] trace event, and replay effort accumulates in
    [cert.proof_steps] / [cert.rup_fallbacks]. *)

module Checker = Checker

type verdict = Certified | Check_failed of string

type log
(** The recorded original clause set of one solver. *)

val attach : Sat.Solver.t -> log
(** Creates a log and installs it as the solver's clause tap: every
    clause subsequently added through {!Sat.Solver.add_clause} /
    {!Sat.Solver.add_clause_a} is recorded.  Call before the first
    clause is added. *)

val n_clauses : log -> int

val certify_sat : log -> value:(Sat.Lit.t -> bool) -> verdict
(** Certifies a SAT verdict: [value] (typically {!Sat.Solver.value} on
    the solver) must satisfy every recorded clause. *)

val certify_unsat : ?budget:int -> log -> assumptions:Sat.Lit.t list -> verdict
(** Certifies an UNSAT verdict: the recorded clauses together with the
    assumption literals (the claimed core; [[]] for an unconditional
    UNSAT) are re-derived as unsatisfiable and the proof is replayed.
    [?budget] bounds the re-derivation's conflicts (0, the default, is
    unlimited); exhausting it yields [Check_failed]. *)

val record : string -> verdict -> unit
(** [record site v] books [v] into the cert telemetry counters (and, on
    failure, a trace event naming [site]).  Every user-facing
    certification site funnels through this, and callers read the
    outcome from the counters (see {!summary}). *)

val summary : unit -> int
(** Prints the one-line certification summary of this process's
    [cert.*] counters on stdout and returns the [cert.failed] count. *)
