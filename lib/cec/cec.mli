(** Combinational equivalence checking: random-simulation falsification
    followed by a SAT miter (the machinery of the paper's patch
    verification step and of the §3.2 feasibility check). *)

type verdict =
  | Equivalent
  | Counterexample of bool array  (** input assignment distinguishing them *)
  | Undecided  (** conflict budget exhausted *)

(** Every SAT query is one attempt on a fresh plain solver
    ({!Sat.Solver}), capped at the caller's [?budget] conflicts (0, the
    default, is unlimited); an exhausted budget gives [Undecided].

    With [~certify:true] (default [false]) every decisive verdict is
    independently certified and booked in the [cert.*] counters by
    {!Cert.record}: [Equivalent] is re-derived as an UNSAT miter and its
    resolution proof replayed against the original clause set;
    [Counterexample] models are evaluated against the original clauses
    {e and} replayed on the AIG itself.  [Undecided] is not certified.
    The search itself is unchanged — certification only reads a
    clause-log tap and runs afterwards. *)

val check_lit : ?budget:int -> ?certify:bool -> Aig.t -> Aig.lit -> verdict
(** Satisfiability of one literal by SAT alone: [Equivalent] means
    constant-false (no satisfying input), [Counterexample] gives an input
    assignment making it true. *)

val check_miter : ?budget:int -> ?certify:bool -> Aig.t -> Aig.lit -> verdict
(** {!check_lit} preceded by 32 rounds of bit-parallel random
    simulation, which answers [Counterexample] directly when a pattern
    makes the literal true.  The simulation runs outside the ["cec"]
    telemetry phase and ahead of the memo. *)

val check : ?budget:int -> ?certify:bool -> Aig.t -> Aig.t -> verdict
(** [check a b] compares two AIGs output-by-output: {!build_miter}, then
    {!check_miter}.  They must have the same number of inputs and
    outputs. *)

val build_miter : Aig.t -> Aig.t -> Aig.t * Aig.lit
(** Fresh manager containing both circuits over shared inputs and the
    literal "some output pair differs". *)

(** {2 Cross-request verdict memo}

    Hook for a long-lived process (the [eco_cli serve] daemon) to reuse
    decisive SAT verdicts across requests.  With a memo installed,
    {!check_lit} (and so every check) first consults [lookup].  A [Some]
    answer is returned directly (and counted as a normal [cec.*]
    verdict); otherwise the SAT query runs and a decisive verdict
    ([Equivalent] / [Counterexample]) is handed to [store].  [Undecided]
    is never memoised — it depends on the conflict budget, not the
    circuit.  A [~certify:true] check bypasses the memo: a cached verdict
    has no fresh proof object to certify.  The memo implementation is
    responsible for its own keying and collision safety (see
    [Server.Fingerprint] and [Cache]) and must be safe to call from
    concurrent domains. *)

type memo = {
  lookup : Aig.t -> Aig.lit -> verdict option;
      (** verdict of "is this literal satisfiable in this manager" *)
  store : Aig.t -> Aig.lit -> verdict -> unit;
}

val set_memo : memo option -> unit
(** Installs (or, with [None], removes) the process-global memo.
    Intended to be set once at server start-up, before any concurrent
    checking begins. *)
