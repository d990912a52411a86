(** Combinational equivalence checking: random-simulation falsification
    followed by a SAT miter (the machinery of the paper's patch
    verification step and of the §3.2 feasibility check). *)

type verdict =
  | Equivalent
  | Counterexample of bool array  (** input assignment distinguishing them *)
  | Undecided  (** conflict budget exhausted *)

type certification = Cert.verdict = Certified | Check_failed of string
(** Result of independently validating a verdict (see {!Cert}). *)

(** Every SAT query is one attempt on a fresh plain solver
    ({!Sat.Solver}), capped at the caller's [?budget] conflicts (0, the
    default, is unlimited); an exhausted budget gives [Undecided]. *)

val check : ?budget:int -> ?sim_rounds:int -> ?seed:int -> Aig.t -> Aig.t -> verdict
(** [check a b] compares two AIGs output-by-output.  They must have the
    same number of inputs and outputs. *)

val check_certified :
  ?budget:int -> ?sim_rounds:int -> ?seed:int -> Aig.t -> Aig.t -> verdict * certification option
(** Like {!check}, but every decisive verdict comes with an independent
    certification: [Equivalent] is re-derived as an UNSAT miter and its
    resolution proof replayed against the original clause set;
    [Counterexample] models are evaluated against the original clauses
    {e and} replayed on the AIG itself.  [Undecided] carries [None].  The
    primary search is unchanged — certification only reads a clause-log
    tap and runs afterwards. *)

val check_lit : ?budget:int -> Aig.t -> Aig.lit -> verdict
(** Satisfiability of one literal: [Equivalent] means constant-false (no
    satisfying input), [Counterexample] gives an input assignment making it
    true. *)

val check_lit_certified : ?budget:int -> Aig.t -> Aig.lit -> verdict * certification option
(** {!check_lit} with certification, as in {!check_certified}. *)

val replay_counterexample : Aig.t -> Aig.lit -> bool array -> bool
(** [replay_counterexample m l cex] evaluates [l] on the AIG under the
    input assignment [cex] — the independent single-pattern check used to
    certify counterexamples. *)

val find_counterexample_by_simulation :
  ?rounds:int -> ?seed:int -> Aig.t -> Aig.lit -> bool array option
(** Random bit-parallel simulation only: a cheap pre-pass that either finds
    an input making the literal true or gives up. *)

val build_miter : Aig.t -> Aig.t -> Aig.t * Aig.lit
(** Fresh manager containing both circuits over shared inputs and the
    literal "some output pair differs". *)

(** {2 Cross-request verdict memo}

    Hook for a long-lived process (the [eco_cli serve] daemon) to reuse
    decisive CEC verdicts across requests.  With a memo installed,
    {!check} first consults [lookup] and {!check_lit} consults
    [lit_lookup] — the latter is the hook that fires inside the engine's
    feasibility and verification ladders, which check miter {e literals}
    rather than AIG pairs.  A [Some] answer is returned directly (and
    counted as a normal [cec.*] verdict); otherwise the full check runs
    and decisive verdicts ([Equivalent] / [Counterexample]) are handed
    to [store] / [lit_store].  [Undecided] is never memoised — it
    depends on the conflict budget, not the circuits.  The certifying
    entry points ({!check_certified}, {!check_lit_certified}) always
    bypass the memo: a cached verdict has no fresh proof object to
    certify.  The memo implementation is responsible for its own keying
    and collision safety (see [Server.Fingerprint] and [Cache]) and must
    be safe to call from concurrent domains. *)

type memo = {
  lookup : Aig.t -> Aig.t -> verdict option;
  store : Aig.t -> Aig.t -> verdict -> unit;
  lit_lookup : Aig.t -> Aig.lit -> verdict option;
      (** verdict of "is this literal satisfiable in this manager" *)
  lit_store : Aig.t -> Aig.lit -> verdict -> unit;
}

val set_memo : memo option -> unit
(** Installs (or, with [None], removes) the process-global memo.
    Intended to be set once at server start-up, before any concurrent
    checking begins. *)
