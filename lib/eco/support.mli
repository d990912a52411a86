(** Patch support computation (§3.4.1): choosing a low-cost subset of the
    candidate divisors sufficient to express the patch.

    Three strategies, matching the three column groups of Table 1:
    - {!baseline}: one UNSAT call over all selectors; the support is the
      solver's final conflict ([analyze_final]) — no minimization;
    - {!with_min_assume}: Algorithm 1 over the cost-sorted selectors,
      optionally followed by the last-gasp single-swap improvement;
    - exact minimum cost is in {!Sat_prune}. *)

type selection = {
  indices : int list;  (** chosen divisor indices, ascending *)
  cost : int;
  sat_calls : int;  (** solver calls spent by this strategy *)
}

val cost_of : Two_copy.t -> int list -> int

val baseline : ?budget:int -> Two_copy.t -> selection option
(** [None] when expression (2) is satisfiable even with every divisor
    enabled — the divisor set (hence the target at this step) cannot
    rectify the circuit.  Raises {!Min_assume.Budget_exhausted} on
    timeout. *)

val with_min_assume : ?budget:int -> ?last_gasp:bool -> Two_copy.t -> selection option
(** Cost-aware minimal support via [minimize_assumptions], run within the
    final-conflict core rather than the paper's full cost-sorted selector
    list — same minimality guarantee, far fewer large-assumption solver
    calls.  [last_gasp] (default true; the engine always uses it, only
    Ablation D turns it off) then tries to replace each chosen divisor by
    one of up to 16 cheaper divisors. *)
