(** Construction of ECO instances from a base circuit: the specification is
    the base netlist with the local functions of chosen target nodes
    replaced by new cones, so the chosen targets are sufficient by
    construction, mirroring how the contest instances were produced.  The
    specification is then restructured through an AIG round-trip so the
    two sides share no structure (the paper stresses the algorithm assumes
    none). *)

type spec_style =
  | Gate_change  (** swap the target's gate primitive *)
  | Rewire  (** replace one fanin with another visible signal *)
  | New_cone of int  (** fresh random cone of roughly that many gates *)
  | Stuck_const of bool  (** target becomes a constant *)

val derive_spec :
  rand:Random.State.t ->
  ?style:spec_style ->
  ?restructure:bool ->
  Netlist.t ->
  targets:string list ->
  Netlist.t
(** Builds the specification: per-target local-function replacement using
    signals outside the targets' transitive fanout. *)

val pick_targets : rand:Random.State.t -> Netlist.t -> int -> string list
(** Picks distinct internal gate nodes usable as rectification points
    (each reaches at least one output and leaves divisor candidates
    outside its fanout).  A request exceeding the eligible-signal count is
    clamped to the full eligible set — always terminating — with the
    shortfall recorded under the [gen.targets_clamped] telemetry counter.
    Raises [Failure] only when the netlist has no eligible signal at
    all. *)

val restructure : Netlist.t -> Netlist.t
(** Structure-destroying rebuild: netlist -> AIG -> netlist, keeping
    primary input and output names. *)

val make_instance :
  ?name:string ->
  ?style:spec_style ->
  ?dist:Netlist.Weights.distribution ->
  seed:int ->
  n_targets:int ->
  Netlist.t ->
  Eco.Instance.t
(** One-stop construction: pick targets, derive the spec, generate weights
    (default T8). *)
