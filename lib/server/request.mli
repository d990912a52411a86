(** Request schema: parsing, validation and config mapping.

    One validation layer serves both front ends: the daemon parses
    requests out of protocol frames into {!envelope}s, and [eco_cli]
    funnels its [solve]/[client] arguments through the same
    {!method_of_string}/{!resolve} pair — so a bad netlist, an unknown
    unit or a bogus method name produces the same one-line diagnostic
    whether it arrives over a socket or over argv, and never an uncaught
    exception. *)

(** Per-job solver options, a faithful subset of [Eco.Engine.config]
    (the rest of the config is fixed by the method defaults). *)
type options = {
  method_ : Eco.Engine.method_;
  certify : bool;
  structural : bool;
      (** batch-style structural override: forces the structural path
          and trims the verification budget, exactly as [eco_cli batch]
          does for suite units flagged structural *)
  verify : bool;
  no_cache : bool;  (** bypass the server's outcome cache for this job *)
}

val default_options : options
(** [min_assume], verify on, everything else off — the defaults of
    [eco_cli solve]. *)

val suite_options : ?method_:Eco.Engine.method_ -> Gen.Suite.unit_spec -> options
(** The options of a suite unit's Table 1 row: {!default_options} with
    [method_] (default [min_assume]) and the unit's [structural] flag.
    [eco_cli solve --unit]/[batch] and the bench drivers start from
    here, so a row reproduces from the command line. *)

(** Where the instance comes from. *)
type source =
  | Unit_name of string  (** a built-in benchmark unit, "unit1".."unit20" *)
  | Inline of {
      name : string;
      impl : string;  (** structural Verilog text *)
      spec : string;  (** structural Verilog text *)
      targets : string list;
      weights : string option;  (** "name weight" lines *)
    }

type solve_spec = { source : source; options : options }

type request =
  | Solve of solve_spec
  | Batch of solve_spec list
  | Discover of solve_spec
      (** target discovery: like [Solve] but the inline target list may
          be empty — the server diffs [impl] against [spec] and returns
          the discovered target set instead of a patch *)
  | Stats
  | Shutdown

type envelope = {
  id : Jsonx.t;  (** echoed verbatim in the response; [Null] when absent *)
  deadline_ms : int option;
  request : request;
}

type error = {
  err_id : Jsonx.t;  (** the request's ["id"] when one could be read, else [Null] *)
  code : Protocol.error_code;
  msg : string;
}

val parse : string -> (envelope, error) result
(** Parses one frame payload.  The error side distinguishes
    [Bad_json] (not JSON), [Bad_version] (missing/unsupported ["v"]),
    [Unknown_op] and [Bad_request] (anything schema-level, including
    the retired option keys listed in PROTOCOL.md), and carries the
    request id when the payload was parseable enough to contain one, so
    error responses stay correlatable. *)

val to_json : ?id:Jsonx.t -> ?deadline_ms:int -> request -> Jsonx.t
(** The request's wire form — the inverse of {!parse}, used by the
    clients ([eco_cli client], the stress bench). *)

val method_of_string : string -> (Eco.Engine.method_, string) result
(** ["baseline" | "min_assume" | "exact"]. *)

val method_name : Eco.Engine.method_ -> string

val resolve : source -> (Eco.Instance.t, string) result
(** Validates and loads the instance: suite lookup for {!Unit_name},
    Verilog/weights parsing plus [Eco.Instance.make] validation for
    {!Inline}.  Every failure is an [Error] message, never an
    exception. *)

val config_of_options : options -> Eco.Engine.config
(** Method defaults plus the option overrides; the [structural] override
    forces the structural path, which also trims the verification budget
    to 10k conflicts.  Every front end ([eco_cli solve]/[batch], the
    server, the bench drivers) maps its options to an engine config
    through here. *)

val render_outcome : name:string -> Eco.Engine.outcome -> Jsonx.t
(** The deterministic ["result"] object of a solve response: status,
    cost, gates, verification verdict, per-target patch summaries.
    Wall-clock time is deliberately {e not} part of it, so a cached
    replay is byte-identical to the original computation. *)

val render_discovery : name:string -> Diff.Discover.result -> Jsonx.t
(** The ["result"] object of a discover response: the discovered target
    set with its cost, the anchored/mismatched output partition and the
    search statistics.  Unlike {!render_outcome} it includes wall-clock
    time — discovery results are advisory and never cached. *)

val spec_to_json : solve_spec -> Jsonx.t
(** Serialises a job back to its request form (used by the clients). *)
