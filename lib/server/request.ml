type options = {
  method_ : Eco.Engine.method_;
  certify : bool;
  structural : bool;
  no_cache : bool;
}

let default_options =
  {
    method_ = Eco.Engine.Min_assume;
    certify = false;
    structural = false;
    no_cache = false;
  }

let suite_options ?(method_ = default_options.method_) (spec : Gen.Suite.unit_spec) =
  { default_options with method_; structural = spec.Gen.Suite.structural }

type source =
  | Unit_name of string
  | Inline of {
      name : string;
      impl : string;
      spec : string;
      targets : string list;
      weights : string option;
    }

type solve_spec = { source : source; options : options }

type request =
  | Solve of solve_spec
  | Batch of solve_spec list
  | Discover of solve_spec
  | Stats
  | Shutdown

type envelope = { id : Jsonx.t; deadline_ms : int option; request : request }

let method_of_string = function
  | "baseline" -> Ok Eco.Engine.Baseline
  | "min_assume" -> Ok Eco.Engine.Min_assume
  | "exact" -> Ok Eco.Engine.Exact
  | s -> Error (Printf.sprintf "unknown method %S (baseline|min_assume|exact)" s)

let method_name = function
  | Eco.Engine.Baseline -> "baseline"
  | Eco.Engine.Min_assume -> "min_assume"
  | Eco.Engine.Exact -> "exact"

(* {2 Parsing} *)

exception Bad of string

exception Bad_op of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let get_bool obj key ~default =
  match Jsonx.member key obj with
  | None | Some Jsonx.Null -> default
  | Some v -> (
    match Jsonx.to_bool v with
    | Some b -> b
    | None -> bad "field %S must be a boolean" key)

let get_int_opt obj key =
  match Jsonx.member key obj with
  | None | Some Jsonx.Null -> None
  | Some v -> (
    match Jsonx.to_int v with
    | Some i -> Some i
    | None -> bad "field %S must be an integer" key)

let get_str_opt obj key =
  match Jsonx.member key obj with
  | None | Some Jsonx.Null -> None
  | Some v -> (
    match Jsonx.to_str v with
    | Some s -> Some s
    | None -> bad "field %S must be a string" key)

let parse_options obj =
  let method_ =
    match get_str_opt obj "method" with
    | None -> default_options.method_
    | Some s -> ( match method_of_string s with Ok m -> m | Error e -> bad "%s" e)
  in
  (* Retired keys that would change the answer: ignoring [resynth: true]
     would silently serve unimproved patches to a client that asked for
     improved ones, and ignoring [budget] would run a different search
     from the one asked for, so they are refused instead. *)
  List.iter
    (fun key ->
      if Jsonx.member key obj <> None then
        bad "field %S is retired: patch resynthesis was removed" key)
    [ "resynth"; "exact_synth"; "rewrite"; "gate_weight"; "depth_weight" ];
  if Jsonx.member "budget" obj <> None then
    bad "field \"budget\" is retired: the engine's conflict budgets are fixed";
  (* The retired "reuse_sessions", "inprocess" and "verify" keys are
     ignored rather than refused: dropping them cannot weaken the answer,
     and every solved outcome is verified. *)
  {
    method_;
    certify = get_bool obj "certify" ~default:false;
    structural = get_bool obj "structural" ~default:false;
    no_cache = get_bool obj "no_cache" ~default:false;
  }

(* [targets_required] is relaxed for the [discover] op, whose whole point
   is that the caller has no target list yet. *)
let parse_source ?(targets_required = true) obj =
  match (get_str_opt obj "unit", get_str_opt obj "impl", get_str_opt obj "spec") with
  | Some u, None, None -> Unit_name u
  | None, Some impl, Some spec ->
    let targets =
      match Jsonx.member "targets" obj with
      | None ->
        if targets_required then bad "inline instances require a non-empty \"targets\" array"
        else []
      | Some v -> (
        match Jsonx.to_list v with
        | None -> bad "field \"targets\" must be an array of strings"
        | Some xs ->
          List.map
            (fun x ->
              match Jsonx.to_str x with
              | Some s -> s
              | None -> bad "field \"targets\" must be an array of strings")
            xs)
    in
    if targets = [] && targets_required then
      bad "inline instances require a non-empty \"targets\" array";
    let name = Option.value (get_str_opt obj "name") ~default:"request" in
    Inline { name; impl; spec; targets; weights = get_str_opt obj "weights" }
  | Some _, _, _ -> bad "pass either \"unit\" or both \"impl\" and \"spec\", not both"
  | _ -> bad "pass either \"unit\" or both \"impl\" and \"spec\""

let parse_spec ?targets_required obj =
  { source = parse_source ?targets_required obj; options = parse_options obj }

type error = { err_id : Jsonx.t; code : Protocol.error_code; msg : string }

let parse payload =
  match Jsonx.of_string payload with
  | exception Jsonx.Parse_error msg ->
    Error { err_id = Jsonx.Null; code = Protocol.Bad_json; msg }
  | json -> (
    match json with
    | Jsonx.Obj _ -> (
      let id = Option.value (Jsonx.member "id" json) ~default:Jsonx.Null in
      let error code msg = Error { err_id = id; code; msg } in
      match Jsonx.member "v" json with
      | None -> error Protocol.Bad_version "missing protocol version field \"v\""
      | Some v when v <> Jsonx.Int Protocol.version ->
        error Protocol.Bad_version
          (Printf.sprintf "unsupported protocol version (this server speaks v%d)"
             Protocol.version)
      | Some _ -> (
        try
          let deadline_ms =
            match get_int_opt json "deadline_ms" with
            | Some d when d <= 0 -> bad "field \"deadline_ms\" must be positive, got %d" d
            | d -> d
          in
          let request =
            match get_str_opt json "op" with
            | None -> raise (Bad_op "missing \"op\" field (solve|batch|discover|stats|shutdown)")
            | Some "solve" -> Solve (parse_spec json)
            | Some "discover" -> Discover (parse_spec ~targets_required:false json)
            | Some "batch" -> (
              match Jsonx.member "jobs" json with
              | None -> bad "batch requests require a non-empty \"jobs\" array"
              | Some v -> (
                match Jsonx.to_list v with
                | None | Some [] -> bad "batch requests require a non-empty \"jobs\" array"
                | Some jobs ->
                  Batch
                    (List.map
                       (function
                         | Jsonx.Obj _ as j -> parse_spec j
                         | _ -> bad "every element of \"jobs\" must be an object")
                       jobs)))
            | Some "stats" -> Stats
            | Some "shutdown" -> Shutdown
            | Some op ->
              raise
                (Bad_op
                   (Printf.sprintf "unknown op %S (solve|batch|discover|stats|shutdown)" op))
          in
          Ok { id; deadline_ms; request }
        with
        | Bad msg -> error Protocol.Bad_request msg
        | Bad_op msg -> error Protocol.Unknown_op msg))
    | _ ->
      Error
        { err_id = Jsonx.Null; code = Protocol.Bad_request; msg = "request must be a JSON object" })

(* {2 Validation / loading} *)

let resolve source =
  match source with
  | Unit_name u -> (
    match Gen.Suite.find u with
    | exception Not_found -> Error (Printf.sprintf "unknown unit %S" u)
    | spec -> (
      try Ok (Gen.Suite.instantiate spec)
      with Failure msg -> Error msg))
  | Inline { name; impl; spec; targets; weights } -> (
    try
      let impl = Netlist.Verilog.of_string impl in
      let spec = Netlist.Verilog.of_string spec in
      let weights =
        match weights with
        | Some text -> Netlist.Weights.of_string text
        | None -> Netlist.Weights.uniform impl 1
      in
      Ok (Eco.Instance.make ~name ~impl ~spec ~targets ~weights ())
    with Failure msg -> Error msg)

let config_of_options o =
  let c = Eco.Engine.config_of_method o.method_ in
  { c with Eco.Engine.certify = o.certify; force_structural = o.structural }

(* {2 Rendering} *)

let render_outcome ~name (o : Eco.Engine.outcome) =
  let status, failure =
    match o.Eco.Engine.status with
    | Eco.Engine.Solved -> ("solved", [])
    | Eco.Engine.Infeasible -> ("infeasible", [])
    | Eco.Engine.Failed msg -> ("failed", [ ("failure", Jsonx.Str msg) ])
  in
  let patch (p : Eco.Patch.t) =
    Jsonx.Obj
      [
        ("target", Jsonx.Str p.Eco.Patch.target);
        ( "support",
          Jsonx.List
            (List.map
               (fun (s, w) ->
                 Jsonx.Obj [ ("signal", Jsonx.Str s); ("cost", Jsonx.Int w) ])
               p.Eco.Patch.support) );
        ("gates", Jsonx.Int p.Eco.Patch.gates);
        ("depth", Jsonx.Int p.Eco.Patch.depth);
      ]
  in
  Jsonx.Obj
    ([
       ("name", Jsonx.Str name);
       ("status", Jsonx.Str status);
     ]
    @ failure
    @ [
        ("cost", Jsonx.Int o.Eco.Engine.cost);
        ("gates", Jsonx.Int o.Eco.Engine.gates);
        ("depth", Jsonx.Int o.Eco.Engine.depth);
        ( "verified",
          match o.Eco.Engine.verified with
          | Some true -> Jsonx.Str "yes"
          | Some false -> Jsonx.Str "no"
          | None -> Jsonx.Str "-" );
        ("structural", Jsonx.Bool o.Eco.Engine.used_structural);
        ("sat_calls", Jsonx.Int o.Eco.Engine.sat_calls);
        ("patches", Jsonx.List (List.map patch o.Eco.Engine.patches));
      ])

let render_discovery ~name (d : Diff.Discover.result) =
  let strs l = Jsonx.List (List.map (fun s -> Jsonx.Str s) l) in
  Jsonx.Obj
    [
      ("name", Jsonx.Str name);
      ("targets", strs d.Diff.Discover.targets);
      ("cost", Jsonx.Int d.Diff.Discover.cost);
      ("anchored", strs d.Diff.Discover.anchored);
      ("mismatched", strs d.Diff.Discover.mismatched);
      ("candidates", Jsonx.Int d.Diff.Discover.candidates);
      ("iterations", Jsonx.Int d.Diff.Discover.iterations);
      ("checks", Jsonx.Int d.Diff.Discover.checks);
      ("minimum", Jsonx.Bool d.Diff.Discover.minimum);
      ("time", Jsonx.Float d.Diff.Discover.time);
    ]

let spec_to_json { source; options = o } =
  let source_fields =
    match source with
    | Unit_name u -> [ ("unit", Jsonx.Str u) ]
    | Inline { name; impl; spec; targets; weights } ->
      [
        ("name", Jsonx.Str name);
        ("impl", Jsonx.Str impl);
        ("spec", Jsonx.Str spec);
        ("targets", Jsonx.List (List.map (fun t -> Jsonx.Str t) targets));
      ]
      @ (match weights with Some w -> [ ("weights", Jsonx.Str w) ] | None -> [])
  in
  let flag name value = if value then [ (name, Jsonx.Bool true) ] else [] in
  Jsonx.Obj
    (source_fields
    @ [ ("method", Jsonx.Str (method_name o.method_)) ]
    @ flag "certify" o.certify
    @ flag "structural" o.structural
    @ flag "no_cache" o.no_cache)

let to_json ?(id = Jsonx.Null) ?deadline_ms request =
  let envelope op extra =
    let id_field = match id with Jsonx.Null -> [] | v -> [ ("id", v) ] in
    let deadline =
      match deadline_ms with Some d -> [ ("deadline_ms", Jsonx.Int d) ] | None -> []
    in
    Jsonx.Obj
      ([ ("v", Jsonx.Int Protocol.version); ("op", Jsonx.Str op) ] @ id_field @ deadline @ extra)
  in
  match request with
  | Solve spec -> (
    match spec_to_json spec with
    | Jsonx.Obj fields -> envelope "solve" fields
    | _ -> assert false)
  | Batch jobs -> envelope "batch" [ ("jobs", Jsonx.List (List.map spec_to_json jobs)) ]
  | Discover spec -> (
    match spec_to_json spec with
    | Jsonx.Obj fields -> envelope "discover" fields
    | _ -> assert false)
  | Stats -> envelope "stats" []
  | Shutdown -> envelope "shutdown" []
