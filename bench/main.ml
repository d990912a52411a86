(* Benchmark harness entry point.

   dune exec bench/main.exe              -- everything (Table 1, ablations,
                                            microbenchmarks)
   dune exec bench/main.exe table1       -- just the Table 1 regeneration
   dune exec bench/main.exe table1-smoke -- Table 1 on the quick units only
                                            (CI's -j equivalence check)
   dune exec bench/main.exe ablations    -- ablations A-E
   dune exec bench/main.exe ablationA    -- one ablation (ablationA ..
                                            ablationE)
   dune exec bench/main.exe micro        -- bechamel kernels
   dune exec bench/main.exe discovery    -- found-vs-planted target table
                                            on blind (--no-targets) units;
                                            with --smoke, restrict to the
                                            15 smoke units and enforce the
                                            recovery/parity/cost gates
                                            (CI's discovery check)
   dune exec bench/main.exe serve-stress -- the quick units against a
                                            live server (see below)

   Options (anywhere in argv; an unknown option, a second experiment
   name or a value option without its value is a one-line error with
   exit code 2, before anything runs or any JSON is written):
   -j N            run the Table 1 sweep on N worker domains (default 1;
                   cost/gates/status columns and counter totals are
                   identical to -j 1 — only wall-clock changes)
   --units U1,U2   run only the named units (table1*, discovery,
                   serve-stress)
   --no-verify     skip the verification ladder (for quick smoke runs)
   --certify       independently certify every final SAT/UNSAT verdict
                   (models re-evaluated, UNSAT proofs replayed); prints a
                   certification summary and exits non-zero if any check
                   fails
   --json FILE     write the Table 1 telemetry JSON here
                   (default BENCH_table1.json)

   serve-stress replays the quick units against a live `eco_cli serve`
   (or a self-spawned in-process server) and reports throughput and
   latency percentiles per pass; see bench/stress.ml.  Extra options:
   --socket ADDR   target an external server instead of spawning one
   --repeat N      number of passes over the unit list (default 2:
                   cold then warm)
   --no-cache      ask the server to bypass its outcome cache (the
                   ablation baseline) *)

let fast_units =
  List.filter
    (fun (s : Gen.Suite.unit_spec) -> not (List.mem s.Gen.Suite.id [ 9; 19 ]))
    Gen.Suite.all

(* Target discovery still stops its search on a wall-clock deadline
   ([Diff.Discover.config.deadline]), and the committed
   BENCH_discovery.json reference covers these units only. *)
let discovery_smoke_units =
  List.filter
    (fun (s : Gen.Suite.unit_spec) -> not (List.mem s.Gen.Suite.id [ 14; 17; 20 ]))
    fast_units

let usage fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

let positive flag n =
  match int_of_string_opt n with
  | Some n when n >= 1 -> n
  | _ -> usage "%s expects a positive integer, got %S" flag n

let () =
  let verify = ref true in
  let certify = ref false in
  let no_cache = ref false in
  let smoke = ref false in
  let jobs = ref 1 in
  let json = ref None in
  let socket = ref None in
  let repeat = ref 2 in
  let only = ref None in
  let what = ref None in
  let set_value flag v =
    match flag with
    | "-j" -> jobs := positive flag v
    | "--json" -> json := Some v
    | "--units" -> only := Some (String.split_on_char ',' v)
    | "--socket" -> socket := Some v
    | _ -> repeat := positive flag v
  in
  let rec parse = function
    | [] -> ()
    | "--no-verify" :: rest -> verify := false; parse rest
    | "--certify" :: rest -> certify := true; parse rest
    | "--no-cache" :: rest -> no_cache := true; parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | (("-j" | "--json" | "--units" | "--socket" | "--repeat") as flag) :: rest -> (
      match rest with
      | v :: rest when not (String.starts_with ~prefix:"-" v) -> set_value flag v; parse rest
      | _ -> usage "%s expects a value" flag)
    | a :: rest when String.starts_with ~prefix:"-j" a ->
      jobs := positive "-j" (String.sub a 2 (String.length a - 2));
      parse rest
    | a :: _ when String.starts_with ~prefix:"-" a -> usage "unknown option %S" a
    | a :: rest -> (
      match !what with
      | None -> what := Some a; parse rest
      | Some w -> usage "unexpected argument %S after experiment %S" a w)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let what = Option.value !what ~default:"all" in
  let verify = !verify and certify = !certify and jobs = !jobs in
  let json_or default = Option.value !json ~default in
  (* The experiment's own unit list, or the --units selection. *)
  let units_or default =
    match !only with
    | None -> default
    | Some names ->
      List.map
        (fun name ->
          match Gen.Suite.find name with
          | spec -> spec
          | exception Not_found -> usage "unknown unit %S" name)
        names
  in
  let table1 units =
    ignore (Table1.run ~units ~json:(json_or "BENCH_table1.json") ~jobs ~verify ~certify ());
    if certify && Cert.summary () > 0 then exit 1
  in
  match what with
  | "table1" -> table1 (units_or Gen.Suite.all)
  | "table1-smoke" -> table1 (units_or fast_units)
  | "ablations" -> Ablations.run_all ()
  | "ablationA" -> Ablations.ablation_a ()
  | "ablationB" -> Ablations.ablation_b ()
  | "ablationC" -> Ablations.ablation_c ()
  | "ablationD" -> Ablations.ablation_d ()
  | "ablationE" -> Ablations.ablation_e ()
  | "micro" -> Micro.run ()
  | "discovery" ->
    let units = units_or (if !smoke then discovery_smoke_units else Gen.Suite.all) in
    let failures =
      Discovery.run ~units ~json:(json_or "BENCH_discovery.json") ~jobs ~gate:!smoke ()
    in
    if failures > 0 then exit 1
  | "serve-stress" ->
    let failures =
      Stress.run ~units:(units_or fast_units) ~socket:!socket ~jobs ~repeat:!repeat
        ~no_cache:!no_cache ~certify ~json:(json_or "BENCH_stress.json") ()
    in
    if failures > 0 then exit 1
  | "all" ->
    table1 (units_or Gen.Suite.all);
    Ablations.run_all ();
    Micro.run ()
  | other ->
    usage
      "unknown experiment %S (table1 | table1-smoke | ablations | ablationA..E | \
       micro | discovery | serve-stress | all)"
      other
