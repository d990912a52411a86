(* Benchmark harness entry point.

   dune exec bench/main.exe              -- everything (Table 1, ablations,
                                            microbenchmarks)
   dune exec bench/main.exe table1       -- just the Table 1 regeneration
   dune exec bench/main.exe table1-fast  -- Table 1 on the quick units only
   dune exec bench/main.exe table1-smoke -- fast units minus the
                                            deadline-bound ones (CI's
                                            -j equivalence check)
   dune exec bench/main.exe ablations    -- ablations A-E
   dune exec bench/main.exe ablationA    -- one ablation (ablationA ..
                                            ablationE)
   dune exec bench/main.exe micro        -- bechamel kernels
   dune exec bench/main.exe discovery    -- found-vs-planted target table
                                            on blind (--no-targets) units;
                                            with --smoke, restrict to the
                                            smoke units and enforce the
                                            recovery/parity/cost gates
                                            (CI's discovery check)
   dune exec bench/main.exe serve-stress -- the smoke units against a
                                            live server (see below)

   Options (anywhere in argv):
   --no-simplify   disable SatELite-style CNF preprocessing in every SAT
                   call, for A/B counter comparisons
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
   --resynth       resynthesize the final patches (exact synthesis of
                   ≤ 6-input patches, then cut rewriting); statuses and
                   costs are identical with the flag on or off, gates/depth
                   drop
   --json FILE     write the Table 1 telemetry JSON here
                   (default BENCH_table1.json)

   serve-stress replays the smoke units against a live `eco_cli serve`
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

(* Deadline-robust subset for the parallel-equivalence CI smoke: the fast
   units minus those whose runs lean on wall-clock deadlines (sat_prune /
   patch enumeration), which bind at different points under CPU
   contention and so can legitimately differ between -j 1 and -j N. *)
let smoke_units =
  List.filter
    (fun (s : Gen.Suite.unit_spec) -> not (List.mem s.Gen.Suite.id [ 14; 17; 20 ]))
    fast_units

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--no-simplify" args then Sat.Simplify.enabled := false;
  let verify = not (List.mem "--no-verify" args) in
  let certify = List.mem "--certify" args in
  let resynth = List.mem "--resynth" args in
  (* Consume "-j N" / "--json FILE" pairs (and "-jN"), leaving the
     experiment name. *)
  let jobs = ref 1 in
  let json = ref "BENCH_table1.json" in
  let socket = ref None in
  let repeat = ref 2 in
  let no_cache = List.mem "--no-cache" args in
  let smoke = List.mem "--smoke" args in
  let only = ref None in
  let rec strip = function
    | [] -> []
    | "-j" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> jobs := n; strip rest
      | _ -> Printf.eprintf "-j expects a positive integer, got %S\n" n; exit 2)
    | "--json" :: path :: rest -> json := path; strip rest
    | "--units" :: names :: rest ->
      only := Some (String.split_on_char ',' names);
      strip rest
    | "--socket" :: addr :: rest -> socket := Some addr; strip rest
    | "--repeat" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> repeat := n; strip rest
      | _ -> Printf.eprintf "--repeat expects a positive integer, got %S\n" n; exit 2)
    | a :: rest when String.length a > 2 && String.sub a 0 2 = "-j" -> (
      match int_of_string_opt (String.sub a 2 (String.length a - 2)) with
      | Some n when n >= 1 -> jobs := n; strip rest
      | _ -> Printf.eprintf "bad option %S\n" a; exit 2)
    | ("--no-simplify" | "--no-verify" | "--certify" | "--no-cache" | "--smoke" | "--resynth")
      :: rest -> strip rest
    | a :: rest -> a :: strip rest
  in
  let what = match strip args with [] -> "all" | w :: _ -> w in
  let jobs = !jobs in
  let json = !json in
  (* The experiment's own unit list, or the --units selection. *)
  let units_or default =
    match !only with
    | None -> default
    | Some names ->
      List.map
        (fun name ->
          match Gen.Suite.find name with
          | spec -> spec
          | exception Not_found ->
            Printf.eprintf "unknown unit %S\n" name;
            exit 2)
        names
  in
  let table1 units =
    ignore (Table1.run ~units ~json ~jobs ~verify ~certify ~resynth ());
    if certify then begin
      let snap = Telemetry.snapshot () in
      let get n = match List.assoc_opt n snap with Some v -> v | None -> 0 in
      Printf.printf "certification: %d checks (%d proof steps, %d rup), %d failed\n"
        (get "cert.checked") (get "cert.proof_steps") (get "cert.rup_fallbacks")
        (get "cert.failed");
      if get "cert.failed" > 0 then exit 1
    end
  in
  match what with
  | "table1" -> table1 (units_or Gen.Suite.all)
  | "table1-fast" -> table1 (units_or fast_units)
  | "table1-smoke" -> table1 (units_or smoke_units)
  | "ablations" -> Ablations.run_all ()
  | "ablationA" -> Ablations.ablation_a ()
  | "ablationB" -> Ablations.ablation_b ()
  | "ablationC" -> Ablations.ablation_c ()
  | "ablationD" -> Ablations.ablation_d ()
  | "ablationE" -> Ablations.ablation_e ()
  | "micro" -> Micro.run ()
  | "discovery" ->
    let json = if json = "BENCH_table1.json" then "BENCH_discovery.json" else json in
    let units = units_or (if smoke then smoke_units else Gen.Suite.all) in
    let failures = Discovery.run ~units ~json ~jobs ~gate:smoke () in
    if failures > 0 then exit 1
  | "serve-stress" ->
    let json = if json = "BENCH_table1.json" then "BENCH_stress.json" else json in
    let failures =
      Stress.run ~units:(units_or smoke_units) ~socket:!socket ~jobs ~repeat:!repeat ~no_cache
        ~certify ~json ()
    in
    if failures > 0 then exit 1
  | "all" ->
    table1 (units_or Gen.Suite.all);
    Ablations.run_all ();
    Micro.run ()
  | other ->
    Printf.eprintf
      "unknown experiment %S (table1 | table1-fast | table1-smoke | ablations | ablationA..E | \
       micro | discovery | serve-stress | all)\n"
      other;
    exit 2
