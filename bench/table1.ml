(* Regeneration of Table 1: the 20-unit suite under the paper's three
   configurations.  Structural-flagged units run through the structural
   path in every configuration (in the paper those units timed out in SAT
   for all methods, which is why their baseline and min_assume columns are
   identical); only the Exact configuration applies CEGAR_min to them. *)

(* One solved unit x configuration outcome.  [depth] is the maximum
   structural depth over the unit's patches — it rides along with [gates]
   so the counter gate checks both axes (gates and depth never grow). *)
type res = { cost : int; gates : int; depth : int; time : float; verified : bool option }

type row = {
  unit_name : string;
  pis : int;
  pos : int;
  gates_impl : int;
  gates_spec : int;
  n_targets : int;
  results : res option array;
  counters : Telemetry.snapshot array;
      (* per-method solver-effort counter deltas (sat.*, eco.*, qbf.*, ...) *)
}

let methods = [| Eco.Engine.Baseline; Eco.Engine.Min_assume; Eco.Engine.Exact |]
let method_names = [| "w/o minimize_assumptions"; "w/ minimize_assumptions"; "SAT_prune+CEGAR_min" |]

(* Structural units stand in for the paper's SAT timeouts; the structural
   option also keeps their verification budget small, so the wall clock
   stays bounded (the simulation pre-pass still guards against wrong
   patches). *)
let config_for ?(verify = true) ?(certify = false) (spec : Gen.Suite.unit_spec) method_ =
  Server.Request.config_of_options
    { (Server.Request.suite_options ~method_ spec) with certify; verify }

(* Counter deltas come from [local_snapshot]: a unit runs entirely on one
   domain, so diffing the domain-local tallies attributes exactly this
   unit's solver effort to its row even while other units run concurrently
   (and in a sequential run the diffs coincide with global-snapshot
   diffs). *)
let run_unit ?(progress = true) ?verify ?certify (spec : Gen.Suite.unit_spec) =
  let inst = Gen.Suite.instantiate spec in
  let counters = Array.make (Array.length methods) [] in
  let results =
    Array.mapi
      (fun mi m ->
        if progress then
          Printf.eprintf "  %s / %s...\n%!" spec.Gen.Suite.u_name
            (match m with
            | Eco.Engine.Baseline -> "baseline"
            | Eco.Engine.Min_assume -> "min_assume"
            | Eco.Engine.Exact -> "exact");
        let config = config_for ?verify ?certify spec m in
        let before = Telemetry.local_snapshot () in
        let outcome =
          match Eco.Engine.solve ~config inst with
          | { Eco.Engine.status = Eco.Engine.Solved; cost; gates; depth; time; verified; _ } ->
            Some { cost; gates; depth; time; verified }
          | _ -> None
          | exception e ->
            Printf.eprintf "  %s: %s\n%!" spec.Gen.Suite.u_name (Printexc.to_string e);
            None
        in
        counters.(mi) <- Telemetry.diff before (Telemetry.local_snapshot ());
        outcome)
      methods
  in
  {
    unit_name = spec.Gen.Suite.u_name;
    pis = List.length (Netlist.inputs inst.Eco.Instance.impl);
    pos = List.length (Netlist.outputs inst.Eco.Instance.impl);
    gates_impl = Netlist.num_gates inst.Eco.Instance.impl;
    gates_spec = Netlist.num_gates inst.Eco.Instance.spec;
    n_targets = List.length inst.Eco.Instance.targets;
    results;
    counters;
  }

let geomean l =
  match l with
  | [] -> nan
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 l /. float_of_int (List.length l))

let print_rows rows =
  Printf.printf "%-79s\n" (String.make 79 '-');
  Printf.printf "%-7s %5s %5s %7s %7s %4s" "unit" "#PI" "#PO" "#g(F)" "#g(S)" "#tgt";
  Array.iter (fun _ -> Printf.printf " | %7s %7s %5s %8s" "cost" "#g(pch)" "dep" "time(s)") methods;
  print_newline ();
  Printf.printf "%s\n"
    (String.concat " | "
       (Printf.sprintf "%40s" "" :: Array.to_list (Array.map (Printf.sprintf "%-30s") method_names)));
  List.iter
    (fun r ->
      Printf.printf "%-7s %5d %5d %7d %7d %4d" r.unit_name r.pis r.pos r.gates_impl r.gates_spec
        r.n_targets;
      Array.iter
        (function
          | Some { cost; gates; depth; time; _ } ->
            Printf.printf " | %7d %7d %5d %8.2f" cost gates depth time
          | None -> Printf.printf " | %7s %7s %5s %8s" "-" "-" "-" "-")
        r.results;
      print_newline ())
    rows;
  (* Geomean ratios against the baseline column, the paper's bottom row. *)
  let ratios select =
    List.filter_map
      (fun r ->
        match (r.results.(0), select r) with
        | Some r0, Some ri ->
          let safe x = float_of_int (max 1 x) in
          Some
            (safe ri.cost /. safe r0.cost, safe ri.gates /. safe r0.gates,
             max 0.001 ri.time /. max 0.001 r0.time)
        | _ -> None)
      rows
  in
  Printf.printf "%-39s" "Geomean (ratio vs baseline)";
  Array.iteri
    (fun i _ ->
      let rs = ratios (fun r -> r.results.(i)) in
      let c = geomean (List.map (fun (c, _, _) -> c) rs) in
      let g = geomean (List.map (fun (_, g, _) -> g) rs) in
      let t = geomean (List.map (fun (_, _, t) -> t) rs) in
      Printf.printf " | %7.2f %7.2f %5s %7.2fx" c g "" t)
    methods;
  print_newline ()

(* Machine-readable companion of the printed table: one JSON record per
   unit x configuration with the outcome triple plus the telemetry counter
   deltas of that run, so solver-effort metrics (SAT calls, conflicts,
   propagations, cube counts, QBF iterations) regress alongside time. *)
let method_keys = [| "baseline"; "min_assume"; "exact" |]

let write_json path rows =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\"bench\":\"table1\",\"rows\":[";
  let first = ref true in
  List.iter
    (fun r ->
      Array.iteri
        (fun mi _ ->
          if not !first then out ",";
          first := false;
          out "\n{\"unit\":\"%s\",\"method\":\"%s\",\"pis\":%d,\"pos\":%d,\"gates_impl\":%d,"
            (Telemetry.Json.escape r.unit_name)
            method_keys.(mi) r.pis r.pos r.gates_impl;
          out "\"gates_spec\":%d,\"targets\":%d," r.gates_spec r.n_targets;
          (match r.results.(mi) with
          | Some { cost; gates; depth; time; verified } ->
            out "\"solved\":true,\"cost\":%d,\"gates\":%d,\"depth\":%d,\"time\":%.6f," cost gates
              depth time;
            out "\"verified\":%s,"
              (match verified with Some true -> "true" | Some false -> "false" | None -> "null")
          | None -> out "\"solved\":false,");
          out "\"counters\":{%s}}"
            (String.concat ","
               (List.map
                  (fun (n, v) -> Printf.sprintf "\"%s\":%d" (Telemetry.Json.escape n) v)
                  r.counters.(mi))))
        methods)
    rows;
  out "\n]}\n";
  close_out oc;
  Printf.printf "telemetry JSON written to %s\n" path

(* A unit whose job crashed outright (pool-level exception isolation, not
   the per-method catch inside [run_unit] — e.g. [instantiate] itself
   failing) still yields a row, so one bad unit cannot kill the sweep. *)
let failed_row (spec : Gen.Suite.unit_spec) exn =
  Printf.eprintf "  %s: FAILED: %s\n%!" spec.Gen.Suite.u_name (Printexc.to_string exn);
  {
    unit_name = spec.Gen.Suite.u_name;
    pis = 0;
    pos = 0;
    gates_impl = 0;
    gates_spec = 0;
    n_targets = spec.Gen.Suite.n_targets;
    results = Array.map (fun _ -> None) methods;
    counters = Array.make (Array.length methods) [];
  }

let run ?(units = Gen.Suite.all) ?(json = "BENCH_table1.json") ?(jobs = 1) ?verify ?certify () =
  Printf.printf "\n=== Table 1: ICCAD'17-style suite, three configurations ===\n";
  if jobs > 1 then Printf.eprintf "  (parallel sweep: %d worker domains)\n%!" jobs;
  let rows =
    List.map2
      (fun spec -> function Ok row -> row | Error e -> failed_row spec e)
      units
      (Pool.map ~jobs (run_unit ?verify ?certify) units)
  in
  print_rows rows;
  write_json json rows;
  rows
