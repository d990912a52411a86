(* The discovery table: found-vs-planted target comparison on blind
   suite units.

   Each unit is instantiated blind (planted target list withheld), run
   through [Eco.Engine.discover_targets], and then solved twice — once
   with the oracle (planted) targets, once with the discovered set — under
   the same engine configuration as the Table 1 min_assume column.
   Reported per unit: set recovery, discovered-vs-planted target cost,
   patch cost delta vs the oracle run, and discovery wall time.

   With [gate] set (the CI `discovery --smoke` step), the run fails when
   - any unit's discovered-target solve disagrees with its oracle solve on
     status or verification, or
   - the patch cost lands within 25% of the oracle run on fewer than 80%
     of the units.
   Exact-set recovery is reported but not gated: discovery regularly finds
   a cheaper cut than the planted one (a strictly better answer), which
   the recovery column would count against it. *)

type solve_summary = { status : string; verified : string; cost : int; time : float }

type row = {
  unit_name : string;
  planted : string list;
  discovered : string list;
  planted_cost : int;
  discovered_cost : int;
  recovered : bool;
  minimum : bool;
  anchored : int;
  mismatched : int;
  candidates : int;
  iterations : int;
  checks : int;
  discovery_time : float;
  oracle : solve_summary;
  with_discovered : solve_summary;
  counters : Telemetry.snapshot;
}

let config_for spec = Server.Request.config_of_options (Server.Request.suite_options spec)

let summarize (o : Eco.Engine.outcome) =
  {
    status =
      (match o.Eco.Engine.status with
      | Eco.Engine.Solved -> "solved"
      | Eco.Engine.Infeasible -> "infeasible"
      | Eco.Engine.Failed _ -> "failed");
    verified =
      (match o.Eco.Engine.verified with Some true -> "yes" | Some false -> "no" | None -> "-");
    cost = o.Eco.Engine.cost;
    time = o.Eco.Engine.time;
  }

let run_unit (spec : Gen.Suite.unit_spec) =
  Printf.eprintf "  %s: discovering...\n%!" spec.Gen.Suite.u_name;
  let before = Telemetry.local_snapshot () in
  let blind, planted = Gen.Suite.instantiate_blind spec in
  (* A benchmark run affords a longer search than the library default,
     and the slack absorbs CPU contention when units run concurrently. *)
  let dconfig = { Diff.Discover.default_config with Diff.Discover.deadline = 600.0 } in
  let d = Eco.Engine.discover_targets ~config:dconfig blind in
  let config = config_for spec in
  let oracle = summarize (Eco.Engine.solve ~config (Gen.Suite.instantiate spec)) in
  let with_discovered =
    summarize
      (Eco.Engine.solve ~config (Eco.Instance.with_targets blind d.Diff.Discover.targets))
  in
  let counters = Telemetry.diff before (Telemetry.local_snapshot ()) in
  let weights = blind.Eco.Instance.weights in
  {
    unit_name = spec.Gen.Suite.u_name;
    planted;
    discovered = d.Diff.Discover.targets;
    planted_cost = Netlist.Weights.total weights planted;
    discovered_cost = d.Diff.Discover.cost;
    recovered = List.sort compare planted = List.sort compare d.Diff.Discover.targets;
    minimum = d.Diff.Discover.minimum;
    anchored = List.length d.Diff.Discover.anchored;
    mismatched = List.length d.Diff.Discover.mismatched;
    candidates = d.Diff.Discover.candidates;
    iterations = d.Diff.Discover.iterations;
    checks = d.Diff.Discover.checks;
    discovery_time = d.Diff.Discover.time;
    oracle;
    with_discovered;
    counters;
  }

let failed_row (spec : Gen.Suite.unit_spec) exn =
  Printf.eprintf "  %s: FAILED: %s\n%!" spec.Gen.Suite.u_name (Printexc.to_string exn);
  let nothing = { status = "failed"; verified = "-"; cost = 0; time = 0.0 } in
  {
    unit_name = spec.Gen.Suite.u_name;
    planted = [];
    discovered = [];
    planted_cost = 0;
    discovered_cost = 0;
    recovered = false;
    minimum = false;
    anchored = 0;
    mismatched = 0;
    candidates = 0;
    iterations = 0;
    checks = 0;
    discovery_time = 0.0;
    oracle = nothing;
    with_discovered = { nothing with status = "discovery_failed" };
    counters = [];
  }

(* Patch cost within 25% of the oracle run (both solved).  An oracle cost
   of zero (structural path with no support signals) accepts only zero. *)
let cost_within_25 r =
  r.oracle.status = "solved"
  && r.with_discovered.status = "solved"
  && float_of_int r.with_discovered.cost <= (1.25 *. float_of_int r.oracle.cost) +. 0.0001

let status_parity r =
  r.with_discovered.status = r.oracle.status && r.with_discovered.verified = r.oracle.verified

let print_rows rows =
  Printf.printf "%-8s %5s %5s %6s %6s %5s %6s | %-9s %6s | %-9s %6s | %5s %5s %8s\n" "unit"
    "#tgt" "#fnd" "w(tgt)" "w(fnd)" "recov" "min" "oracle" "cost" "discover" "cost" "parit"
    "d25%" "disc(s)";
  List.iter
    (fun r ->
      Printf.printf "%-8s %5d %5d %6d %6d %5b %6b | %-9s %6d | %-9s %6d | %5b %5b %8.2f\n"
        r.unit_name (List.length r.planted) (List.length r.discovered) r.planted_cost
        r.discovered_cost r.recovered r.minimum r.oracle.status r.oracle.cost
        r.with_discovered.status r.with_discovered.cost (status_parity r) (cost_within_25 r)
        r.discovery_time)
    rows

let fraction f rows =
  let n = List.length rows in
  if n = 0 then 1.0 else float_of_int (List.length (List.filter f rows)) /. float_of_int n

let write_json path rows =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  let str_list l =
    String.concat ","
      (List.map (fun s -> Printf.sprintf "\"%s\"" (Telemetry.Json.escape s)) l)
  in
  let solve_json s =
    Printf.sprintf "{\"status\":\"%s\",\"verified\":\"%s\",\"cost\":%d,\"time\":%.6f}"
      (Telemetry.Json.escape s.status)
      (Telemetry.Json.escape s.verified)
      s.cost s.time
  in
  out "{\"bench\":\"discovery\",\"rows\":[";
  List.iteri
    (fun i r ->
      if i > 0 then out ",";
      out "\n{\"unit\":\"%s\",\"planted\":[%s],\"discovered\":[%s],"
        (Telemetry.Json.escape r.unit_name)
        (str_list r.planted) (str_list r.discovered);
      out "\"planted_cost\":%d,\"discovered_cost\":%d,\"recovered\":%b,\"minimum\":%b,"
        r.planted_cost r.discovered_cost r.recovered r.minimum;
      out "\"anchored\":%d,\"mismatched\":%d,\"candidates\":%d,\"iterations\":%d,\"checks\":%d,"
        r.anchored r.mismatched r.candidates r.iterations r.checks;
      out "\"discovery_time\":%.6f,\"oracle\":%s,\"with_discovered\":%s," r.discovery_time
        (solve_json r.oracle)
        (solve_json r.with_discovered);
      out "\"status_parity\":%b,\"cost_within_25\":%b," (status_parity r) (cost_within_25 r);
      out "\"counters\":{%s}}"
        (String.concat ","
           (List.map
              (fun (n, v) -> Printf.sprintf "\"%s\":%d" (Telemetry.Json.escape n) v)
              r.counters)))
    rows;
  out "\n],\"summary\":{\"recovery_rate\":%.4f,\"status_parity_rate\":%.4f,\"cost_within_25_rate\":%.4f}}\n"
    (fraction (fun r -> r.recovered) rows)
    (fraction status_parity rows)
    (fraction cost_within_25 rows);
  close_out oc;
  Printf.printf "discovery JSON written to %s\n" path

let run ?(units = Gen.Suite.all) ?(json = "BENCH_discovery.json") ?(jobs = 1) ?(gate = false) () =
  Printf.printf "\n=== Discovery: found vs planted targets on blind units ===\n";
  let rows =
    List.map2
      (fun spec -> function Ok row -> row | Error e -> failed_row spec e)
      units
      (Pool.map ~jobs run_unit units)
  in
  print_rows rows;
  write_json json rows;
  let recovery = fraction (fun r -> r.recovered) rows in
  let parity = fraction status_parity rows in
  let within = fraction cost_within_25 rows in
  Printf.printf "recovery %.0f%%, status parity %.0f%%, cost within 25%% on %.0f%%\n"
    (100. *. recovery) (100. *. parity) (100. *. within);
  let failures = ref 0 in
  if gate then begin
    if parity < 1.0 then begin
      incr failures;
      Printf.eprintf "discovery gate: status/verified parity %.0f%% (need 100%%)\n%!"
        (100. *. parity)
    end;
    if within < 0.8 then begin
      incr failures;
      Printf.eprintf "discovery gate: cost within 25%% on %.0f%% (need >= 80%%)\n%!"
        (100. *. within)
    end
  end;
  !failures
