(* eco-patch: command-line front end.

   eco-patch solve --impl impl.v --spec spec.v --target w1 --target w2 \
     [--weights w.txt] [--method min_assume|baseline|exact] [--out patched.v]

   eco-patch gen --unit unit7 --dir out/
       writes impl.v, spec.v, weights.txt, targets.txt of a suite unit

   eco-patch suite
       lists the built-in benchmark units

   eco-patch serve --socket eco.sock -j 4
       runs the long-lived ECO service (see PROTOCOL.md)

   eco-patch client --socket eco.sock --unit unit7
       sends one request to a running server

   Exit codes: 0 success, 1 operational failure (no patch, failed
   certification, failed units, server-side error), 2 usage or input
   validation error.  Every error is one line on stderr — never an
   uncaught exception. *)

open Cmdliner

(* [Usage] exits 2 (the invocation or its inputs are invalid); [Fail]
   exits 1 (the run was valid but did not succeed). *)
exception Usage of string

exception Fail of string

let usage fmt = Printf.ksprintf (fun s -> raise (Usage s)) fmt

let fail fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

let protect f =
  try f () with
  | Usage msg ->
    Printf.eprintf "eco-patch: error: %s\n%!" msg;
    2
  | Fail msg ->
    Printf.eprintf "eco-patch: %s\n%!" msg;
    1
  | Failure msg | Sys_error msg ->
    Printf.eprintf "eco-patch: error: %s\n%!" msg;
    2
  | Unix.Unix_error (e, fn, arg) ->
    Printf.eprintf "eco-patch: error: %s%s: %s\n%!" fn
      (if arg = "" then "" else " " ^ arg)
      (Unix.error_message e);
    1
  | e ->
    Printf.eprintf "eco-patch: internal error: %s\n%!" (Printexc.to_string e);
    1

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let method_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Server.Request.method_of_string s) in
  let print ppf m = Format.pp_print_string ppf (Server.Request.method_name m) in
  Arg.conv (parse, print)

(* The CLI funnels its instance arguments through the same validation
   layer the server uses ([Server.Request.resolve]), so a bad netlist or
   unknown unit gets the same one-line diagnostic on both paths. *)
let source_of_args ?(require_targets = true) ~unit_name ~impl_file ~spec_file ~targets ~weights
    () =
  match (unit_name, impl_file, spec_file) with
  | Some u, None, None -> Server.Request.Unit_name u
  | None, Some impl_file, Some spec_file ->
    if targets = [] && require_targets then
      usage "--target required with --impl/--spec (or pass --discover)";
    Server.Request.Inline
      {
        name = Filename.remove_extension (Filename.basename impl_file);
        impl = read_file impl_file;
        spec = read_file spec_file;
        targets;
        weights = Option.map read_file weights;
      }
  | _ -> usage "pass either --unit or both --impl and --spec"

let resolve source =
  match Server.Request.resolve source with Ok inst -> inst | Error msg -> usage "%s" msg

(* {2 solve} *)

let solve_cmd =
  let impl_file =
    Arg.(value & opt (some file) None & info [ "impl" ] ~docv:"FILE" ~doc:"Implementation netlist (structural Verilog).")
  in
  let spec_file =
    Arg.(value & opt (some file) None & info [ "spec" ] ~docv:"FILE" ~doc:"Specification netlist (structural Verilog).")
  in
  let targets =
    Arg.(value & opt_all string [] & info [ "target"; "t" ] ~docv:"SIGNAL" ~doc:"Target signal (repeatable).")
  in
  let unit_name =
    Arg.(value & opt (some string) None & info [ "unit"; "u" ] ~docv:"UNIT" ~doc:"Solve a built-in benchmark unit (unit1 .. unit20) instead of $(b,--impl)/$(b,--spec) files.")
  in
  let weights =
    Arg.(value & opt (some file) None & info [ "weights" ] ~docv:"FILE" ~doc:"Signal weight file (\"name weight\" lines; default weight 1).")
  in
  let method_ =
    Arg.(value & opt method_conv Eco.Engine.Min_assume & info [ "method"; "m" ] ~docv:"METHOD" ~doc:"Support computation: baseline, min_assume (default) or exact.")
  in
  let structural =
    Arg.(value & flag & info [ "structural" ] ~doc:"Skip the SAT pipeline; compute a structural patch directly (skips the feasibility check and trims the verification budget).  Suite units flagged structural take this path under $(b,--unit) and in $(b,batch) without the flag.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the patched implementation netlist here.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print telemetry after solving: per-phase wall-clock timers and the SAT/ECO counter table.")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc:"Stream structured trace events (JSON Lines) to $(docv) while solving.")
  in
  let certify =
    Arg.(value & flag & info [ "certify" ] ~doc:"Independently certify every final SAT/UNSAT verdict: models are evaluated against the original clause sets and UNSAT answers re-derived with their resolution proofs replayed by a standalone checker.  Exits non-zero if any check fails.")
  in
  let discover =
    Arg.(value & flag & info [ "discover" ] ~doc:"Discover the target signals first by SAT-based diffing of the implementation against the specification ($(b,--target) becomes optional; any given targets are ignored), then solve for the discovered set.  The discovered targets are advisory: the solve re-establishes feasibility and the patch is verified as usual.")
  in
  let run impl_file spec_file targets unit_name weights method_ structural out stats trace certify
      discover =
    protect @@ fun () ->
    let instance =
      resolve
        (source_of_args ~require_targets:(not discover) ~unit_name ~impl_file ~spec_file ~targets
           ~weights ())
    in
    let instance =
      if not discover then instance
      else begin
        let d = Eco.Engine.discover_targets (Eco.Instance.with_targets instance []) in
        Format.printf "discovery: %d mismatched / %d output(s); %d target(s), cost %d%s (%d candidates, %d iterations, %d checks, %.2fs)@."
          (List.length d.Diff.Discover.mismatched)
          (List.length d.Diff.Discover.mismatched + List.length d.Diff.Discover.anchored)
          (List.length d.Diff.Discover.targets)
          d.Diff.Discover.cost
          (if d.Diff.Discover.minimum then " (minimum)" else "")
          d.Diff.Discover.candidates d.Diff.Discover.iterations d.Diff.Discover.checks
          d.Diff.Discover.time;
        List.iter (fun t -> Format.printf "  target %s@." t) d.Diff.Discover.targets;
        Eco.Instance.with_targets instance d.Diff.Discover.targets
      end
    in
    if discover && instance.Eco.Instance.targets = [] then begin
      Format.printf "netlists already equivalent; nothing to patch@.";
      0
    end
    else begin
    (* A suite unit starts from its Table 1 row's options, so it
       reproduces the committed row; --structural can only add to them. *)
    let base =
      match unit_name with
      | Some u -> Server.Request.suite_options ~method_ (Gen.Suite.find u)
      | None -> { Server.Request.default_options with Server.Request.method_ }
    in
    let options =
      { base with certify; structural = base.Server.Request.structural || structural }
    in
    let config = Server.Request.config_of_options options in
    (match trace with Some path -> Telemetry.sink_to_file path | None -> ());
    let outcome = Eco.Engine.solve ~config instance in
    Format.printf "%a@." Eco.Engine.pp_outcome outcome;
    List.iter (fun p -> Format.printf "  %a@." Eco.Patch.pp p) outcome.Eco.Engine.patches;
    (match (outcome.Eco.Engine.status, out) with
    | Eco.Engine.Solved, Some path ->
      let patched = Eco.Verify.patched_netlist instance outcome.Eco.Engine.patches in
      Netlist.Verilog.write_file path ~name:"patched" patched;
      Format.printf "patched netlist written to %s@." path
    | _ -> ());
    if trace <> None then begin
      (* Close with a summary line so a trace is self-contained. *)
      Telemetry.event "summary"
        ~fields:(List.map (fun (n, v) -> (n, Telemetry.Value.Int v)) (Telemetry.snapshot ()));
      Telemetry.close_sink ()
    end;
    if stats then Format.printf "%a@." Telemetry.pp_summary ();
    let cert_failed = if certify then Cert.summary () else 0 in
    if cert_failed > 0 then fail "%d certification check(s) failed" cert_failed;
      (match outcome.Eco.Engine.status with Eco.Engine.Solved -> () | _ -> fail "no patch");
      0
    end
  in
  let term =
    Term.(
      const run $ impl_file $ spec_file $ targets $ unit_name $ weights $ method_ $ structural
      $ out $ stats $ trace $ certify $ discover)
  in
  Cmd.v (Cmd.info "solve" ~doc:"Compute ECO patch functions for the given targets.") term

(* {2 gen} *)

let gen_cmd =
  let unit_name =
    Arg.(required & opt (some string) None & info [ "unit"; "u" ] ~docv:"UNIT" ~doc:"Benchmark unit name (unit1 .. unit20).")
  in
  let dir = Arg.(value & opt string "." & info [ "dir"; "d" ] ~docv:"DIR" ~doc:"Output directory.") in
  let no_targets =
    Arg.(value & flag & info [ "no-targets" ] ~doc:"Withhold the planted target list: write impl.v, spec.v and weights.txt but no targets.txt, producing a blind instance for $(b,solve --discover) exercises.")
  in
  let run unit_name dir no_targets =
    protect @@ fun () ->
    match Gen.Suite.find unit_name with
    | exception Not_found -> usage "unknown unit %S" unit_name
    | spec ->
      let inst =
        if no_targets then fst (Gen.Suite.instantiate_blind spec)
        else Gen.Suite.instantiate spec
      in
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      let p name = Filename.concat dir name in
      Netlist.Verilog.write_file (p "impl.v") ~name:"impl" inst.Eco.Instance.impl;
      Netlist.Verilog.write_file (p "spec.v") ~name:"spec" inst.Eco.Instance.spec;
      Netlist.Weights.write_file (p "weights.txt") inst.Eco.Instance.weights;
      if not no_targets then begin
        let oc = open_out (p "targets.txt") in
        List.iter (fun t -> output_string oc (t ^ "\n")) inst.Eco.Instance.targets;
        close_out oc
      end;
      Format.printf "%s: %a@.files written under %s@." unit_name Eco.Instance.pp inst dir;
      0
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Materialize a built-in benchmark unit as Verilog + weight files.")
    Term.(const run $ unit_name $ dir $ no_targets)

(* {2 batch} *)

let batch_cmd =
  let units =
    Arg.(value & pos_all string [] & info [] ~docv:"UNIT" ~doc:"Benchmark units to solve (unit1 .. unit20); all of them when none is given.")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains; each unit solves on one domain, units run concurrently.  1 (the default) runs sequentially in-process.")
  in
  let method_ =
    Arg.(value & opt method_conv Eco.Engine.Min_assume & info [ "method"; "m" ] ~docv:"METHOD" ~doc:"Support computation: baseline, min_assume (default) or exact.")
  in
  let no_verify =
    Arg.(value & flag & info [ "no-verify" ] ~doc:"Skip the verification ladder.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print merged telemetry (counter totals and per-domain-merged phase timers) after the batch.")
  in
  let certify =
    Arg.(value & flag & info [ "certify" ] ~doc:"Independently certify every final SAT/UNSAT verdict of every unit; the batch fails if any check fails.")
  in
  let run units jobs method_ no_verify stats certify =
    protect @@ fun () ->
    if jobs < 1 then usage "-j expects a positive worker count";
    let specs =
      match units with
      | [] -> Gen.Suite.all
      | names ->
        List.map
          (fun u ->
            match Gen.Suite.find u with
            | exception Not_found -> usage "unknown unit %S" u
            | spec -> spec)
          names
    in
    let config_for spec =
      Server.Request.config_of_options
        { (Server.Request.suite_options ~method_ spec) with certify; verify = not no_verify }
    in
    let solve_unit spec =
      let inst = Gen.Suite.instantiate spec in
      Eco.Engine.solve ~config:(config_for spec) inst
    in
    let outcomes = Pool.map ~jobs solve_unit specs in
    Format.printf "%-8s %-12s %7s %7s %8s %s@." "unit" "status" "cost" "gates" "time(s)"
      "verified";
    let failures = ref 0 in
    List.iter2
      (fun (spec : Gen.Suite.unit_spec) result ->
        match result with
        | Ok (o : Eco.Engine.outcome) ->
          let status =
            match o.Eco.Engine.status with
            | Eco.Engine.Solved -> "solved"
            | Eco.Engine.Infeasible -> "infeasible"
            | Eco.Engine.Failed _ ->
              incr failures;
              "failed"
          in
          (* A solved unit whose patched netlist failed verification is a
             failure, not a quiet "NO" in the table. *)
          if o.Eco.Engine.verified = Some false then incr failures;
          Format.printf "%-8s %-12s %7d %7d %8.2f %s@." spec.Gen.Suite.u_name status
            o.Eco.Engine.cost o.Eco.Engine.gates o.Eco.Engine.time
            (match o.Eco.Engine.verified with
            | Some true -> "yes"
            | Some false -> "NO"
            | None -> "-")
        | Error e ->
          (* Per-job exception isolation: a crashing unit is one Failed
             row, not the end of the batch. *)
          incr failures;
          Format.printf "%-8s %-12s %7s %7s %8s %s@." spec.Gen.Suite.u_name
            ("failed: " ^ Printexc.to_string e) "-" "-" "-" "-")
      specs outcomes;
    if stats then Format.printf "%a@." Telemetry.pp_summary ();
    let cert_failed = if certify then Cert.summary () else 0 in
    if cert_failed > 0 then fail "%d certification check(s) failed" cert_failed;
    if !failures > 0 then fail "%d unit(s) failed" !failures;
    0
  in
  Cmd.v
    (Cmd.info "batch" ~doc:"Solve a list of benchmark units, optionally in parallel over worker domains.")
    Term.(const run $ units $ jobs $ method_ $ no_verify $ stats $ certify)

(* {2 suite} *)

let suite_cmd =
  let run () =
    protect @@ fun () ->
    Format.printf "%-8s %-14s %-8s %-5s %-6s %s@." "unit" "family" "targets" "dist" "struct" "gates(impl)";
    List.iter
      (fun (s : Gen.Suite.unit_spec) ->
        let impl = Gen.Suite.base_circuit s in
        let family =
          match s.Gen.Suite.family with
          | Gen.Suite.Adder n -> Printf.sprintf "adder%d" n
          | Gen.Suite.Carry_select n -> Printf.sprintf "csel%d" n
          | Gen.Suite.Multiplier n -> Printf.sprintf "mult%d" n
          | Gen.Suite.Alu n -> Printf.sprintf "alu%d" n
          | Gen.Suite.Comparator n -> Printf.sprintf "cmp%d" n
          | Gen.Suite.Parity n -> Printf.sprintf "parity%d" n
          | Gen.Suite.Mux_tree d -> Printf.sprintf "mux%d" d
          | Gen.Suite.Decoder n -> Printf.sprintf "dec%d" n
          | Gen.Suite.Majority n -> Printf.sprintf "maj%d" n
          | Gen.Suite.Random { gates; _ } -> Printf.sprintf "rand%d" gates
        in
        Format.printf "%-8s %-14s %-8d %-5s %-6b %d@." s.Gen.Suite.u_name family
          s.Gen.Suite.n_targets
          (Netlist.Weights.distribution_name s.Gen.Suite.dist)
          s.Gen.Suite.structural (Netlist.num_gates impl))
      Gen.Suite.all;
    0
  in
  Cmd.v (Cmd.info "suite" ~doc:"List the built-in benchmark units.") Term.(const run $ const ())

(* {2 serve} *)

let socket_arg =
  Arg.(value & opt string "eco.sock" & info [ "socket"; "s" ] ~docv:"ADDR" ~doc:"Server address: $(b,unix:PATH), $(b,tcp:HOST:PORT), or a bare Unix-socket path.")

let parse_address s =
  match Server.Protocol.parse_address s with Ok a -> a | Error e -> usage "%s" e

let serve_cmd =
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains executing solve/batch jobs concurrently.")
  in
  let cache_entries =
    Arg.(value & opt int 256 & info [ "cache-entries" ] ~docv:"N" ~doc:"Outcome-cache entry cap (the cone cache gets 4x).")
  in
  let cache_mb =
    Arg.(value & opt int 64 & info [ "cache-mb" ] ~docv:"MIB" ~doc:"Byte cap per cache in MiB — the idle-memory bound of a long-lived server.")
  in
  let guard_period =
    Arg.(value & opt int 16 & info [ "guard-period" ] ~docv:"N" ~doc:"Re-certify every $(docv)-th outcome-cache hit against a fresh certified solve (0 disables the guard).")
  in
  let max_frame_mb =
    Arg.(value & opt int 8 & info [ "max-frame-mb" ] ~docv:"MIB" ~doc:"Protocol frame cap in MiB; oversized frames are rejected and the connection closed.")
  in
  let run socket jobs cache_entries cache_mb guard_period max_frame_mb =
    protect @@ fun () ->
    if jobs < 1 then usage "-j expects a positive worker count";
    if cache_entries < 1 then usage "--cache-entries expects a positive count";
    if cache_mb < 1 then usage "--cache-mb expects a positive size";
    if guard_period < 0 then usage "--guard-period expects a non-negative count";
    if max_frame_mb < 1 then usage "--max-frame-mb expects a positive size";
    let address = parse_address socket in
    let config =
      {
        Server.jobs;
        cache_entries;
        cache_bytes = cache_mb * 1024 * 1024;
        guard_period;
        max_frame = max_frame_mb * 1024 * 1024;
      }
    in
    let t = Server.create config in
    (* Clients can vanish mid-write; EPIPE must surface as an error
       return, not a signal. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let drain _ = Server.stop t in
    Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
    Format.printf "eco-patch: serving on %s (%d worker%s)@."
      (Server.Protocol.address_string address)
      jobs
      (if jobs = 1 then "" else "s");
    Server.serve t address;
    Format.printf "eco-patch: drained, bye@.";
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the long-lived ECO service: solve/batch jobs over a length-prefixed JSON protocol (PROTOCOL.md) with a cross-request cone cache.")
    Term.(
      const run $ socket_arg $ jobs $ cache_entries $ cache_mb $ guard_period $ max_frame_mb)

(* {2 client} *)

let client_cmd =
  let units =
    Arg.(value & pos_all string [] & info [] ~docv:"UNIT" ~doc:"Two or more positional units form one $(b,batch) request.")
  in
  let unit_name =
    Arg.(value & opt (some string) None & info [ "unit"; "u" ] ~docv:"UNIT" ~doc:"Solve one built-in benchmark unit.")
  in
  let impl_file =
    Arg.(value & opt (some file) None & info [ "impl" ] ~docv:"FILE" ~doc:"Implementation netlist to send inline.")
  in
  let spec_file =
    Arg.(value & opt (some file) None & info [ "spec" ] ~docv:"FILE" ~doc:"Specification netlist to send inline.")
  in
  let targets =
    Arg.(value & opt_all string [] & info [ "target"; "t" ] ~docv:"SIGNAL" ~doc:"Target signal (repeatable, with $(b,--impl)/$(b,--spec)).")
  in
  let weights =
    Arg.(value & opt (some file) None & info [ "weights" ] ~docv:"FILE" ~doc:"Signal weight file to send inline.")
  in
  let method_ =
    Arg.(value & opt method_conv Eco.Engine.Min_assume & info [ "method"; "m" ] ~docv:"METHOD" ~doc:"Support computation: baseline, min_assume (default) or exact.")
  in
  let certify =
    Arg.(value & flag & info [ "certify" ] ~doc:"Ask the server to certify every final SAT/UNSAT verdict of the job.")
  in
  let structural =
    Arg.(value & flag & info [ "structural" ] ~doc:"Ask for the structural path (as $(b,batch) uses for structural units).")
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Ask the server to bypass its outcome cache for this job.")
  in
  let deadline_ms =
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Fail the request with $(b,deadline_expired) if its job cannot start within $(docv) milliseconds.")
  in
  let stats_op =
    Arg.(value & flag & info [ "stats" ] ~doc:"Send a $(b,stats) request instead of a solve.")
  in
  let shutdown_op =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the server to drain in-flight jobs and exit.")
  in
  let discover_op =
    Arg.(value & flag & info [ "discover" ] ~doc:"Send a $(b,discover) request: the server diffs the implementation against the specification and returns the discovered target set ($(b,--target) becomes optional).")
  in
  let run socket units unit_name impl_file spec_file targets weights method_ certify structural
      no_cache deadline_ms stats_op shutdown_op discover_op =
    protect @@ fun () ->
    let address = parse_address socket in
    let options =
      {
        Server.Request.default_options with
        Server.Request.method_;
        certify;
        structural;
        no_cache;
      }
    in
    let request =
      if stats_op then Server.Request.Stats
      else if shutdown_op then Server.Request.Shutdown
      else if discover_op then
        Server.Request.Discover
          {
            Server.Request.source =
              source_of_args ~require_targets:false ~unit_name ~impl_file ~spec_file ~targets
                ~weights ();
            options;
          }
      else
        match units with
        | [] ->
          Server.Request.Solve
            {
              Server.Request.source =
                source_of_args ~unit_name ~impl_file ~spec_file ~targets ~weights ();
              options;
            }
        | us ->
          Server.Request.Batch
            (List.map (fun u -> { Server.Request.source = Server.Request.Unit_name u; options }) us)
    in
    let c = Server.Client.connect address in
    Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () ->
    let resp = Server.Client.request c ?deadline_ms request in
    print_endline (Server.Jsonx.to_string resp);
    if Server.Client.is_ok resp then begin
      let member k j = Option.bind j (Server.Jsonx.member k) in
      let str k row = member k row |> Fun.flip Option.bind Server.Jsonx.to_str in
      (* A row only counts as a success if it solved AND its patch did not
         fail verification ("-" means verification was skipped, which is
         the caller's explicit choice and not a failure). *)
      let solved row = str "status" row = Some "solved" && str "verified" row <> Some "no" in
      match request with
      | Server.Request.Solve _ ->
        let result = member "result" (Some resp) in
        if solved result then 0
        else if str "status" result = Some "solved" then fail "patch failed verification"
        else fail "no patch"
      | Server.Request.Batch _ ->
        let rows =
          member "result" (Some resp) |> member "rows"
          |> Fun.flip Option.bind Server.Jsonx.to_list
          |> Option.value ~default:[]
        in
        (* Error rows have no "row" member, so they fail the [solved]
           test too. *)
        let bad =
          List.length
            (List.filter (fun r -> not (solved (member "row" (Some r)))) rows)
        in
        if bad > 0 then fail "%d job(s) failed" bad;
        0
      | Server.Request.Discover _ | Server.Request.Stats | Server.Request.Shutdown -> 0
    end
    else begin
      match Server.Client.error_of resp with
      | Some (code, msg) ->
        Printf.eprintf "eco-patch: server error %s: %s\n%!" code msg;
        (match code with
        | "bad_request" | "bad_json" | "bad_version" | "unknown_op" | "bad_frame" -> 2
        | _ -> 1)
      | None -> fail "malformed server response"
    end
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request (solve, batch, stats or shutdown) to a running $(b,serve) instance and print the JSON response.")
    Term.(
      const run $ socket_arg $ units $ unit_name $ impl_file $ spec_file $ targets $ weights
      $ method_ $ certify $ structural $ no_cache $ deadline_ms $ stats_op
      $ shutdown_op $ discover_op)

(* {2 main} *)

let () =
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reproduction of \"Efficient computation of ECO patch functions\" (DAC 2018): \
         computes minimum-cost patch functions that rectify an implementation netlist \
         against its specification.";
      `S "COMMON SOLVE OPTIONS";
      `P "$(b,--unit) $(i,UNIT): solve a built-in benchmark unit (unit1 .. unit20) \
          instead of passing $(b,--impl)/$(b,--spec) netlists, with the options of \
          its Table 1 row (units flagged structural take the structural path).";
      `P "$(b,--stats): print telemetry after solving — per-phase wall-clock timers \
          and the SAT/ECO counter table.";
      `P "$(b,--trace) $(i,FILE): stream structured trace events (JSON Lines) to \
          $(i,FILE) while solving; the last event is a counter summary.";
      `P "Every search limit is a fixed count (conflicts per SAT call, prime cubes, \
          hitting-set nodes, sweep queries; see ARCHITECTURE.md), so a run's \
          outcome depends only on the input and these options, never on the clock \
          or machine load.";
      `S "SERVER AND CLIENT";
      `P "$(b,serve) runs a long-lived daemon speaking the length-prefixed JSON \
          protocol documented in PROTOCOL.md over a Unix-domain socket or TCP \
          ($(b,--socket) $(i,unix:PATH)|$(i,tcp:HOST:PORT)).  Jobs are scheduled on \
          $(b,-j) worker domains; solve outcomes and CEC verdicts are cached across \
          requests, keyed by structurally-hashed AIG cone signatures, with a sampled \
          correctness guard re-certifying every $(b,--guard-period)-th cache hit.  \
          Both caches are always on: a request opts out of the outcome cache with \
          $(b,client --no-cache), and a certified request bypasses the CEC verdict \
          cache.";
      `P "$(b,client) sends a single request to a running server and prints the raw \
          JSON response: $(b,--unit)/$(b,--impl)+$(b,--spec) for one solve, two or \
          more positional units for a batch, $(b,--stats) or $(b,--shutdown) for the \
          control operations.";
      `S Manpage.s_exit_status;
      `P "$(b,0): success.";
      `P "$(b,1): operational failure — no patch exists, certification or \
          verification failed, a batch unit failed, or the server answered with a \
          non-validation error ($(b,deadline_expired), $(b,shutting_down), \
          $(b,internal)).";
      `P "$(b,2): usage or validation error — unknown flag or subcommand, \
          unreadable or malformed input, unknown unit, or a server-side validation \
          error ($(b,bad_request), $(b,bad_json), $(b,bad_version), \
          $(b,unknown_op), $(b,bad_frame)).  Always a one-line diagnostic on \
          stderr, never an exception trace.";
      `S Manpage.s_examples;
      `P "Solve a benchmark unit with telemetry:";
      `Pre "  eco-patch solve --unit unit7 --stats";
      `P "Patch a netlist pair and write the result:";
      `Pre "  eco-patch solve --impl impl.v --spec spec.v -t w1 -o patched.v";
      `P "Solve several benchmark units concurrently on four worker domains:";
      `Pre "  eco-patch batch -j 4 unit1 unit2 unit3 unit4";
      `P "Run the ECO service on a Unix socket and solve against it:";
      `Pre "  eco-patch serve --socket /tmp/eco.sock -j 2 &";
      `Pre "  eco-patch client --socket /tmp/eco.sock --unit unit7 --certify";
      `Pre "  eco-patch client --socket /tmp/eco.sock --shutdown";
    ]
  in
  let info =
    Cmd.info "eco-patch" ~version:"1.0.0"
      ~doc:"Efficient computation of ECO patch functions (DAC 2018 reproduction)."
      ~man
  in
  (* A bare `eco-patch` invocation prints the manual and exits 0 instead of
     taking the usage-error path. *)
  let default = Term.(ret (const (`Help (`Auto, None)))) in
  let group =
    Cmd.group ~default info
      [ solve_cmd; gen_cmd; suite_cmd; batch_cmd; serve_cmd; client_cmd ]
  in
  (* All run functions return their exit code and report errors as
     one-line diagnostics; cmdliner's own parse errors map to 2, and of
     its message (the diagnostic, a usage line and a "Try ..." hint) only
     the diagnostic is printed. *)
  let err = Buffer.create 256 in
  let err_fmt = Format.formatter_of_buffer err in
  exit
    (match Cmd.eval_value ~err:err_fmt group with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term | `Exn) ->
      Format.pp_print_flush err_fmt ();
      (match String.split_on_char '\n' (Buffer.contents err) with
      | first :: _ when first <> "" -> prerr_endline first
      | _ -> ());
      2)
