(* Stress client for the ECO service: replays a unit list against a live
   server over N concurrent connections and reports throughput and
   latency percentiles per pass.

   With no --socket an in-process server is spawned on a temporary Unix
   socket (its worker count = the client connection count), so the bench
   is self-contained; pointing --socket at an external `eco_cli serve`
   measures a real deployment instead.

   Two passes (the default) measure the cache ablation directly: pass 1
   is cold, pass 2 replays the identical requests and should be served
   from the outcome cache.  --no-cache asks the server to bypass the
   outcome cache on every job, which turns pass 2 into a second cold
   pass — the comparison EXPERIMENTS.md tabulates. *)

let now = Unix.gettimeofday

(* [xs] sorted ascending; p in [0,1]. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.
  else xs.(min (n - 1) (int_of_float (p *. float_of_int n)))

type pass_stats = {
  pass : int;
  requests : int;
  errors : int;
  cached : int;
  seconds : float;
  throughput : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

let connect_retry address =
  let rec go n =
    try Server.Client.connect address
    with Unix.Unix_error _ when n > 0 ->
      Unix.sleepf 0.05;
      go (n - 1)
  in
  go 100

let spec_request ~certify ~no_cache (spec : Gen.Suite.unit_spec) =
  {
    Server.Request.source = Server.Request.Unit_name spec.Gen.Suite.u_name;
    options = { (Server.Request.suite_options spec) with certify; no_cache };
  }

let json_escape = Telemetry.Json.escape

let run ~units ~socket ~jobs ~repeat ~no_cache ~certify ~json () =
  let requests = Array.of_list (List.map (spec_request ~certify ~no_cache) units) in
  let n_req = Array.length requests in
  if n_req = 0 then failwith "stress: empty unit list";
  let address, server =
    match socket with
    | Some s -> (
      match Server.Protocol.parse_address s with
      | Ok a -> (a, None)
      | Error e ->
        Printf.eprintf "%s\n" e;
        exit 2)
    | None ->
      let path = Filename.temp_file "eco-stress" ".sock" in
      Sys.remove path;
      let t = Server.create { Server.default_config with Server.jobs = max 1 jobs } in
      let d = Domain.spawn (fun () -> Server.serve t (Server.Protocol.Unix_socket path)) in
      (Server.Protocol.Unix_socket path, Some d)
  in
  let errors = Atomic.make 0 in
  let run_pass pass =
    let idx = Atomic.make 0 in
    let lats = Array.make n_req 0. in
    let cached = Atomic.make 0 in
    let t0 = now () in
    let worker () =
      let c = connect_retry address in
      Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () ->
      let rec go () =
        let i = Atomic.fetch_and_add idx 1 in
        if i < n_req then begin
          let t = now () in
          (match Server.Client.request c (Server.Request.Solve requests.(i)) with
          | resp ->
            if Server.Client.is_ok resp then begin
              if Server.Jsonx.member "cached" resp = Some (Server.Jsonx.Bool true) then
                Atomic.incr cached
            end
            else begin
              Atomic.incr errors;
              match Server.Client.error_of resp with
              | Some (code, msg) -> Printf.eprintf "stress: %s: %s\n%!" code msg
              | None -> Printf.eprintf "stress: malformed response\n%!"
            end
          | exception e ->
            Atomic.incr errors;
            Printf.eprintf "stress: %s\n%!" (Printexc.to_string e));
          lats.(i) <- now () -. t;
          go ()
        end
      in
      go ()
    in
    let workers = max 1 (min jobs n_req) in
    let doms = List.init workers (fun _ -> Domain.spawn worker) in
    List.iter Domain.join doms;
    let seconds = now () -. t0 in
    Array.sort compare lats;
    let ms p = 1000. *. percentile lats p in
    {
      pass;
      requests = n_req;
      errors = Atomic.get errors;
      cached = Atomic.get cached;
      seconds;
      throughput = float_of_int n_req /. seconds;
      p50_ms = ms 0.50;
      p95_ms = ms 0.95;
      p99_ms = ms 0.99;
    }
  in
  Printf.printf "%-5s %9s %8s %7s %11s %9s %9s %9s\n" "pass" "requests" "cached" "errors"
    "thrpt(r/s)" "p50(ms)" "p95(ms)" "p99(ms)";
  let passes =
    List.init repeat (fun i ->
        let s = run_pass (i + 1) in
        Printf.printf "%-5d %9d %8d %7d %11.2f %9.1f %9.1f %9.1f\n%!" s.pass s.requests s.cached
          s.errors s.throughput s.p50_ms s.p95_ms s.p99_ms;
        s)
  in
  (* Pull the server's counters (cache traffic, certification verdicts)
     into the artifact, then shut an in-process server down. *)
  let counters =
    let c = connect_retry address in
    Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () ->
    let resp = Server.Client.request c Server.Request.Stats in
    let open Server.Jsonx in
    match Option.bind (member "result" resp) (member "counters") with
    | Some (Obj kvs) ->
      List.filter_map (fun (k, v) -> match v with Int n -> Some (k, n) | _ -> None) kvs
    | _ -> []
  in
  (match server with
  | Some d ->
    let c = connect_retry address in
    ignore (Server.Client.request c Server.Request.Shutdown);
    Server.Client.close c;
    Domain.join d
  | None -> ());
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"passes\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"pass\":%d,\"requests\":%d,\"cached\":%d,\"errors\":%d,\"seconds\":%.3f,\"throughput\":%.3f,\"p50_ms\":%.2f,\"p95_ms\":%.2f,\"p99_ms\":%.2f}"
           s.pass s.requests s.cached s.errors s.seconds s.throughput s.p50_ms s.p95_ms s.p99_ms))
    passes;
  Buffer.add_string buf "],\"counters\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":%d" (json_escape k) v))
    counters;
  Buffer.add_string buf "}}\n";
  let oc = open_out json in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "stress telemetry written to %s\n%!" json;
  let get n = match List.assoc_opt n counters with Some v -> v | None -> 0 in
  if certify then
    Printf.printf "certification: %d checks, %d failed\n%!" (get "cert.checked") (get "cert.failed");
  Printf.printf "cache: %d hits, %d misses, %d evictions; cone: %d hits, %d misses\n%!"
    (get "cache.hits") (get "cache.misses") (get "cache.evictions") (get "cache.cone.hits")
    (get "cache.cone.misses");
  Atomic.get errors + if certify && get "cert.failed" > 0 then 1 else 0
