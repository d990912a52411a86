module Jsonx = Jsonx
module Protocol = Protocol
module Request = Request
module Fingerprint = Fingerprint
module Client = Client

type config = {
  jobs : int;
  cache_entries : int;
  cache_bytes : int;
  guard_period : int;
  max_frame : int;
}

let default_config =
  {
    jobs = 1;
    cache_entries = 256;
    cache_bytes = 64 * 1024 * 1024;
    guard_period = 16;
    max_frame = Protocol.max_frame_default;
  }

let c_connections = Telemetry.Counter.make "server.connections"
let c_requests = Telemetry.Counter.make "server.requests"
let c_responses = Telemetry.Counter.make "server.responses"
let c_errors = Telemetry.Counter.make "server.errors"
let c_deadline = Telemetry.Counter.make "server.deadline_expired"
let c_solves = Telemetry.Counter.make "server.solves"

type t = {
  config : config;
  outcome : string Cache.t;
  cone : Cec.verdict Cache.t;
  draining_flag : bool Atomic.t;
  fail_next : bool Atomic.t;
  wake_fd : Unix.file_descr option Atomic.t;  (* serve's self-pipe write end *)
}

let verdict_bytes = function
  | Cec.Counterexample a -> 16 + Array.length a
  | Cec.Equivalent | Cec.Undecided -> 16

(* The cone cache fronts for [Cec]'s memo hook: decisive verdicts keyed
   by cone fingerprints.  The cache's own canon comparison makes a
   signature collision a miss, so the hook never has to re-check. *)
let install_memo cone =
  let find key =
    match Cache.find cone key with
    | Cache.Hit v | Cache.Hit_guard v -> Some v
    | Cache.Miss -> None
  in
  let put key v = Cache.add cone key ~bytes:(verdict_bytes v) v in
  Cec.set_memo
    (Some
       {
         Cec.lookup = (fun m l -> find (Fingerprint.aig_lit m l));
         store = (fun m l v -> put (Fingerprint.aig_lit m l) v);
       })

let create config =
  let outcome =
    Cache.create ~max_entries:config.cache_entries ~max_bytes:config.cache_bytes
      ~guard_period:config.guard_period ~name:"cache" ()
  in
  (* Verdicts are tiny next to outcomes; give them more slots under the
     same byte cap. *)
  let cone =
    Cache.create ~max_entries:(4 * config.cache_entries) ~max_bytes:config.cache_bytes
      ~name:"cache.cone" ()
  in
  install_memo cone;
  {
    config;
    outcome;
    cone;
    draining_flag = Atomic.make false;
    fail_next = Atomic.make false;
    wake_fd = Atomic.make None;
  }

let draining t = Atomic.get t.draining_flag

let outcome_cache t = t.outcome

(* {2 Job execution} *)

(* The request deadline only governs admission ([run_job]): a started
   job's outcome depends on the instance and options alone. *)
let solve_rendered ~name ~options ~force_certify inst =
  let options = if force_certify then { options with Request.certify = true } else options in
  let config = Request.config_of_options options in
  Telemetry.Counter.incr c_solves;
  let outcome = Eco.Engine.solve ~config inst in
  Jsonx.to_string (Request.render_outcome ~name outcome)

(* One solve job: admission deadline, validation, cache lookup with the
   sampled guard, fresh solve on a miss.  Returns the rendered ["result"]
   string with its cached flag, or a protocol error. *)
let run_job t ~deadline (spec : Request.solve_spec) =
  if Deadline.expired deadline then begin
    Telemetry.Counter.incr c_deadline;
    Error (Protocol.Deadline_expired, "deadline elapsed before the job started")
  end
  else begin
    let options = spec.Request.options in
    match Request.resolve spec.Request.source with
    | Error msg -> Error (Protocol.Bad_request, msg)
    | Ok inst -> (
      try
        if Atomic.compare_and_set t.fail_next true false then
          failwith "injected failure (For_tests.fail_next_job)";
        let name = inst.Eco.Instance.name in
        if options.Request.no_cache then Ok (false, solve_rendered ~name ~options ~force_certify:false inst)
        else begin
          let key = Fingerprint.instance inst options in
          match Cache.find t.outcome key with
          | Cache.Hit body -> Ok (true, body)
          | Cache.Hit_guard body ->
            (* Sampled correctness guard: recompute independently with
               certification on (which also bypasses the cone memo) and
               compare byte-for-byte. *)
            let fresh = solve_rendered ~name ~options ~force_certify:true inst in
            if String.equal fresh body then Ok (true, body)
            else begin
              Cache.guard_failed t.outcome;
              Cache.add t.outcome key ~bytes:(String.length fresh) fresh;
              Ok (false, fresh)
            end
          | Cache.Miss ->
            let body = solve_rendered ~name ~options ~force_certify:false inst in
            Cache.add t.outcome key ~bytes:(String.length body) body;
            Ok (false, body)
        end
      with e -> Error (Protocol.Internal, Printexc.to_string e))
  end

(* {2 Request execution} *)

let cache_stats_json c =
  let s = Cache.stats c in
  Jsonx.Obj [ ("entries", Jsonx.Int s.Cache.entries); ("bytes", Jsonx.Int s.Cache.bytes) ]

let stats_json t =
  Jsonx.Obj
    ([
       ("draining", Jsonx.Bool (draining t));
       ("jobs", Jsonx.Int t.config.jobs);
       ("cache", cache_stats_json t.outcome);
       ("cone_cache", cache_stats_json t.cone);
       ( "counters",
         Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Int v)) (Telemetry.snapshot ())) );
     ])

let error_response ~id code msg =
  Telemetry.Counter.incr c_errors;
  Telemetry.Counter.incr c_responses;
  Protocol.error_response ~id code msg

let ok_raw ~id ?cached result =
  Telemetry.Counter.incr c_responses;
  Protocol.ok_response_raw ~id ?cached result

let ok ~id result =
  Telemetry.Counter.incr c_responses;
  Protocol.ok_response ~id result

let escape = Telemetry.Json.escape

(* Executes an already-admitted request (no draining check: a job that
   was accepted before shutdown must drain, not bounce). *)
let execute t ~deadline (env : Request.envelope) =
  Telemetry.Counter.incr c_requests;
  let id = env.Request.id in
  match env.Request.request with
  | Request.Stats -> ok ~id (stats_json t)
  | Request.Shutdown ->
    Atomic.set t.draining_flag true;
    (match Atomic.get t.wake_fd with
    | Some fd -> ( try ignore (Unix.write fd (Bytes.make 1 '!') 0 1) with Unix.Unix_error _ -> ())
    | None -> ());
    ok ~id (Jsonx.Obj [ ("stopping", Jsonx.Bool true) ])
  | Request.Solve spec -> (
    match run_job t ~deadline spec with
    | Ok (cached, body) -> ok_raw ~id ~cached body
    | Error (code, msg) -> error_response ~id code msg)
  | Request.Batch specs ->
    let row spec =
      match run_job t ~deadline spec with
      | Ok (cached, body) -> Printf.sprintf "{\"cached\":%b,\"row\":%s}" cached body
      | Error (code, msg) ->
        Telemetry.Counter.incr c_errors;
        Printf.sprintf "{\"error\":{\"code\":\"%s\",\"msg\":\"%s\"}}" (Protocol.code_string code)
          (escape msg)
    in
    let rows = List.map row specs in
    ok_raw ~id (Printf.sprintf "{\"rows\":[%s]}" (String.concat "," rows))
  | Request.Discover spec ->
    (* Discovery is advisory (the target set is re-validated by whatever
       solve consumes it) and depends on nothing but the netlists, so it
       runs outside the outcome cache. *)
    if Deadline.expired deadline then
      error_response ~id Protocol.Deadline_expired "deadline elapsed before the job started"
    else (
      match Request.resolve spec.Request.source with
      | Error msg -> error_response ~id Protocol.Bad_request msg
      | Ok inst -> (
        try
          let d = Eco.Engine.discover_targets inst in
          ok ~id (Request.render_discovery ~name:inst.Eco.Instance.name d)
        with e -> error_response ~id Protocol.Internal (Printexc.to_string e)))

let process t ~deadline (env : Request.envelope) =
  match env.Request.request with
  | (Request.Solve _ | Request.Batch _ | Request.Discover _) when draining t ->
    Telemetry.Counter.incr c_requests;
    error_response ~id:env.Request.id Protocol.Shutting_down
      "server is draining; no new jobs are accepted"
  | _ -> execute t ~deadline env

let deadline_of_envelope (env : Request.envelope) =
  match env.Request.deadline_ms with
  | Some ms -> Deadline.after (float_of_int ms /. 1000.)
  | None -> Deadline.never

let handle_payload t payload =
  match Request.parse payload with
  | Error { Request.err_id; code; msg } -> error_response ~id:err_id code msg
  | Ok env -> process t ~deadline:(deadline_of_envelope env) env

(* {2 The event loop} *)

type conn = {
  fd : Unix.file_descr;
  cid : int;
  dec : Protocol.decoder;
  mutable outq : string list;  (* encoded frames awaiting write, reversed *)
  mutable out_cur : string;  (* frame currently being written *)
  mutable out_off : int;
  mutable close_after_flush : bool;
  mutable dead_input : bool;  (* framing broken: stop reading *)
}

let conn_has_output c = c.out_cur <> "" || c.outq <> []

(* Pops the next frame to write into [out_cur]. *)
let conn_refill c =
  if c.out_cur = "" then begin
    match List.rev c.outq with
    | [] -> ()
    | next :: rest ->
      c.out_cur <- next;
      c.out_off <- 0;
      c.outq <- List.rev rest
  end

let conn_enqueue c payload = c.outq <- Protocol.encode_frame payload :: c.outq

let stop t =
  Atomic.set t.draining_flag true;
  match Atomic.get t.wake_fd with
  | Some fd -> ( try ignore (Unix.write fd (Bytes.make 1 '!') 0 1) with Unix.Unix_error _ -> ())
  | None -> ()

let bind_listen address =
  match address with
  | Protocol.Unix_socket path ->
    (match Unix.stat path with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | _ -> ()
    | exception Unix.Unix_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | Protocol.Tcp (host, port) ->
    let addr =
      match
        Unix.getaddrinfo host (string_of_int port)
          [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_PASSIVE ]
      with
      | { Unix.ai_addr; _ } :: _ -> ai_addr
      | [] -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
    in
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd addr;
    Unix.listen fd 64;
    fd

let serve t address =
  let listen_fd = bind_listen address in
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  Atomic.set t.wake_fd (Some pipe_w);
  let pool = Pool.create (max 1 t.config.jobs) in
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
  let next_cid = ref 0 in
  let in_flight = Atomic.make 0 in
  (* Workers push finished (connection, response) pairs here and poke the
     self-pipe; the loop drains it back on its own thread. *)
  let completions : (int * string) Queue.t = Queue.create () in
  let cm = Mutex.create () in
  let wake () = try ignore (Unix.write pipe_w (Bytes.make 1 '!') 0 1) with Unix.Unix_error _ -> () in
  let push_completion cid payload =
    Mutex.protect cm (fun () -> Queue.push (cid, payload) completions);
    Atomic.decr in_flight;
    wake ()
  in
  let close_conn c =
    Hashtbl.remove conns c.cid;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let handle_frame c payload =
    match Request.parse payload with
    | Error { Request.err_id; code; msg } -> conn_enqueue c (error_response ~id:err_id code msg)
    | Ok env -> (
      match env.Request.request with
      | Request.Stats | Request.Shutdown ->
        (* Cheap and state-touching: answered inline on the loop. *)
        conn_enqueue c (execute t ~deadline:Deadline.never env)
      | Request.Solve _ | Request.Batch _ | Request.Discover _ ->
        if draining t then
          conn_enqueue c
            (error_response ~id:env.Request.id Protocol.Shutting_down
               "server is draining; no new jobs are accepted")
        else begin
          (* The deadline starts at admission, so time spent queued
             behind other jobs counts against it. *)
          let deadline = deadline_of_envelope env in
          let cid = c.cid in
          Atomic.incr in_flight;
          Pool.submit pool (fun () ->
              let resp =
                try execute t ~deadline env
                with e ->
                  error_response ~id:env.Request.id Protocol.Internal (Printexc.to_string e)
              in
              push_completion cid resp)
        end)
  in
  let buf = Bytes.create 65536 in
  let read_conn c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> close_conn c
    | 0 -> if conn_has_output c then c.close_after_flush <- true else close_conn c
    | n ->
      Protocol.feed c.dec buf n;
      let continue = ref true in
      while !continue do
        match Protocol.next_frame c.dec with
        | `Frame payload -> handle_frame c payload
        | `Await -> continue := false
        | `Error msg ->
          (* Framing is broken: answer once, flush, close. *)
          continue := false;
          if not c.dead_input then begin
            c.dead_input <- true;
            c.close_after_flush <- true;
            conn_enqueue c (error_response ~id:Jsonx.Null Protocol.Bad_frame msg)
          end
      done
  in
  let write_conn c =
    conn_refill c;
    if c.out_cur <> "" then begin
      let len = String.length c.out_cur - c.out_off in
      match Unix.write c.fd (Bytes.unsafe_of_string c.out_cur) c.out_off len with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> close_conn c
      | n ->
        c.out_off <- c.out_off + n;
        if c.out_off >= String.length c.out_cur then begin
          c.out_cur <- "";
          c.out_off <- 0;
          conn_refill c
        end
    end;
    if (not (conn_has_output c)) && c.close_after_flush then close_conn c
  in
  let accept_conn () =
    match Unix.accept listen_fd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | fd, _ ->
      Unix.set_nonblock fd;
      incr next_cid;
      Telemetry.Counter.incr c_connections;
      let c =
        {
          fd;
          cid = !next_cid;
          dec = Protocol.decoder ~max_frame:t.config.max_frame ();
          outq = [];
          out_cur = "";
          out_off = 0;
          close_after_flush = false;
          dead_input = false;
        }
      in
      Hashtbl.add conns c.cid c
  in
  let drain_completions () =
    let pending =
      Mutex.protect cm (fun () ->
          let xs = List.of_seq (Queue.to_seq completions) in
          Queue.clear completions;
          xs)
    in
    List.iter
      (fun (cid, payload) ->
        match Hashtbl.find_opt conns cid with
        | Some c -> conn_enqueue c payload
        | None -> () (* client went away mid-solve; drop the response *))
      pending
  in
  let running = ref true in
  while !running do
    let rds =
      pipe_r
      :: (if draining t then [] else [ listen_fd ])
      @ Hashtbl.fold (fun _ c acc -> if c.dead_input then acc else c.fd :: acc) conns []
    in
    let wrs = Hashtbl.fold (fun _ c acc -> if conn_has_output c then c.fd :: acc else acc) conns [] in
    match Unix.select rds wrs [] (-1.) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
      if List.mem pipe_r readable then begin
        (try
           while Unix.read pipe_r buf 0 (Bytes.length buf) > 0 do
             ()
           done
         with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
        drain_completions ()
      end;
      if List.mem listen_fd readable then accept_conn ();
      let conn_of fd =
        Hashtbl.fold (fun _ c acc -> if c.fd = fd then Some c else acc) conns None
      in
      List.iter
        (fun fd -> if fd <> pipe_r && fd <> listen_fd then Option.iter read_conn (conn_of fd))
        readable;
      List.iter (fun fd -> Option.iter write_conn (conn_of fd)) writable;
      if draining t && Atomic.get in_flight = 0 then begin
        drain_completions ();
        (* One flush attempt per connection; anything still unflushed
           keeps the loop alive until select reports writability. *)
        Hashtbl.iter (fun _ c -> if conn_has_output c then write_conn c) (Hashtbl.copy conns);
        let unflushed = Hashtbl.fold (fun _ c acc -> acc || conn_has_output c) conns false in
        if not unflushed then running := false
      end
  done;
  Pool.shutdown pool;
  Atomic.set t.wake_fd None;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.close pipe_r with Unix.Unix_error _ -> ());
  (try Unix.close pipe_w with Unix.Unix_error _ -> ());
  match address with
  | Protocol.Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Protocol.Tcp _ -> ()

module For_tests = struct
  let fail_next_job t = Atomic.set t.fail_next true
end
