(* The ECO service: JSON codec, frame codec, request validation, the
   synchronous solve path (caching, guard, deadlines, draining, the
   internal-error path), and a live socket end-to-end replay.

   Every documented frame type of PROTOCOL.md is exercised here: solve,
   batch, stats and shutdown on the success side; bad_frame, bad_json,
   bad_version, unknown_op, bad_request, deadline_expired, shutting_down
   and internal on the error side. *)

module J = Server.Jsonx
module P = Server.Protocol
module R = Server.Request

let payload ?id ?deadline_ms req = J.to_string (R.to_json ?id ?deadline_ms req)

let unit_spec ?(options = R.default_options) name =
  { R.source = R.Unit_name name; options }

let parse_response s = J.of_string s

let error_code resp =
  match Server.Client.error_of resp with
  | Some (code, _) -> code
  | None -> Alcotest.fail ("expected an error response, got " ^ J.to_string resp)

let result_of resp =
  match J.member "result" resp with
  | Some r -> r
  | None -> Alcotest.fail ("response without result: " ^ J.to_string resp)

let cv name = Telemetry.counter_value name

(* {2 Jsonx} *)

let test_jsonx_roundtrip () =
  let v =
    J.Obj
      [
        ("s", J.Str "a\"b\\c\nd");
        ("i", J.Int (-42));
        ("f", J.Float 1.5);
        ("b", J.Bool true);
        ("n", J.Null);
        ("l", J.List [ J.Int 1; J.Str "x"; J.Obj [] ]);
      ]
  in
  Alcotest.(check bool) "print/parse round-trip" true (J.of_string (J.to_string v) = v)

let test_jsonx_unicode () =
  (match J.of_string {|"\u0041\u00e9\u20ac\ud83d\ude00"|} with
  | J.Str s -> Alcotest.(check string) "escapes decode to UTF-8" "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "expected a string");
  Alcotest.check_raises "lone high surrogate" (J.Parse_error "lone high surrogate at byte 7")
    (fun () -> ignore (J.of_string {|"\ud800"|}))

let test_jsonx_errors () =
  let bad s = match J.of_string s with
    | exception J.Parse_error _ -> ()
    | v -> Alcotest.fail (Printf.sprintf "%S parsed as %s" s (J.to_string v))
  in
  bad "";
  bad "hello";
  bad "{";
  bad "{\"a\":}";
  bad "[1,]";
  bad "\"\\q\"";
  bad "{} trailing";
  bad "\"raw\x01control\""

(* {2 Framing} *)

let feed_all d s =
  P.feed d (Bytes.of_string s) (String.length s)

let test_frame_roundtrip_chunked () =
  let d = P.decoder () in
  let frames = [ "{}"; String.make 1000 'x'; "{\"op\":\"stats\"}" ] in
  let stream = String.concat "" (List.map P.encode_frame frames) in
  (* Deliver in 7-byte chunks: the decoder must reassemble across both
     header and payload boundaries. *)
  let n = String.length stream in
  let rec drip i = if i < n then begin
      feed_all d (String.sub stream i (min 7 (n - i)));
      drip (i + 7)
    end
  in
  drip 0;
  List.iter
    (fun expect ->
      match P.next_frame d with
      | `Frame got -> Alcotest.(check string) "payload" expect got
      | _ -> Alcotest.fail "expected a frame")
    frames;
  Alcotest.(check bool) "drained" true (P.next_frame d = `Await)

let test_frame_truncated () =
  let d = P.decoder () in
  let enc = P.encode_frame "{\"op\":\"stats\"}" in
  feed_all d (String.sub enc 0 (String.length enc - 3));
  Alcotest.(check bool) "incomplete frame awaits" true (P.next_frame d = `Await)

let test_frame_oversized () =
  let d = P.decoder ~max_frame:64 () in
  feed_all d (P.encode_frame (String.make 65 'y'));
  (match P.next_frame d with
  | `Error _ -> ()
  | _ -> Alcotest.fail "oversized length must be a framing error");
  (* The decoder is permanently dead afterwards. *)
  feed_all d (P.encode_frame "{}");
  match P.next_frame d with
  | `Error _ -> ()
  | _ -> Alcotest.fail "decoder must stay dead"

let test_frame_garbage_length () =
  let d = P.decoder () in
  (* 0xFFFFFFFF length: garbage bytes where a header is expected. *)
  feed_all d "\xff\xff\xff\xffjunk";
  (match P.next_frame d with
  | `Error _ -> ()
  | _ -> Alcotest.fail "garbage length must be a framing error");
  let d0 = P.decoder () in
  feed_all d0 "\x00\x00\x00\x00";
  match P.next_frame d0 with
  | `Error _ -> ()
  | _ -> Alcotest.fail "zero length must be a framing error"

(* {2 Request parsing} *)

let code_of_parse s =
  match R.parse s with
  | Ok _ -> Alcotest.fail ("parsed: " ^ s)
  | Error e -> (P.code_string e.R.code, e.R.err_id)

let test_parse_errors () =
  let check s code id =
    let got_code, got_id = code_of_parse s in
    Alcotest.(check string) ("code of " ^ s) code got_code;
    Alcotest.(check bool) ("id of " ^ s) true (got_id = id)
  in
  check "not json at all" "bad_json" J.Null;
  check "{\"op\":\"solve\"}" "bad_version" J.Null;
  check "{\"v\":99,\"id\":7,\"op\":\"solve\"}" "bad_version" (J.Int 7);
  check "{\"v\":1,\"id\":7}" "unknown_op" (J.Int 7);
  check "{\"v\":1,\"id\":\"a\",\"op\":\"frobnicate\"}" "unknown_op" (J.Str "a");
  check "{\"v\":1,\"id\":7,\"op\":\"solve\"}" "bad_request" (J.Int 7);
  check "{\"v\":1,\"op\":\"solve\",\"unit\":\"no_such_unit\",\"method\":\"sorcery\"}"
    "bad_request" J.Null;
  check "{\"v\":1,\"op\":\"solve\",\"unit\":\"unit5\",\"deadline_ms\":-3}" "bad_request" J.Null;
  (* The patch-resynthesis keys are refused, naming the removal:
     ignoring them would silently serve unimproved patches. *)
  let retired =
    [
      "{\"v\":1,\"id\":7,\"op\":\"solve\",\"unit\":\"unit5\",\"exact_synth\":true}";
      "{\"v\":1,\"op\":\"solve\",\"unit\":\"unit5\",\"rewrite\":true,\"gate_weight\":4}";
      "{\"v\":1,\"op\":\"solve\",\"unit\":\"unit5\",\"resynth\":true}";
    ]
  in
  check (List.nth retired 0) "bad_request" (J.Int 7);
  check (List.nth retired 1) "bad_request" J.Null;
  check (List.nth retired 2) "bad_request" J.Null;
  let mentions ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun s ->
      match R.parse s with
      | Error e ->
        Alcotest.(check bool)
          ("names the removal: " ^ e.R.msg)
          true
          (mentions ~sub:"resynthesis was removed" e.R.msg)
      | Ok _ -> Alcotest.fail ("parsed: " ^ s))
    retired

let test_parse_roundtrip () =
  let spec =
    unit_spec ~options:{ R.default_options with R.certify = true } "unit5"
  in
  let s = payload ~id:(J.Int 9) ~deadline_ms:5000 (R.Solve spec) in
  match R.parse s with
  | Error e -> Alcotest.fail e.R.msg
  | Ok env ->
    Alcotest.(check bool) "id" true (env.R.id = J.Int 9);
    Alcotest.(check (option int)) "deadline" (Some 5000) env.R.deadline_ms;
    (match env.R.request with
    | R.Solve got ->
      Alcotest.(check bool) "source" true (got.R.source = R.Unit_name "unit5");
      Alcotest.(check bool) "options survive" true (got.R.options.R.certify)
    | _ -> Alcotest.fail "op");
    (* Stats and shutdown round-trip too. *)
    (match R.parse (payload R.Stats) with
    | Ok { R.request = R.Stats; _ } -> ()
    | _ -> Alcotest.fail "stats");
    match R.parse (payload R.Shutdown) with
    | Ok { R.request = R.Shutdown; _ } -> ()
    | _ -> Alcotest.fail "shutdown"

(* {2 The synchronous solve path} *)

let sync_config = { Server.default_config with Server.jobs = 1; guard_period = 0 }

let test_solve_and_cache () =
  let t = Server.create sync_config in
  let s = payload ~id:(J.Int 1) (R.Solve (unit_spec "unit5")) in
  let r1 = parse_response (Server.handle_payload t s) in
  Alcotest.(check bool) "first solve ok" true (Server.Client.is_ok r1);
  Alcotest.(check bool) "first solve not cached" true
    (J.member "cached" r1 = Some (J.Bool false));
  let r2 = parse_response (Server.handle_payload t s) in
  Alcotest.(check bool) "replay cached" true (J.member "cached" r2 = Some (J.Bool true));
  Alcotest.(check string) "replayed result identical" (J.to_string (result_of r1))
    (J.to_string (result_of r2));
  (* no_cache opts a request out of the cache. *)
  let s3 =
    payload ~id:(J.Int 2)
      (R.Solve (unit_spec ~options:{ R.default_options with R.no_cache = true } "unit5"))
  in
  let r3 = parse_response (Server.handle_payload t s3) in
  Alcotest.(check bool) "no_cache solve ok" true (Server.Client.is_ok r3);
  Alcotest.(check bool) "no_cache never reports cached" true (J.member "cached" r3 = Some (J.Bool false));
  Alcotest.(check string) "no_cache recomputes the same result"
    (J.to_string (result_of r1)) (J.to_string (result_of r3))

let test_bad_request_error () =
  let t = Server.create sync_config in
  let r = parse_response (Server.handle_payload t "{\"v\":1,\"op\":\"solve\",\"unit\":\"nope\"}") in
  Alcotest.(check string) "unknown unit" "bad_request" (error_code r);
  (* The same server keeps answering after a bad request. *)
  let ok = parse_response (Server.handle_payload t (payload (R.Solve (unit_spec "unit5")))) in
  Alcotest.(check bool) "still serving" true (Server.Client.is_ok ok)

(* The conflict budgets are engine constants: a request asking for its
   own would get a different search, so it is refused, naming the field. *)
let test_budget_refused () =
  let t = Server.create sync_config in
  let s = {|{"v":1,"op":"solve","unit":"unit5","budget":1000}|} in
  match Server.Client.error_of (parse_response (Server.handle_payload t s)) with
  | Some (code, msg) ->
    Alcotest.(check string) "budget refused" "bad_request" code;
    Alcotest.(check bool) ("names the field: " ^ msg) true
      (String.starts_with ~prefix:"field \"budget\"" msg)
  | None -> Alcotest.fail "expected an error response"

let test_deadline_expired () =
  let t = Server.create sync_config in
  let deadline = Deadline.after 0.001 in
  Unix.sleepf 0.01;
  let env = { R.id = J.Int 5; deadline_ms = Some 1; request = R.Solve (unit_spec "unit5") } in
  let before = cv "server.deadline_expired" in
  let r = parse_response (Server.process t ~deadline env) in
  Alcotest.(check string) "expired before start" "deadline_expired" (error_code r);
  Alcotest.(check bool) "id echoed" true (J.member "id" r = Some (J.Int 5));
  Alcotest.(check int) "counter booked" (before + 1) (cv "server.deadline_expired")

let test_internal_error_isolated () =
  let t = Server.create sync_config in
  Server.For_tests.fail_next_job t;
  let s = payload (R.Solve (unit_spec "unit7")) in
  let r = parse_response (Server.handle_payload t s) in
  Alcotest.(check string) "injected failure becomes internal" "internal" (error_code r);
  let r2 = parse_response (Server.handle_payload t s) in
  Alcotest.(check bool) "worker survived" true (Server.Client.is_ok r2)

let test_shutting_down () =
  let t = Server.create sync_config in
  let r = parse_response (Server.handle_payload t (payload R.Shutdown)) in
  Alcotest.(check bool) "shutdown acknowledged" true
    (J.member "stopping" (result_of r) = Some (J.Bool true));
  Alcotest.(check bool) "draining" true (Server.draining t);
  let r2 = parse_response (Server.handle_payload t (payload (R.Solve (unit_spec "unit5")))) in
  Alcotest.(check string) "solve refused while draining" "shutting_down" (error_code r2);
  (* Stats stays available during the drain. *)
  let r3 = parse_response (Server.handle_payload t (payload R.Stats)) in
  Alcotest.(check bool) "stats still answered" true (Server.Client.is_ok r3)

let test_stats_shape () =
  let t = Server.create sync_config in
  ignore (Server.handle_payload t (payload (R.Solve (unit_spec "unit5"))));
  let r = parse_response (Server.handle_payload t (payload R.Stats)) in
  let result = result_of r in
  Alcotest.(check bool) "not draining" true (J.member "draining" result = Some (J.Bool false));
  (match Option.bind (J.member "cache" result) (J.member "entries") with
  | Some (J.Int n) -> Alcotest.(check int) "one cached outcome" 1 n
  | _ -> Alcotest.fail "cache.entries missing");
  (match Option.bind (J.member "cone_cache" result) (J.member "entries") with
  | Some (J.Int _) -> ()
  | _ -> Alcotest.fail "cone_cache.entries missing");
  match J.member "counters" result with
  | Some (J.Obj kvs) ->
    Alcotest.(check bool) "server.solves present" true
      (List.exists (fun (k, v) -> k = "server.solves" && (match v with J.Int n -> n >= 1 | _ -> false)) kvs)
  | _ -> Alcotest.fail "counters missing"

let test_guard_catches_poisoned_entry () =
  let t = Server.create { sync_config with Server.guard_period = 1 } in
  let spec = unit_spec "unit5" in
  let s = payload (R.Solve spec) in
  let r1 = parse_response (Server.handle_payload t s) in
  let genuine = J.to_string (result_of r1) in
  (* Poison the cached entry behind the server's back. *)
  let inst =
    match R.resolve spec.R.source with Ok i -> i | Error e -> Alcotest.fail e
  in
  let key = Server.Fingerprint.instance inst spec.R.options in
  let bogus = "{\"name\":\"unit5\",\"status\":\"bogus\"}" in
  Cache.add (Server.outcome_cache t) key ~bytes:(String.length bogus) bogus;
  let failed_before = cv "cache.guard_failed" in
  (* guard_period = 1: the very next hit is sampled, re-solved with
     certification, and the mismatch detected. *)
  let r2 = parse_response (Server.handle_payload t s) in
  Alcotest.(check int) "guard failure booked" (failed_before + 1) (cv "cache.guard_failed");
  Alcotest.(check string) "fresh result served, not the poisoned one" genuine
    (J.to_string (result_of r2));
  Alcotest.(check bool) "guarded response is not marked cached" true
    (J.member "cached" r2 = Some (J.Bool false));
  (* The overwrite healed the entry: the next hit compares clean. *)
  let r3 = parse_response (Server.handle_payload t s) in
  Alcotest.(check int) "no further guard failures" (failed_before + 1) (cv "cache.guard_failed");
  Alcotest.(check string) "healed entry replays the genuine result" genuine
    (J.to_string (result_of r3))

(* Older clients may still send the retired "reuse_sessions" and
   "inprocess" options.  They are ignored, so such a request shares the
   fingerprint, and so the cache entry, of the same request without
   them. *)
let test_retired_options_share_cache () =
  let t = Server.create sync_config in
  let plain = payload (R.Solve (unit_spec "unit5")) in
  let retired = {|{"v":1,"op":"solve","unit":"unit5","reuse_sessions":true,"inprocess":true}|} in
  let key s =
    match R.parse s with
    | Ok { R.request = R.Solve spec; _ } -> (
      match R.resolve spec.R.source with
      | Ok inst -> Server.Fingerprint.instance inst spec.R.options
      | Error e -> Alcotest.fail e)
    | _ -> Alcotest.fail ("not a solve request: " ^ s)
  in
  Alcotest.(check bool) "same fingerprint" true (key plain = key retired);
  let r1 = parse_response (Server.handle_payload t plain) in
  Alcotest.(check bool) "first solve not cached" true (J.member "cached" r1 = Some (J.Bool false));
  let r2 = parse_response (Server.handle_payload t retired) in
  Alcotest.(check bool) "retired options hit the cache" true
    (J.member "cached" r2 = Some (J.Bool true));
  Alcotest.(check string) "same result" (J.to_string (result_of r1)) (J.to_string (result_of r2))

(* An uncertified solve asks its CEC queries through [Cec]'s memo, which
   the server backs with its cone cache.  A second method on the same
   instance re-asks queries the first one answered (the same window and
   miter), so the cache's hit path is reached by a real solve, not only by
   direct calls to the memo. *)
let test_cone_cache_hits_across_methods () =
  let t = Server.create sync_config in
  let inst = Gen.Suite.instantiate (Gen.Suite.find "unit2") in
  let source =
    R.Inline
      {
        name = "unit2-inline";
        impl = Netlist.Verilog.to_string inst.Eco.Instance.impl;
        spec = Netlist.Verilog.to_string inst.Eco.Instance.spec;
        targets = inst.Eco.Instance.targets;
        weights = Some (Netlist.Weights.to_string inst.Eco.Instance.weights);
      }
  in
  let solve method_ =
    let options = { R.default_options with R.method_; certify = false } in
    let r = parse_response (Server.handle_payload t (payload (R.Solve { R.source; options }))) in
    Alcotest.(check bool) (R.method_name method_ ^ " solve ok") true (Server.Client.is_ok r);
    Alcotest.(check bool) (R.method_name method_ ^ " not an outcome-cache hit") true
      (J.member "cached" r = Some (J.Bool false))
  in
  solve Eco.Engine.Baseline;
  let hits = cv "cache.cone.hits" in
  solve Eco.Engine.Min_assume;
  Alcotest.(check bool)
    (Printf.sprintf "cone hits rise (%d -> %d)" hits (cv "cache.cone.hits"))
    true
    (cv "cache.cone.hits" > hits)

(* {2 Live socket end-to-end} *)

let connect_retry address =
  let rec go n =
    try Server.Client.connect address
    with Unix.Unix_error _ when n > 0 ->
      Unix.sleepf 0.02;
      go (n - 1)
  in
  go 250

let test_e2e_socket () =
  let path = Filename.temp_file "eco-test-server" ".sock" in
  Sys.remove path;
  let address = P.Unix_socket path in
  let t = Server.create { Server.default_config with Server.jobs = 2 } in
  let server = Domain.spawn (fun () -> Server.serve t address) in
  let joined = ref false in
  let finally () =
    if not !joined then begin
      Server.stop t;
      Domain.join server
    end
  in
  Fun.protect ~finally @@ fun () ->
  let c = connect_retry address in
  let batch = R.Batch [ unit_spec "unit5"; unit_spec "unit7" ] in
  let rows resp =
    match Option.bind (J.member "result" resp) (J.member "rows") with
    | Some (J.List rows) -> rows
    | _ -> Alcotest.fail "batch response without rows"
  in
  let hits_before = cv "cache.hits" in
  (* Cold pass. *)
  let r1 = Server.Client.request c batch in
  Alcotest.(check bool) "cold batch ok" true (Server.Client.is_ok r1);
  let rows1 = rows r1 in
  Alcotest.(check int) "two rows" 2 (List.length rows1);
  List.iter
    (fun row ->
      Alcotest.(check bool) "cold rows not cached" true (J.member "cached" row = Some (J.Bool false)))
    rows1;
  (* Warm replay: every row served from the cache, byte-identical. *)
  let r2 = Server.Client.request c batch in
  let rows2 = rows r2 in
  List.iter2
    (fun row1 row2 ->
      Alcotest.(check bool) "warm rows cached" true (J.member "cached" row2 = Some (J.Bool true));
      Alcotest.(check string) "warm row identical"
        (J.to_string (J.member "row" row1 |> Option.get))
        (J.to_string (J.member "row" row2 |> Option.get)))
    rows1 rows2;
  Alcotest.(check bool) "cache hits booked" true (cv "cache.hits" >= hits_before + 2);
  (* Solo solve on a second connection hits the same cache. *)
  let c2 = connect_retry address in
  let solo = Server.Client.request c2 (R.Solve (unit_spec "unit5")) in
  Alcotest.(check bool) "cross-connection hit" true
    (J.member "cached" solo = Some (J.Bool true));
  Server.Client.close c2;
  (* A malformed payload is answered in-line and the connection stays up. *)
  let bad = parse_response (Server.Client.request_raw c "this is not json") in
  Alcotest.(check string) "bad_json answered" "bad_json" (error_code bad);
  let still = Server.Client.request c R.Stats in
  Alcotest.(check bool) "connection survived bad_json" true (Server.Client.is_ok still);
  (match Option.bind (J.member "result" still) (J.member "counters") with
  | Some (J.Obj kvs) ->
    (match List.assoc_opt "cache.hits" kvs with
    | Some (J.Int n) -> Alcotest.(check bool) "stats reports the hits" true (n >= 3)
    | _ -> Alcotest.fail "cache.hits missing from stats")
  | _ -> Alcotest.fail "counters missing from stats");
  Server.Client.close c;
  (* A framing violation gets one bad_frame answer, then the connection
     is closed by the server. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let junk = "\xff\xff\xff\xffgarbage" in
  ignore (Unix.write_substring fd junk 0 (String.length junk));
  (match P.read_frame fd with
  | Some reply ->
    Alcotest.(check string) "bad_frame answered" "bad_frame" (error_code (parse_response reply))
  | None -> Alcotest.fail "expected a bad_frame response");
  (match P.read_frame fd with
  | None -> ()
  | Some _ -> Alcotest.fail "server must close after a framing violation");
  Unix.close fd;
  (* Graceful shutdown over the wire: response flushed, loop exits,
     socket file removed. *)
  let c3 = connect_retry address in
  let bye = Server.Client.request c3 R.Shutdown in
  Alcotest.(check bool) "shutdown acknowledged" true
    (J.member "stopping" (result_of bye) = Some (J.Bool true));
  Server.Client.close c3;
  Domain.join server;
  joined := true;
  Alcotest.(check bool) "socket file unlinked" false (Sys.file_exists path)

let () =
  Alcotest.run "server"
    [
      ( "jsonx",
        [
          Alcotest.test_case "round-trip" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "unicode escapes" `Quick test_jsonx_unicode;
          Alcotest.test_case "parse errors" `Quick test_jsonx_errors;
        ] );
      ( "framing",
        [
          Alcotest.test_case "chunked round-trip" `Quick test_frame_roundtrip_chunked;
          Alcotest.test_case "truncated frame awaits" `Quick test_frame_truncated;
          Alcotest.test_case "oversized frame kills decoder" `Quick test_frame_oversized;
          Alcotest.test_case "garbage and zero lengths" `Quick test_frame_garbage_length;
        ] );
      ( "requests",
        [
          Alcotest.test_case "error taxonomy" `Quick test_parse_errors;
          Alcotest.test_case "wire round-trip" `Quick test_parse_roundtrip;
        ] );
      ( "process",
        [
          Alcotest.test_case "solve, cache, no_cache" `Quick test_solve_and_cache;
          Alcotest.test_case "bad_request keeps serving" `Quick test_bad_request_error;
          Alcotest.test_case "retired budget refused" `Quick test_budget_refused;
          Alcotest.test_case "deadline_expired" `Quick test_deadline_expired;
          Alcotest.test_case "internal error isolated" `Quick test_internal_error_isolated;
          Alcotest.test_case "shutdown drains" `Quick test_shutting_down;
          Alcotest.test_case "stats shape" `Quick test_stats_shape;
          Alcotest.test_case "guard catches poisoned entry" `Quick test_guard_catches_poisoned_entry;
          Alcotest.test_case "cone cache hit by a second method" `Quick
            test_cone_cache_hits_across_methods;
          Alcotest.test_case "retired options share the cache" `Quick
            test_retired_options_share_cache;
        ] );
      ("e2e", [ Alcotest.test_case "socket round-trip" `Quick test_e2e_socket ]);
    ]
