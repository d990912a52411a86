(* Regression tests for eco_cli's error paths: bad flags, bad inputs and
   unreadable files must produce a one-line stderr diagnostic and exit
   code 2 (usage) or 1 (operational failure) — never an uncaught
   exception with a backtrace.  The bench driver's argv is held to the
   same usage rule. *)

let exe = Filename.concat ".." "bin/eco_cli.exe"

let bench_exe = Filename.concat (Sys.getcwd ()) (Filename.concat ".." "bench/main.exe")

let run ?(exe = exe) ?cwd args =
  let out_file = Filename.temp_file "eco-cli-out" ".txt" in
  let err_file = Filename.temp_file "eco-cli-err" ".txt" in
  let cmd =
    Printf.sprintf "%s%s %s >%s 2>%s"
      (match cwd with Some d -> "cd " ^ Filename.quote d ^ " && " | None -> "")
      (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out_file) (Filename.quote err_file)
  in
  let code = Sys.command cmd in
  let slurp f =
    let ic = open_in_bin f in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Sys.remove f;
    s
  in
  (code, slurp out_file, slurp err_file)

let check_no_backtrace what err =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) (what ^ ": no uncaught exception") false
    (contains err "Raised at" || contains err "Fatal error: exception"
   || contains err "Backtrace")

let lines s = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)

let check_usage_error what args =
  let code, _out, err = run args in
  Alcotest.(check int) (what ^ ": exit 2") 2 code;
  Alcotest.(check bool) (what ^ ": stderr non-empty") true (String.trim err <> "");
  check_no_backtrace what err

let test_unknown_flag () = check_usage_error "unknown flag" [ "solve"; "--no-such-flag" ]

let test_unknown_subcommand () = check_usage_error "unknown subcommand" [ "frobnicate" ]

let test_unknown_unit () =
  let code, _out, err = run [ "solve"; "--unit"; "no_such_unit" ] in
  Alcotest.(check int) "unknown unit: exit 2" 2 code;
  Alcotest.(check int) "unknown unit: one-line stderr" 1 (List.length (lines err));
  check_no_backtrace "unknown unit" err

let test_bad_method () =
  check_usage_error "bad method name" [ "solve"; "--unit"; "unit5"; "--method"; "sorcery" ]

let test_missing_input_file () =
  check_usage_error "nonexistent netlist"
    [ "solve"; "--impl"; "/nonexistent/impl.v"; "--spec"; "/nonexistent/spec.v"; "-t"; "x" ]

let test_unreadable_input_file () =
  (* A directory passes cmdliner's existence check but fails to read;
     that failure must surface as a one-line exit-2 diagnostic. *)
  let dir = Filename.temp_file "eco-cli-dir" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> Unix.rmdir dir) @@ fun () ->
  let code, _out, err = run [ "solve"; "--impl"; dir; "--spec"; dir; "-t"; "x" ] in
  Alcotest.(check int) "unreadable input: exit 2" 2 code;
  Alcotest.(check bool) "unreadable input: stderr non-empty" true (String.trim err <> "");
  check_no_backtrace "unreadable input" err

let test_missing_targets () =
  (* Inline netlists without --target is a usage error caught by the
     shared validation layer. *)
  let v = Filename.temp_file "eco-cli" ".v" in
  Fun.protect ~finally:(fun () -> Sys.remove v) @@ fun () ->
  let oc = open_out v in
  output_string oc "module m(input a, output y); assign y = a; endmodule\n";
  close_out oc;
  let code, _out, err = run [ "solve"; "--impl"; v; "--spec"; v ] in
  Alcotest.(check int) "missing --target: exit 2" 2 code;
  check_no_backtrace "missing --target" err

let test_client_unreachable_server () =
  (* An unreachable server is an operational failure (1), not usage (2),
     and still a clean one-liner. *)
  let code, _out, err = run [ "client"; "--socket"; "/nonexistent/dir/eco.sock"; "--stats" ] in
  Alcotest.(check int) "unreachable server: exit 1" 1 code;
  Alcotest.(check bool) "unreachable server: stderr non-empty" true (String.trim err <> "");
  check_no_backtrace "unreachable server" err

let test_solve_success_exit_zero () =
  let code, out, err = run [ "solve"; "--unit"; "unit5" ] in
  Alcotest.(check int) "unit5 solves: exit 0" 0 code;
  Alcotest.(check bool) "solve reports a result" true (String.trim out <> "");
  check_no_backtrace "successful solve" err

(* A suite unit solves with its Table 1 row's options: unit10 is flagged
   structural, and its committed baseline row reads cost 185, gates 57. *)
let test_solve_unit_reproduces_row () =
  let code, out, err = run [ "solve"; "--unit"; "unit10"; "--method"; "baseline" ] in
  Alcotest.(check int) "unit10 solves: exit 0" 0 code;
  check_no_backtrace "unit10 solve" err;
  match lines out with
  | first :: _ ->
    let starts prefix =
      String.length first >= String.length prefix
      && String.sub first 0 (String.length prefix) = prefix
    in
    Alcotest.(check bool)
      ("structural row: " ^ first)
      true
      (starts "solved cost=185 gates=57 depth=11 ")
  | [] -> Alcotest.fail "no outcome line"

(* {2 Client exit codes against a live server} *)

let with_live_server f =
  let dir = Filename.temp_file "eco-cli-srv" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "eco.sock" in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe [| exe; "serve"; "--socket"; path; "-j"; "1" |] Unix.stdin null null
  in
  Unix.close null;
  Fun.protect ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* Wait for the server to come up. *)
  let rec wait tries =
    if tries = 0 then Alcotest.fail "server did not come up";
    match Server.Client.connect (Server.Protocol.Unix_socket path) with
    | c -> Server.Client.close c
    | exception Unix.Unix_error _ ->
      Unix.sleepf 0.1;
      wait (tries - 1)
  in
  wait 100;
  f path

let test_client_batch_exit_codes () =
  with_live_server @@ fun path ->
  (* A healthy batch: every row solved and verified, exit 0. *)
  let code, out, err = run [ "client"; "--socket"; path; "unit1"; "unit12" ] in
  Alcotest.(check int) "healthy batch: exit 0" 0 code;
  Alcotest.(check bool) "healthy batch: rows printed" true (String.trim out <> "");
  check_no_backtrace "healthy batch" err;
  (* A batch containing an unknown unit: the response is ok (per-row
     errors), but the client must exit non-zero. *)
  let code, _out, err = run [ "client"; "--socket"; path; "unit1"; "no_such_unit" ] in
  Alcotest.(check int) "error row fails the batch: exit 1" 1 code;
  Alcotest.(check bool) "error row: diagnostic printed" true (String.trim err <> "");
  check_no_backtrace "error row" err;
  (* The discover op round-trips. *)
  let code, out, err = run [ "client"; "--socket"; path; "--discover"; "--unit"; "unit1" ] in
  Alcotest.(check int) "discover: exit 0" 0 code;
  Alcotest.(check bool) "discover: targets reported" true (String.trim out <> "");
  check_no_backtrace "discover" err;
  let code, _out, _err = run [ "client"; "--socket"; path; "--shutdown" ] in
  Alcotest.(check int) "shutdown: exit 0" 0 code

(* {2 Client exit codes against canned responses} *)

(* A one-shot protocol server speaking from a script, for responses a
   healthy server would not produce (here: a patch that failed its
   verification, which must fail the client even though the row status
   says "solved"). *)
let with_canned_server result_raw f =
  let dir = Filename.temp_file "eco-cli-can" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "eco.sock" in
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 1;
  match Unix.fork () with
  | 0 ->
    (try
       let fd, _ = Unix.accept srv in
       (match Server.Protocol.read_frame fd with
       | Some _ ->
         Server.Protocol.write_frame fd
           (Server.Protocol.ok_response_raw ~id:Server.Jsonx.Null ~cached:false result_raw)
       | None -> ());
       Unix.close fd
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close srv;
    Fun.protect ~finally:(fun () ->
        (* The child exits on its own after one request; the kill only
           matters when a failing check left it waiting in accept. *)
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        (try Sys.remove path with Sys_error _ -> ());
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
    @@ fun () -> f path

let solved_unverified_row =
  {|{"name":"unit1","status":"solved","cost":5,"gates":1,"verified":"no","structural":false,"sat_calls":3,"patches":[]}|}

let test_client_solve_verified_no () =
  with_canned_server solved_unverified_row @@ fun path ->
  let code, _out, err = run [ "client"; "--socket"; path; "--unit"; "unit1" ] in
  Alcotest.(check int) "solved but unverified: exit 1" 1 code;
  Alcotest.(check bool) "mentions verification" true
    (List.exists (fun l -> l = "eco-patch: patch failed verification") (lines err));
  check_no_backtrace "solved but unverified" err

let test_client_batch_verified_no () =
  with_canned_server
    (Printf.sprintf {|{"rows":[{"cached":false,"row":%s}]}|} solved_unverified_row)
  @@ fun path ->
  let code, _out, err = run [ "client"; "--socket"; path; "unit1"; "unit2" ] in
  Alcotest.(check int) "unverified row fails the batch: exit 1" 1 code;
  check_no_backtrace "unverified row" err

(* {2 Bench driver argv} *)

(* Each refused invocation runs in a fresh directory: a run that went
   ahead anyway leaves its BENCH_*.json behind there. *)
let check_bench_usage what args =
  let dir = Filename.temp_file "eco-bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  let code, _out, err = run ~exe:bench_exe ~cwd:dir args in
  Alcotest.(check int) (what ^ ": exit 2") 2 code;
  Alcotest.(check int) (what ^ ": one-line stderr") 1 (List.length (lines err));
  Alcotest.(check (list string)) (what ^ ": nothing written") [] (Array.to_list (Sys.readdir dir));
  check_no_backtrace what err

(* Flags retired with the settings they set are refused before anything
   runs, with one diagnostic line naming the flag (cmdliner's usage hint
   may follow it). *)
let test_retired_flags () =
  List.iter
    (fun args ->
      let what = String.concat " " args in
      let code, _out, err = run args in
      Alcotest.(check int) (what ^ ": exit 2") 2 code;
      let flag = List.find (String.starts_with ~prefix:"--") args in
      Alcotest.(check (list string)) (what ^ ": one stderr line")
        [ Printf.sprintf "eco-patch: unknown option '%s'." flag ]
        (lines err);
      check_no_backtrace what err)
    [
      [ "solve"; "--budget"; "10"; "--unit"; "unit5" ];
      [ "client"; "--budget"; "10"; "--unit"; "unit5" ];
      [ "serve"; "--no-cache" ];
      [ "serve"; "--no-cone-cache" ];
      [ "serve"; "--certify-all" ];
    ]

let test_bench_usage () =
  List.iter
    (fun (what, args) -> check_bench_usage ("bench " ^ what) ("table1-smoke" :: args))
    [
      ("unknown flag", [ "--units"; "unit5"; "--no-verfy" ]);
      ("dangling --json", [ "--units"; "unit5"; "--json" ]);
      ("--resynth", [ "--units"; "unit5"; "--resynth" ]);
      ("second experiment", [ "unit5"; "--units"; "unit5" ]);
    ]

let () =
  Alcotest.run "cli_errors"
    [
      ( "usage",
        [
          Alcotest.test_case "unknown flag" `Quick test_unknown_flag;
          Alcotest.test_case "unknown subcommand" `Quick test_unknown_subcommand;
          Alcotest.test_case "unknown unit" `Quick test_unknown_unit;
          Alcotest.test_case "bad method name" `Quick test_bad_method;
          Alcotest.test_case "nonexistent netlist" `Quick test_missing_input_file;
          Alcotest.test_case "unreadable netlist" `Quick test_unreadable_input_file;
          Alcotest.test_case "missing --target" `Quick test_missing_targets;
          Alcotest.test_case "bench driver argv" `Quick test_bench_usage;
          Alcotest.test_case "retired flags" `Quick test_retired_flags;
        ] );
      ( "operational",
        [
          Alcotest.test_case "unreachable server" `Quick test_client_unreachable_server;
          Alcotest.test_case "success still exits 0" `Quick test_solve_success_exit_zero;
          Alcotest.test_case "suite unit reproduces its row" `Quick test_solve_unit_reproduces_row;
        ] );
      ( "client exit codes",
        [
          Alcotest.test_case "batch against live serve" `Slow test_client_batch_exit_codes;
          Alcotest.test_case "solve verified:no" `Quick test_client_solve_verified_no;
          Alcotest.test_case "batch verified:no" `Quick test_client_batch_verified_no;
        ] );
    ]
