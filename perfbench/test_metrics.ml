(* The benchmark's accounting: tail percentiles, phase self times and the
   attribution of sat.solve effort to phases. *)

let feq = Alcotest.float 1e-9

let test_percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p50 nearest rank" 50. (Metrics.percentile xs 0.5);
  Alcotest.check feq "p97" 97. (Metrics.percentile xs 0.97);
  Alcotest.check feq "p100 is the max" 100. (Metrics.percentile xs 1.0);
  Alcotest.check feq "median of an even count" 2.5 (Metrics.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check feq "median of an odd count" 3. (Metrics.median [ 5.; 3.; 1. ])

let test_tail () =
  let tail = Alcotest.(option (float 0.)) in
  Alcotest.check tail "1000 samples resolve p99" (Some 0.99) (Metrics.tail_percentile 1000);
  Alcotest.check tail "999 leave 9 beyond p99" (Some 0.97) (Metrics.tail_percentile 999);
  Alcotest.check tail "334 resolve p97" (Some 0.97) (Metrics.tail_percentile 334);
  Alcotest.check tail "315 fall back to p95" (Some 0.95) (Metrics.tail_percentile 315);
  Alcotest.check tail "100 resolve p90" (Some 0.90) (Metrics.tail_percentile 100);
  Alcotest.check tail "99 resolve none" None (Metrics.tail_percentile 99)

let phase path calls seconds = { Telemetry.path; calls; seconds }

let test_self_times () =
  let before = [ phase "eco" 1 1.0; phase "eco/support" 2 0.5 ] in
  let after =
    [
      phase "eco" 2 4.0;
      phase "eco/feasibility" 1 0.5;
      phase "eco/feasibility/cec" 1 0.25;
      phase "eco/support" 3 2.0;
      phase "eco/verify" 1 0.25;
      phase "discover" 1 1.0;
    ]
  in
  let d = Metrics.phase_diff before after in
  Alcotest.(check (list (pair string int)))
    "diff keeps moved phases" [ ("eco", 1); ("eco/feasibility", 1); ("eco/feasibility/cec", 1);
                                ("eco/support", 1); ("eco/verify", 1); ("discover", 1) ]
    (List.map (fun (p : Telemetry.phase_stat) -> (p.path, p.calls)) d);
  let self = Metrics.self_times d in
  let get p = List.assoc p self in
  Alcotest.check feq "eco minus its direct children" (3.0 -. 0.5 -. 1.5 -. 0.25) (get "eco");
  Alcotest.check feq "feasibility minus cec" 0.25 (get "eco/feasibility");
  Alcotest.check feq "leaf keeps its time" 0.25 (get "eco/feasibility/cec");
  Alcotest.check feq "a prefix is not a parent" 1.0 (get "discover");
  Alcotest.check feq "self times add up to the roots" 4.0
    (List.fold_left (fun acc (_, s) -> acc +. s) 0. self)

let test_sat_attribution () =
  let ev phase name props conflicts =
    {
      Telemetry.domain = 0;
      seq = 0;
      phase;
      name;
      fields =
        [
          ("propagations", Telemetry.Value.Int props); ("conflicts", Telemetry.Value.Int conflicts);
        ];
    }
  in
  let got =
    Metrics.sat_by_phase
      [
        ev "eco/support" "sat.solve" 100 3;
        ev "eco/feasibility/cec" "sat.solve" 10 1;
        ev "eco/support" "sat.solve" 50 2;
        ev "eco/support" "eco.target" 999 999;
        ev "eco/feasibility" "sat.solve" 7 0;
      ]
  in
  let show (p, (e : Metrics.effort)) = (p, (e.solves, e.props, e.conflicts)) in
  Alcotest.(check (list (pair string (triple int int int))))
    "by innermost phase, other events ignored"
    [
      ("eco/feasibility", (1, 7, 0));
      ("eco/feasibility/cec", (1, 10, 1));
      ("eco/support", (2, 150, 5));
    ]
    (List.map show got)

let () =
  Alcotest.run "perfbench"
    [
      ( "metrics",
        [
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "self times" `Quick test_self_times;
          Alcotest.test_case "sat attribution" `Quick test_sat_attribution;
        ] );
    ]
