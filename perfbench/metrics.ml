(* Order statistics and layer accounting shared by the workload benchmark
   and its tests.  Nothing here reads a clock: the functions take the
   measurements (latency samples, phase-timer diffs, trace events) as
   plain data. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of [xs], p in [0, 1]: the smallest sample with
   at least [p] of the samples at or below it. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(min (n - 1) (max 0 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Samples strictly above the nearest-rank [p] percentile of [n]
   samples. *)
let beyond n p = n - int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))

(* The highest of p90/p95/p97/p99 that leaves at least ten samples beyond
   it — the tail a run of [n] samples can actually resolve.  [None] when
   not even p90 does. *)
let tail_percentile n = List.find_opt (fun p -> beyond n p >= 10) [ 0.99; 0.97; 0.95; 0.90 ]

(* {2 Phase trees} *)

(* Per-path deltas between two [Telemetry.phases] readings; paths whose
   call count did not move are dropped. *)
let phase_diff (before : Telemetry.phase_stat list) (after : Telemetry.phase_stat list) =
  List.filter_map
    (fun (a : Telemetry.phase_stat) ->
      let calls, seconds =
        match List.find_opt (fun (b : Telemetry.phase_stat) -> b.path = a.path) before with
        | Some b -> (a.calls - b.calls, a.seconds -. b.seconds)
        | None -> (a.calls, a.seconds)
      in
      if calls = 0 then None else Some { Telemetry.path = a.path; calls; seconds })
    after

let parent path = Option.map (fun i -> String.sub path 0 i) (String.rindex_opt path '/')

(* Self time of each phase: its seconds minus those of its direct child
   phases.  The self times of a tree add up to its roots' seconds. *)
let self_times (ps : Telemetry.phase_stat list) =
  List.map
    (fun (p : Telemetry.phase_stat) ->
      let children =
        List.fold_left
          (fun acc (q : Telemetry.phase_stat) ->
            if parent q.path = Some p.path then acc +. q.seconds else acc)
          0. ps
      in
      (p.path, p.seconds -. children))
    ps

(* {2 SAT effort by phase} *)

type effort = { solves : int; props : int; conflicts : int }

let no_effort = { solves = 0; props = 0; conflicts = 0 }

let add_effort a b =
  { solves = a.solves + b.solves; props = a.props + b.props; conflicts = a.conflicts + b.conflicts }

(* Sums the [sat.solve] events by the innermost phase they were emitted
   in, so each call's effort lands on exactly one phase path. *)
let sat_by_phase (events : Telemetry.event list) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (e : Telemetry.event) ->
      if e.name = "sat.solve" then begin
        let int k =
          match List.assoc_opt k e.fields with Some (Telemetry.Value.Int n) -> n | _ -> 0
        in
        let cur = Option.value ~default:no_effort (Hashtbl.find_opt tbl e.phase) in
        Hashtbl.replace tbl e.phase
          (add_effort cur { solves = 1; props = int "propagations"; conflicts = int "conflicts" })
      end)
    events;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
