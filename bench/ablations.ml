(* Ablation studies backing the design decisions DESIGN.md calls out. *)

(* A random single-target instance with its miter, its target and the
   target's one-target miter M_i; [None] when generation fails. *)
let single_target ~name ~seed ~inputs ~gates ~outputs ~style ~dist =
  let impl = Gen.Circuits.random_dag ~seed ~inputs ~gates ~outputs () in
  match Gen.Mutate.make_instance ~name ~style ~dist ~seed ~n_targets:1 impl with
  | exception Failure _ -> None
  | inst ->
    let miter = Eco.Miter.build inst (Eco.Window.compute inst) in
    let target = List.hd inst.Eco.Instance.targets in
    Some (miter, target, Eco.Miter.quantify_others miter ~keep:target)

(* A: the contest's weight taxonomy (§4.1) — one fixed instance priced
   under each of T1..T8; support choice follows the weight landscape. *)
let ablation_a () =
  Printf.printf "\n=== Ablation A: weight distributions T1..T8 (fixed instance) ===\n";
  let impl = Gen.Circuits.carry_select_adder 16 in
  let rand = Random.State.make [| 7 |] in
  let targets = Gen.Mutate.pick_targets ~rand impl 1 in
  let spec = Gen.Mutate.derive_spec ~rand ~style:(Gen.Mutate.New_cone 5) impl ~targets in
  Printf.printf "%-6s %8s %8s %9s\n" "dist" "cost" "gates" "supports";
  List.iter
    (fun dist ->
      let weights = Netlist.Weights.generate ~rand:(Random.State.make [| 42 |]) dist impl in
      let inst = Eco.Instance.make ~name:"abl_a" ~impl ~spec ~targets ~weights () in
      let o = Eco.Engine.solve ~config:(Eco.Engine.config_of_method Eco.Engine.Min_assume) inst in
      let n_support =
        List.fold_left (fun acc p -> acc + List.length p.Eco.Patch.support) 0 o.Eco.Engine.patches
      in
      Printf.printf "%-6s %8d %8d %9d\n"
        (Netlist.Weights.distribution_name dist)
        o.Eco.Engine.cost o.Eco.Engine.gates n_support)
    Netlist.Weights.all_distributions

(* B: solver-call complexity of the support minimization (§3.4.1): the
   divide-and-conquer minimize_assumptions vs the naive one-divisor-at-a-
   time filter, swept over the candidate-divisor count N.  The paper's
   claim: O(max(log N, M)) vs O(N). *)
let ablation_b () =
  Printf.printf "\n=== Ablation B: support-minimization solver calls vs divisor count ===\n";
  Printf.printf "%6s %6s | %18s | %18s | %10s\n" "N" "M" "minimize (calls)" "linear (calls)" "baseline";
  List.iter
    (fun (seed, gates) ->
      match
        single_target ~name:"abl_b" ~seed ~inputs:12 ~gates ~outputs:6
          ~style:(Gen.Mutate.New_cone 4) ~dist:Netlist.Weights.T8
      with
      | None -> ()
      | Some (miter, target, m_i) ->
        let tc = Eco.Two_copy.build miter ~m_i ~target in
        let n = Eco.Two_copy.n_divisors tc in
        let selectors = List.init n (Eco.Two_copy.selector tc) in
        if Eco.Two_copy.unsat_with tc selectors then begin
          (* Full-sweep divide and conquer (the paper's formulation). *)
          let stats_dc = Eco.Min_assume.create_stats () in
          let minimal =
            Eco.Min_assume.minimize ~stats:stats_dc
              ~unsat:(fun lits -> Eco.Two_copy.unsat_with tc lits)
              ~base:[] selectors
          in
          (* Naive linear filter. *)
          let stats_lin = Eco.Min_assume.create_stats () in
          ignore
            (Eco.Min_assume.minimize_linear ~stats:stats_lin
               ~unsat:(fun lits -> Eco.Two_copy.unsat_with tc lits)
               ~base:[] selectors);
          Printf.printf "%6d %6d | %18d | %18d | %10d\n" n (List.length minimal)
            stats_dc.Eco.Min_assume.solver_calls stats_lin.Eco.Min_assume.solver_calls 1
        end)
    [ (101, 60); (102, 120); (103, 240); (104, 480); (105, 700) ]

(* C: miter copies needed by the structural multi-target patch (§3.6.2):
   2QBF certificate size vs the full 2^k enumeration. *)
let ablation_c () =
  Printf.printf "\n=== Ablation C: structural miter copies, 2QBF certificate vs 2^k ===\n";
  Printf.printf "%4s %8s %12s %8s\n" "k" "full" "certificate" "saved";
  List.iter
    (fun k ->
      let impl = Gen.Circuits.random_dag ~seed:(500 + k) ~inputs:10 ~gates:120 ~outputs:8 () in
      match
        Gen.Mutate.make_instance ~name:"abl_c" ~style:Gen.Mutate.Gate_change
          ~dist:Netlist.Weights.T4 ~seed:(600 + k) ~n_targets:k impl
      with
      | exception Failure _ -> ()
      | inst -> (
        let window = Eco.Window.compute inst in
        let miter = Eco.Miter.build inst window in
        let answer, _ =
          Qbf.Qbf2.solve miter.Eco.Miter.mgr ~phi:miter.Eco.Miter.miter_lit
            ~exists_inputs:(Eco.Miter.x_lits miter)
            ~forall_inputs:(List.map snd miter.Eco.Miter.targets)
            ~budget:100_000
        in
        match answer with
        | Qbf.Qbf2.Unsat cert ->
          let full = 1 lsl k in
          let c = List.length cert in
          Printf.printf "%4d %8d %12d %7d%%\n" k full c (100 - (100 * c / full))
        | _ -> Printf.printf "%4d %8d %12s\n" k (1 lsl k) "-"))
    [ 2; 3; 4; 5; 6; 7; 8 ]

(* D: the last-gasp greedy swap (§3.4.1's closing remark): support cost
   with and without it across a batch of single-target instances. *)
let ablation_d () =
  Printf.printf "\n=== Ablation D: last-gasp single-swap improvement ===\n";
  Printf.printf "%6s %10s %10s %10s\n" "seed" "without" "with" "delta";
  List.iter
    (fun seed ->
      match
        single_target ~name:"abl_d" ~seed ~inputs:10 ~gates:150 ~outputs:8
          ~style:(Gen.Mutate.New_cone 4) ~dist:Netlist.Weights.T7
      with
      | None -> ()
      | Some (miter, target, m_i) -> (
        let run last_gasp =
          let tc = Eco.Two_copy.build miter ~m_i ~target in
          Eco.Support.with_min_assume ~budget:Eco.Engine.sat_budget ~last_gasp tc
        in
        match (run false, run true) with
        | Some { cost = without; _ }, Some { cost = with_; _ } ->
          Printf.printf "%6d %10d %10d %10d\n" seed without with_ (without - with_)
        | _ -> ()))
    [ 201; 202; 203; 204; 205; 206 ]

(* E: patch-function computation — the paper's cube enumeration vs the
   previous work's proof-based interpolation [15] (§1's "faster computation
   of patch functions using cube-enumeration rather than general
   interpolation").  Same supports, same instances; compare patch size and
   time. *)
let ablation_e () =
  Printf.printf "\n=== Ablation E: cube enumeration vs interpolation (same supports) ===\n";
  Printf.printf "%6s %6s | %8s %9s | %8s %9s %9s\n" "seed" "|d|" "cubes:g" "time(ms)" "interp:g"
    "time(ms)" "proof";
  let total_c = ref 0.0 and total_i = ref 0.0 in
  List.iter
    (fun seed ->
      match
        single_target ~name:"abl_e" ~seed ~inputs:10 ~gates:200 ~outputs:8
          ~style:(Gen.Mutate.New_cone 5) ~dist:Netlist.Weights.T8
      with
      | None -> ()
      | Some (miter, target, m_i) -> (
        let tc = Eco.Two_copy.build miter ~m_i ~target in
        match Eco.Support.with_min_assume tc with
        | None -> ()
        | Some sel ->
          let time f =
            let t0 = Unix.gettimeofday () in
            let r = f () in
            (r, 1000.0 *. (Unix.gettimeofday () -. t0))
          in
          let cube, tc_ms =
            time (fun () -> Eco.Patch_fun.compute miter ~m_i ~target ~chosen:sel.Eco.Support.indices)
          in
          let interp, ti_ms =
            time (fun () ->
                Eco.Patch_interp.compute miter ~m_i ~target ~chosen:sel.Eco.Support.indices)
          in
          total_c := !total_c +. tc_ms;
          total_i := !total_i +. ti_ms;
          Printf.printf "%6d %6d | %8d %9.1f | %8d %9.1f %9d\n" seed
            (List.length sel.Eco.Support.indices)
            cube.Eco.Patch_fun.patch.Eco.Patch.gates tc_ms
            interp.Eco.Patch_interp.patch.Eco.Patch.gates ti_ms
            interp.Eco.Patch_interp.proof_nodes))
    [ 301; 302; 303; 304; 305; 306; 307; 308 ];
  Printf.printf "total time: cubes %.1f ms, interpolation %.1f ms\n" !total_c !total_i

let run_all () =
  ablation_a ();
  ablation_b ();
  ablation_c ();
  ablation_d ();
  ablation_e ()
