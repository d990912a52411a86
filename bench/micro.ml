(* Bechamel microbenchmarks of the computational kernels behind each
   experiment: SAT solving on miter CNFs, a small CEC query, one support
   search of the sat_heavy workload, a request's fixed costs (instance
   set-up, window, fingerprint), the exact hitting set, target discovery
   on unit6, AIG strashing, Tseitin encoding, cube enumeration, max-flow,
   and minimize_assumptions. *)

open Bechamel
open Toolkit

let sat_miter_test () =
  (* UNSAT miter of the two adder architectures: the Table-1 kernel. *)
  let a = (Netlist.Convert.to_aig (Gen.Circuits.ripple_adder 10)).Netlist.Convert.mgr in
  let b = (Netlist.Convert.to_aig (Gen.Circuits.carry_select_adder 10)).Netlist.Convert.mgr in
  Test.make ~name:"sat: adder-equivalence UNSAT"
    (Staged.stage (fun () ->
         let m, miter = Cec.build_miter a b in
         match Cec.check_lit m miter with
         | Cec.Equivalent -> ()
         | _ -> failwith "expected equivalent"))

let cec_small_query_test () =
  (* A query the size of a discovery rectifiability check: decided by the
     plain attempt, so it measures a CEC call's fixed cost. *)
  let a = (Netlist.Convert.to_aig (Gen.Circuits.ripple_adder 6)).Netlist.Convert.mgr in
  let b = (Netlist.Convert.to_aig (Gen.Circuits.carry_select_adder 6)).Netlist.Convert.mgr in
  let m, miter = Cec.build_miter a b in
  Test.make ~name:"cec: small query (adder-6 miter)"
    (Staged.stage (fun () ->
         match Cec.check_lit m miter with
         | Cec.Equivalent -> ()
         | _ -> failwith "expected equivalent"))

let support_search_test () =
  (* One support search of the sat_heavy workload: unit15's first target
     under min_assume, i.e. the baseline call on a fresh two-copy
     instance, then the minimize_assumptions oracle calls inside its
     core.  Each run rebuilds the instance, so no run reuses another's
     learned clauses. *)
  let inst = Gen.Suite.instantiate (Gen.Suite.find "unit15") in
  let miter = Eco.Miter.build inst (Eco.Window.compute inst) in
  let target, _ = List.hd (Eco.Miter.remaining_targets miter) in
  let m_i = Eco.Miter.quantify_others miter ~keep:target in
  Test.make ~name:"support: unit15 min_assume search"
    (Staged.stage (fun () ->
         let tc = Eco.Two_copy.build miter ~m_i ~target in
         match Eco.Support.with_min_assume ~last_gasp:false tc with
         | Some _ -> ()
         | None -> failwith "expected a support"))

(* Three fixed costs every server request pays before any search: a
   unit-name source is instantiated (hits included), the fingerprint
   prints both netlists, and each solve computes its window. *)
let instantiate_test () =
  let spec = Gen.Suite.find "unit5" in
  Test.make ~name:"gen: instantiate unit5"
    (Staged.stage (fun () -> ignore (Gen.Suite.instantiate spec)))

let window_test () =
  let inst = Gen.Suite.instantiate (Gen.Suite.find "unit5") in
  Test.make ~name:"window: compute unit5"
    (Staged.stage (fun () -> ignore (Eco.Window.compute inst)))

let fingerprint_test () =
  let inst = Gen.Suite.instantiate (Gen.Suite.find "unit5") in
  Test.make ~name:"server: fingerprint unit5"
    (Staged.stage (fun () ->
         ignore (Server.Fingerprint.instance inst Server.Request.default_options)))

let hs_minimum_test () =
  (* A clause set the size of unit20's exact search: 2,382 divisors and
     48 refinement clauses of about 757 of them each.  The complete search
     visits 11,069 branch-and-bound nodes. *)
  let rand = Random.State.make [| 20 |] in
  let n = 2_382 in
  let weights = Array.init n (fun _ -> 1 + Random.State.int rand 100) in
  let clauses =
    List.init 48 (fun _ ->
        List.filter (fun _ -> Random.State.int rand n < 757) (List.init n Fun.id))
  in
  let hs = Diff.Hitting_set.of_list ~weights clauses in
  Test.make ~name:"hs: minimum (unit20-sized, 11k nodes)"
    (Staged.stage (fun () -> ignore (Diff.Hitting_set.minimum hs)))

let discover_test () =
  (* Target discovery on the blind unit6, the MCS loop that dominates the
     perfbench discovery workload.  [Discover.run] builds a fresh
     rectifiability oracle, so no run reuses another's fixes or pooled
     inputs. *)
  let blind, _ = Gen.Suite.instantiate_blind (Gen.Suite.find "unit6") in
  Test.make ~name:"diff: discover unit6"
    (Staged.stage (fun () ->
         ignore
           (Diff.Discover.run ~impl:blind.Eco.Instance.impl ~spec:blind.Eco.Instance.spec
              ~weights:blind.Eco.Instance.weights ())))

let strash_test () =
  Test.make ~name:"aig: strash multiplier-8"
    (Staged.stage (fun () ->
         ignore (Netlist.Convert.to_aig (Gen.Circuits.multiplier 8)).Netlist.Convert.mgr))

let cnf_test () =
  let m = (Netlist.Convert.to_aig (Gen.Circuits.multiplier 8)).Netlist.Convert.mgr in
  Test.make ~name:"cnf: tseitin multiplier-8"
    (Staged.stage (fun () ->
         let solver = Sat.Solver.create () in
         let env = Aig.Cnf.create m solver in
         Array.iter (fun o -> ignore (Aig.Cnf.lit env o)) (Aig.outputs m)))

let simulate_test () =
  let m = (Netlist.Convert.to_aig (Gen.Circuits.multiplier 10)).Netlist.Convert.mgr in
  let words = Array.init (Aig.num_inputs m) (fun i -> Int64.of_int (0x9E3779B9 * (i + 1))) in
  Test.make ~name:"aig: simulate multiplier-10 (64 patterns)"
    (Staged.stage (fun () -> ignore (Aig.simulate m words)))

let patch_pipeline_test () =
  (* One full single-target min_assume solve on a small instance,
     verification included: the end-to-end per-unit kernel of Table 1. *)
  let impl = Gen.Circuits.ripple_adder 8 in
  let inst =
    Gen.Mutate.make_instance ~name:"bench" ~style:(Gen.Mutate.New_cone 4)
      ~dist:Netlist.Weights.T8 ~seed:9 ~n_targets:1 impl
  in
  let config = Eco.Engine.config_of_method Eco.Engine.Min_assume in
  Test.make ~name:"eco: single-target solve (adder-8)"
    (Staged.stage (fun () ->
         match Eco.Engine.solve ~config inst with
         | { Eco.Engine.status = Eco.Engine.Solved; _ } -> ()
         | _ -> failwith "expected solved"))

let maxflow_test () =
  Test.make ~name:"flow: dinic 20x20 grid"
    (Staged.stage (fun () ->
         let n = 20 in
         let id r c = (r * n) + c in
         let g = Flow.Maxflow.create (n * n) in
         for r = 0 to n - 1 do
           for c = 0 to n - 1 do
             if c + 1 < n then Flow.Maxflow.add_edge g (id r c) (id r (c + 1)) ((r + c) mod 7);
             if r + 1 < n then Flow.Maxflow.add_edge g (id r c) (id (r + 1) c) ((r * c) mod 5)
           done
         done;
         ignore (Flow.Maxflow.max_flow g ~source:0 ~sink:((n * n) - 1))))

let min_assume_test () =
  let a = List.init 256 Sat.Lit.make in
  let needed = [ Sat.Lit.make 100; Sat.Lit.make 200 ] in
  let oracle lits = List.for_all (fun x -> List.mem x lits) needed in
  Test.make ~name:"min_assume: 256 assumptions, 2 needed"
    (Staged.stage (fun () -> ignore (Eco.Min_assume.minimize ~unsat:oracle ~base:[] a)))

let fraig_test () =
  let m = (Netlist.Convert.to_aig (Gen.Circuits.carry_select_adder 10)).Netlist.Convert.mgr in
  Test.make ~name:"fraig: sweep carry-select-10"
    (Staged.stage (fun () -> ignore (Aig.Fraig.sweep m)))

let bdd_test () =
  let aig = (Netlist.Convert.to_aig (Gen.Circuits.ripple_adder 10)).Netlist.Convert.mgr in
  Test.make ~name:"bdd: build adder-10 outputs"
    (Staged.stage (fun () ->
         let man = Bdd.create (Aig.num_inputs aig) in
         Array.iter
           (fun o -> ignore (Bdd.of_aig man aig ~map:(Bdd.var man) o))
           (Aig.outputs aig)))

let run () =
  Printf.printf "\n=== Bechamel microbenchmarks ===\n%!";
  let tests =
    Test.make_grouped ~name:"kernels"
      [
        sat_miter_test ();
        cec_small_query_test ();
        support_search_test ();
        instantiate_test ();
        window_test ();
        fingerprint_test ();
        hs_minimum_test ();
        discover_test ();
        strash_test ();
        cnf_test ();
        simulate_test ();
        patch_pipeline_test ();
        maxflow_test ();
        min_assume_test ();
        fraig_test ();
        bdd_test ();
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 10) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let entries = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let ns =
        match Analyze.OLS.estimates ols with Some [ est ] -> est | _ -> nan
      in
      Printf.printf "%-45s %12.0f ns/run (%.3f ms)\n" name ns (ns /. 1e6))
    (List.sort compare entries)
