(* Shared helpers for the test suites. *)

let qcheck ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name arb prop)

(* Exhaustive evaluation of a CNF given as lit lists over [nv] variables. *)
let brute_force_sat nv clauses =
  let rec go bits v =
    if v = nv then
      if
        List.for_all
          (fun cls ->
            List.exists
              (fun l ->
                let value = bits.(Sat.Lit.var l) in
                if Sat.Lit.is_neg l then not value else value)
              cls)
          clauses
      then Some (Array.copy bits)
      else None
    else begin
      bits.(v) <- false;
      match go bits (v + 1) with
      | Some m -> Some m
      | None ->
        bits.(v) <- true;
        go bits (v + 1)
    end
  in
  go (Array.make nv false) 0

let random_cnf rand nv nc max_len =
  List.init nc (fun _ ->
      let len = 1 + Random.State.int rand max_len in
      List.init len (fun _ ->
          Sat.Lit.of_var (Random.State.int rand nv) (Random.State.bool rand)))

(* Truth table of an AIG literal as a list of output bits, inputs counted
   LSB-first over the manager's input list. *)
let truth_table mgr lit =
  let n = Aig.num_inputs mgr in
  if n > 16 then invalid_arg "truth_table: too many inputs";
  List.init (1 lsl n) (fun code ->
      let bits = Array.init n (fun i -> (code lsr i) land 1 = 1) in
      Aig.eval mgr bits lit)

(* A resolution proof replays to its empty-clause root under the strict
   standalone checker, with no RUP salvage.  [leaf_ok] defaults to
   admitting every leaf: the callers check derivations, not the clause
   set. *)
let proof_valid ?(leaf_ok = fun _ -> true) proof =
  match Cert.Checker.check_proof ~rup_fallback:false ~leaf_ok proof with
  | Cert.Checker.Valid, _ -> true
  | Cert.Checker.Invalid _, _ -> false
