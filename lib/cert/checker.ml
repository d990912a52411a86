(* Standalone validation of solver verdicts.

   This module is the trusted half of the certification layer: it shares
   no code with [Solver]'s propagation/analyze machinery.  Models are
   checked by direct clause evaluation; resolution proofs are replayed
   node by node with a strict pivot discipline (each resolution step must
   have its pivot in exactly one phase in each operand, so a resolution
   against a clause tautological in the pivot is refused).  It is the
   only proof checker: the tests check the solver's proofs with it too.  A node whose recorded derivation
   does not replay can still be salvaged by a RUP check (reverse unit
   propagation over the clauses validated so far, implemented here with a
   plain counting propagator, no watch lists) — the fallback the clause
   database's garbage collection of antecedents would otherwise make
   necessary.  Either way every validated clause is entailed by the
   admissible leaves, so a validated empty clause certifies
   unsatisfiability. *)

type verdict = Valid | Invalid of string

type stats = { nodes : int; steps : int; rup_fallbacks : int }

module IntSet = Set.Make (Int)

let check_model ~value clauses =
  let n = List.length clauses in
  let rec go i = function
    | [] -> Valid
    | c :: rest ->
      if Array.exists (fun l -> value l) c then go (i + 1) rest
      else Invalid (Printf.sprintf "model falsifies clause %d of %d" i n)
  in
  go 0 clauses

(* Reverse unit propagation: [lits] is RUP with respect to [clauses] when
   asserting the negation of every literal of [lits] and unit-propagating
   over [clauses] yields a conflict.  The propagator is deliberately
   naive — repeated full scans to a fixpoint — because it is a fallback
   path run on individual proof nodes, and simplicity is what makes it
   auditable. *)
exception Rup_conflict

let rup_entailed ~max_var clauses lits =
  let assign = Array.make (max_var + 1) 0 in
  (* 1 = literal's variable true, -1 = false, 0 = unassigned. *)
  let value_of l =
    let a = assign.(Sat.Lit.var l) in
    if Sat.Lit.is_neg l then -a else a
  in
  let assert_lit l =
    match value_of l with
    | 1 -> ()
    | -1 -> raise Rup_conflict
    | _ -> assign.(Sat.Lit.var l) <- (if Sat.Lit.is_neg l then -1 else 1)
  in
  try
    Array.iter (fun l -> assert_lit (Sat.Lit.neg l)) lits;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun c ->
          let satisfied = ref false and unassigned = ref [] in
          Array.iter
            (fun l ->
              match value_of l with
              | 1 -> satisfied := true
              | -1 -> ()
              | _ -> unassigned := l :: !unassigned)
            c;
          if not !satisfied then
            match !unassigned with
            | [] -> raise Rup_conflict
            | [ u ] ->
              assert_lit u;
              changed := true
            | _ -> ())
        clauses
    done;
    false
  with Rup_conflict -> true

(* One resolution step with a strict pivot discipline: the pivot must
   occur positively in exactly one operand and negatively in the other,
   and in one phase only per operand.  Returns the resolvent or [None]
   when the step is ill-formed. *)
let resolve_step current other pivot =
  let pos = Sat.Lit.make pivot and neg = Sat.Lit.make_neg pivot in
  let cur_pos = IntSet.mem pos current
  and cur_neg = IntSet.mem neg current
  and oth_pos = IntSet.mem pos other
  and oth_neg = IntSet.mem neg other in
  match (cur_pos, cur_neg, oth_pos, oth_neg) with
  | true, false, false, true -> Some (IntSet.union (IntSet.remove pos current) (IntSet.remove neg other))
  | false, true, true, false -> Some (IntSet.union (IntSet.remove neg current) (IntSet.remove pos other))
  | _ -> None

let check_proof ?(rup_fallback = true) ~leaf_ok proof =
  let n = Sat.Proof.size proof in
  let validated = Array.make (max n 1) false in
  (* Canonical clause (sorted, duplicate-free literal array) per validated
     node, both for replay lookups and as the RUP premise set. *)
  let clause_of = Array.make (max n 1) [||] in
  let premises = ref [] in
  let errors = Array.make (max n 1) None in
  let steps = ref 0 and rup_fallbacks = ref 0 in
  let max_var = ref 0 in
  let canon lits =
    let a = Array.copy lits in
    Array.sort Int.compare a;
    let out = ref [] in
    Array.iter
      (fun l ->
        max_var := max !max_var (Sat.Lit.var l);
        match !out with x :: _ when x = l -> () | _ -> out := l :: !out)
      a;
    Array.of_list (List.rev !out)
  in
  let accept id lits =
    validated.(id) <- true;
    clause_of.(id) <- canon lits;
    premises := clause_of.(id) :: !premises
  in
  let replay lits base steps_arr =
    if base < 0 || base >= n || not validated.(base) then
      Error (Printf.sprintf "base %d not validated" base)
    else begin
      let current = ref (IntSet.of_list (Array.to_list clause_of.(base))) in
      let err = ref None in
      Array.iter
        (fun (pivot, ante) ->
          if !err = None then
            if ante < 0 || ante >= n || not validated.(ante) then
              err := Some (Printf.sprintf "antecedent %d not validated" ante)
            else begin
              incr steps;
              let other = IntSet.of_list (Array.to_list clause_of.(ante)) in
              match resolve_step !current other pivot with
              | Some r -> current := r
              | None -> err := Some (Printf.sprintf "ill-formed resolution on variable %d" pivot)
            end)
        steps_arr;
      match !err with
      | Some e -> Error e
      | None ->
        if IntSet.equal !current (IntSet.of_list (Array.to_list (canon lits))) then Ok ()
        else Error "replayed resolvent differs from the recorded clause"
    end
  in
  for id = 0 to n - 1 do
    match Sat.Proof.node proof id with
    | Sat.Proof.Leaf { lits; _ } ->
      if leaf_ok lits then accept id lits
      else errors.(id) <- Some "leaf clause is not part of the problem"
    | Sat.Proof.Derived { lits; base; steps = steps_arr } -> (
      match replay lits base steps_arr with
      | Ok () -> accept id lits
      | Error e ->
        (* The recorded chain is unusable (e.g. an antecedent was never
           validated): fall back to proving the claimed clause by RUP
           against everything validated so far — still sound, since RUP
           clauses are entailed. *)
        if rup_fallback && rup_entailed ~max_var:!max_var !premises (canon lits) then begin
          incr rup_fallbacks;
          accept id lits
        end
        else errors.(id) <- Some e)
  done;
  let stats = { nodes = n; steps = !steps; rup_fallbacks = !rup_fallbacks } in
  match Sat.Proof.empty_clause proof with
  | None -> (Invalid "proof has no empty-clause root", stats)
  | Some root when root < 0 || root >= n -> (Invalid "empty-clause root out of range", stats)
  | Some root ->
    if not validated.(root) then
      ( Invalid
          (Printf.sprintf "empty-clause derivation invalid: %s"
             (match errors.(root) with Some e -> e | None -> "unvalidated")),
        stats )
    else if Array.length clause_of.(root) <> 0 then
      (Invalid "root clause is not empty", stats)
    else (Valid, stats)
