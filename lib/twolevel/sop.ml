type t = { n : int; cubes : Cube.t list }

let create n cubes =
  List.iter (fun c -> if Cube.nvars c <> n then invalid_arg "Sop.create: support mismatch") cubes;
  { n; cubes }

let zero n = { n; cubes = [] }
let one n = { n; cubes = [ Cube.full n ] }
let nvars s = s.n
let cubes s = s.cubes
let num_cubes s = List.length s.cubes
let num_literals s = List.fold_left (fun acc c -> acc + Cube.num_literals c) 0 s.cubes
let is_zero s = s.cubes = []
let is_one s = match s.cubes with [ c ] -> Cube.num_literals c = 0 | _ -> false

let add_cube s c =
  if Cube.nvars c <> s.n then invalid_arg "Sop.add_cube: support mismatch";
  { s with cubes = c :: s.cubes }

let eval s bits = List.exists (fun c -> Cube.eval c bits) s.cubes

let scc_minimize s =
  let rec keep acc = function
    | [] -> List.rev acc
    | c :: rest ->
      let dominated =
        List.exists (fun c' -> (not (Cube.equal c c')) && Cube.contains c' c) (acc @ rest)
        || List.exists (fun c' -> Cube.equal c c') acc
      in
      if dominated then keep acc rest else keep (c :: acc) rest
  in
  { s with cubes = keep [] s.cubes }

let equal_semantic a b =
  if a.n <> b.n then false
  else begin
    let bits = Array.make a.n false in
    let rec go v = if v = a.n then eval a bits = eval b bits
      else begin
        bits.(v) <- false;
        go (v + 1)
        && begin
             bits.(v) <- true;
             go (v + 1)
           end
      end
    in
    go 0
  end

let to_string s =
  match s.cubes with
  | [] -> "0"
  | cs -> String.concat " + " (List.map Cube.to_string cs)

let pp ppf s = Format.pp_print_string ppf (to_string s)
