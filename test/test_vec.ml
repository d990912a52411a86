(* Growable vectors. *)

let test_vec_basics () =
  let v = Sat.Vec.create ~dummy:(-1) () in
  Alcotest.(check bool) "empty" true (Sat.Vec.is_empty v);
  for i = 0 to 99 do
    Sat.Vec.push v i
  done;
  Alcotest.(check int) "size" 100 (Sat.Vec.size v);
  Alcotest.(check int) "get" 42 (Sat.Vec.get v 42);
  Alcotest.(check int) "last" 99 (Sat.Vec.last v);
  Sat.Vec.set v 0 7;
  Alcotest.(check int) "set" 7 (Sat.Vec.get v 0);
  Alcotest.(check int) "pop" 99 (Sat.Vec.pop v);
  Sat.Vec.shrink v 10;
  Alcotest.(check int) "shrunk" 10 (Sat.Vec.size v);
  Alcotest.(check (list int)) "to_list" [ 7; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (Sat.Vec.to_list v);
  Sat.Vec.clear v;
  Alcotest.(check bool) "cleared" true (Sat.Vec.is_empty v)

let test_vec_bounds () =
  let v = Sat.Vec.of_list ~dummy:0 [ 1; 2; 3 ] in
  Alcotest.check_raises "get out of range" (Invalid_argument "Vec.get") (fun () ->
      ignore (Sat.Vec.get v 3));
  Alcotest.check_raises "set out of range" (Invalid_argument "Vec.set") (fun () ->
      Sat.Vec.set v (-1) 0);
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop") (fun () ->
      let e = Sat.Vec.create ~dummy:0 () in
      ignore (Sat.Vec.pop e))

let test_vec_swap_remove () =
  let v = Sat.Vec.of_list ~dummy:0 [ 10; 20; 30; 40 ] in
  Sat.Vec.swap_remove v 1;
  Alcotest.(check (list int)) "swap removed" [ 10; 40; 30 ] (Sat.Vec.to_list v)

let test_vec_fold_iter () =
  let v = Sat.Vec.of_list ~dummy:0 [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "fold sum" 10 (Sat.Vec.fold ( + ) 0 v);
  Alcotest.(check bool) "exists" true (Sat.Vec.exists (fun x -> x = 3) v);
  Alcotest.(check bool) "not exists" false (Sat.Vec.exists (fun x -> x = 9) v);
  let acc = ref [] in
  Sat.Vec.iter (fun x -> acc := x :: !acc) v;
  Alcotest.(check (list int)) "iter order" [ 4; 3; 2; 1 ] !acc

let test_vec_sort () =
  let v = Sat.Vec.of_list ~dummy:0 [ 3; 1; 2 ] in
  Sat.Vec.sort_in_place compare v;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (Sat.Vec.to_list v)

let () =
  Alcotest.run "vec"
    [
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "swap_remove" `Quick test_vec_swap_remove;
          Alcotest.test_case "fold/iter/exists" `Quick test_vec_fold_iter;
          Alcotest.test_case "sort" `Quick test_vec_sort;
        ] );
    ]
