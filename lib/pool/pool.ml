type t = {
  mutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  all_done : Condition.t;
  queue : (unit -> unit) option array; (* ring buffer of pending jobs *)
  mutable q_head : int;
  mutable q_len : int;
  mutable in_flight : int; (* submitted, not yet completed *)
  mutable closed : bool;
  mutable workers : unit Domain.t array;
}

let size t = Array.length t.workers

let rec worker_loop t =
  Mutex.lock t.mutex;
  while t.q_len = 0 && not t.closed do
    Condition.wait t.not_empty t.mutex
  done;
  if t.q_len = 0 then Mutex.unlock t.mutex (* closed and drained: exit *)
  else begin
    let job =
      match t.queue.(t.q_head) with Some j -> j | None -> assert false
    in
    t.queue.(t.q_head) <- None;
    t.q_head <- (t.q_head + 1) mod Array.length t.queue;
    t.q_len <- t.q_len - 1;
    Condition.signal t.not_full;
    Mutex.unlock t.mutex;
    (* Exception isolation: a job failure must never kill the worker. *)
    (try job () with _ -> ());
    Mutex.lock t.mutex;
    t.in_flight <- t.in_flight - 1;
    if t.in_flight = 0 then Condition.broadcast t.all_done;
    Mutex.unlock t.mutex;
    worker_loop t
  end

let create ?queue_capacity n =
  if n < 1 then invalid_arg "Pool.create: need at least one worker";
  let n = min n 128 in
  let capacity = match queue_capacity with Some c -> max 1 c | None -> 2 * n in
  let t =
    {
      mutex = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      all_done = Condition.create ();
      queue = Array.make capacity None;
      q_head = 0;
      q_len = 0;
      in_flight = 0;
      closed = false;
      workers = [||];
    }
  in
  t.workers <-
    Array.init n (fun i ->
        Domain.spawn (fun () ->
            Telemetry.set_domain_id (i + 1);
            worker_loop t));
  t

let submit t job =
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  while t.q_len = Array.length t.queue do
    Condition.wait t.not_full t.mutex
  done;
  let tail = (t.q_head + t.q_len) mod Array.length t.queue in
  t.queue.(tail) <- Some job;
  t.q_len <- t.q_len + 1;
  t.in_flight <- t.in_flight + 1;
  Condition.signal t.not_empty;
  Mutex.unlock t.mutex

let wait t =
  Mutex.lock t.mutex;
  while t.in_flight > 0 do
    Condition.wait t.all_done t.mutex
  done;
  Mutex.unlock t.mutex

let shutdown t =
  wait t;
  Mutex.lock t.mutex;
  let was_closed = t.closed in
  t.closed <- true;
  Condition.broadcast t.not_empty;
  Mutex.unlock t.mutex;
  if not was_closed then Array.iter Domain.join t.workers

let map ?(jobs = 1) f xs =
  let guarded x = match f x with v -> Ok v | exception e -> Error e in
  match xs with
  | [] -> []
  | [ _ ] -> List.map guarded xs
  | _ when jobs <= 1 -> List.map guarded xs
  | _ ->
    let items = Array.of_list xs in
    let n = Array.length items in
    let results = Array.make n None in
    let t = create (min jobs n) in
    Array.iteri (fun i x -> submit t (fun () -> results.(i) <- Some (guarded x))) items;
    (* [shutdown] waits for completion; the mutex handshake inside makes
       the workers' writes to [results] visible here. *)
    shutdown t;
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false) results)
