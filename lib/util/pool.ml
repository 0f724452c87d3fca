(* The process's domain pool over the OCaml 5 stdlib (Domain + Mutex +
   Condition only; no external scheduler). Workers block on one task
   queue. A caller queues its tasks, then runs every one of them that no
   worker has started yet itself, so a busy pool degrades toward inline
   execution, and waits only for tasks already running elsewhere. *)

type task = { mutable taken : bool; run : unit -> unit }

type pool = {
  width : int;  (* worker domains + the calling domain *)
  mutex : Mutex.t;
  work : Condition.t;  (* signalled when the queue gains a task or on shutdown *)
  queue : task Queue.t;
  mutable workers : unit Domain.t list;
  mutable stopped : bool;
}

let recommended_domains () = max 1 (Domain.recommended_domain_count ())

(* Set while this domain runs a pool task (for a worker, always): any
   pool call it makes then runs inline, so tasks never wait on tasks. *)
let in_task = Domain.DLS.new_key (fun () -> false)

(* Under the pool's mutex: whether [t] was still free to run. *)
let claim t =
  let free = not t.taken in
  t.taken <- true;
  free

let rec worker_loop p =
  Mutex.lock p.mutex;
  while Queue.is_empty p.queue && not p.stopped do
    Condition.wait p.work p.mutex
  done;
  match Queue.take_opt p.queue with
  | None -> Mutex.unlock p.mutex
  | Some task ->
      (* An entry its caller took back is skipped. *)
      let mine = claim task in
      Mutex.unlock p.mutex;
      if mine then task.run ();
      worker_loop p

let create width =
  let p =
    { width; mutex = Mutex.create (); work = Condition.create (); queue = Queue.create (); workers = [];
      stopped = false }
  in
  p.workers <-
    List.init (width - 1) (fun _ ->
        Domain.spawn (fun () ->
            Domain.DLS.set in_task true;
            worker_loop p));
  p

let shutdown p =
  Mutex.protect p.mutex (fun () ->
      p.stopped <- true;
      Condition.broadcast p.work);
  List.iter Domain.join p.workers

(* The pool calls run on: a [with_width] pool while one is in scope,
   else the shared pool, built by the first call from any domain (a
   [Lazy] is not domain-safe) and never shut down. *)
let active : pool option Atomic.t = Atomic.make None
let build_mutex = Mutex.create ()

let current () =
  match Atomic.get active with
  | Some p -> p
  | None ->
      Mutex.protect build_mutex (fun () ->
          match Atomic.get active with
          | Some p -> p
          | None ->
              let p = create (recommended_domains ()) in
              Atomic.set active (Some p);
              p)

let width () = match Atomic.get active with Some p -> p.width | None -> recommended_domains ()

let with_width n f =
  if n < 1 then invalid_arg "Pool.with_width: need at least one domain";
  if Domain.DLS.get in_task then invalid_arg "Pool.with_width: called inside a pool task";
  let saved = Atomic.get active in
  let p = create n in
  Atomic.set active (Some p);
  Fun.protect
    ~finally:(fun () ->
      Atomic.set active saved;
      shutdown p)
    f

(* The pool to split over, or [None] when the call must run inline. *)
let splitting () =
  if Domain.DLS.get in_task then None
  else
    let p = current () in
    if p.width > 1 then Some p else None

(* Run [own] on the caller while [bodies] are offered to the workers;
   return once every body has finished. Bodies that no worker has taken
   run on the caller, in order, as tasks. The caller's exception wins,
   then the first failing body's. *)
let fork p own bodies =
  let pending = ref (List.length bodies) and finished = Condition.create () in
  let failures = Array.make (List.length bodies) None in
  let task i body =
    { taken = false;
      run =
        (fun () ->
          (try body () with e -> failures.(i) <- Some e);
          Mutex.protect p.mutex (fun () ->
              decr pending;
              if !pending = 0 then Condition.broadcast finished)) }
  in
  let tasks = List.mapi task bodies in
  Mutex.protect p.mutex (fun () ->
      List.iter (fun t -> Queue.push t p.queue) tasks;
      Condition.broadcast p.work);
  let own = try Ok (own ()) with e -> Error e in
  List.iter
    (fun t ->
      if Mutex.protect p.mutex (fun () -> claim t) then begin
        Domain.DLS.set in_task true;
        t.run ();
        Domain.DLS.set in_task false
      end)
    tasks;
  Mutex.protect p.mutex (fun () ->
      while !pending > 0 do
        Condition.wait finished p.mutex
      done);
  match (own, Array.find_map Fun.id failures) with
  | Error e, _ | Ok _, Some e -> raise e
  | Ok v, None -> v

let both f g =
  match splitting () with
  | None ->
      let a = f () in
      (a, g ())
  | Some p ->
      let b = ref None in
      let a = fork p f [ (fun () -> b := Some (g ())) ] in
      (a, Option.get !b)

(* Split [0, n) into at most [chunks] contiguous ranges of near-equal
   length. *)
let ranges ~n ~chunks =
  let chunks = max 1 (min chunks n) in
  let base = n / chunks and extra = n mod chunks in
  List.init chunks (fun i ->
      let lo = (i * base) + min i extra in
      (lo, lo + base + if i < extra then 1 else 0))

let map f = function
  | ([] | [ _ ]) as xs -> List.map f xs
  | xs -> (
      match splitting () with
      | None -> List.map f xs
      | Some p ->
          let items = Array.of_list xs in
          let out = Array.make (Array.length items) None in
          (* More chunks than domains so uneven per-item cost load-balances. *)
          let chunk (lo, hi) () =
            for i = lo to hi - 1 do
              out.(i) <- Some (f items.(i))
            done
          in
          fork p ignore (List.map chunk (ranges ~n:(Array.length items) ~chunks:(p.width * 4)));
          Array.to_list (Array.map Option.get out))
