(* Fixed-size domain pool over the OCaml 5 stdlib (Domain + Mutex +
   Condition only; no external scheduler). Workers block on a shared
   task queue; a submitting domain also drains the queue while it waits,
   so a pool is never slower than running the work inline. *)

type task = unit -> unit

type t = {
  size : int;  (* worker domains + the submitting domain *)
  mutex : Mutex.t;
  work : Condition.t;  (* signalled when the queue gains a task or on shutdown *)
  queue : task Queue.t;
  mutable workers : unit Domain.t list;
  mutable stopped : bool;
}

let recommended_domains () = max 1 (Domain.recommended_domain_count ())

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.stopped do
    Condition.wait t.work t.mutex
  done;
  if Queue.is_empty t.queue && t.stopped then Mutex.unlock t.mutex
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    task ();
    worker_loop t
  end

let create ?domains () =
  let size =
    match domains with
    | None -> recommended_domains ()
    | Some d when d < 1 -> invalid_arg "Pool.create: need at least one domain"
    | Some d -> d
  in
  let t =
    { size; mutex = Mutex.create (); work = Condition.create (); queue = Queue.create ();
      workers = []; stopped = false }
  in
  (* size - 1 workers: the domain that submits a batch participates in
     draining it, so [size] domains compute in parallel. *)
  t.workers <- List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = t.size

let shutdown t =
  Mutex.lock t.mutex;
  let already = t.stopped in
  t.stopped <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  if not already then begin
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Built on first use under a mutex: a [Lazy] is not domain-safe. *)
let shared_pool = ref None
let shared_mutex = Mutex.create ()

let shared () =
  Mutex.protect shared_mutex (fun () ->
      if Option.is_none !shared_pool then shared_pool := Some (create ());
      Option.get !shared_pool)

(* One batch of chunk tasks: completion is tracked under the pool mutex
   so the submitter can both help drain the queue and sleep once it
   empties. The first exception wins and is re-raised on the submitting
   domain after every chunk has finished. *)
type batch = { mutable pending : int; done_ : Condition.t; mutable failure : exn option }

let submit_batch t thunks =
  let n = List.length thunks in
  let b = { pending = n; done_ = Condition.create (); failure = None } in
  let wrap thunk () =
    (try thunk () with e -> Mutex.lock t.mutex;
                           (if b.failure = None then b.failure <- Some e);
                           Mutex.unlock t.mutex);
    Mutex.lock t.mutex;
    b.pending <- b.pending - 1;
    if b.pending = 0 then Condition.broadcast b.done_;
    Mutex.unlock t.mutex
  in
  Mutex.lock t.mutex;
  if t.stopped then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool: submit on a shut-down pool"
  end;
  List.iter (fun thunk -> Queue.push (wrap thunk) t.queue) thunks;
  Condition.broadcast t.work;
  (* Help: run queued tasks (ours or another submitter's) until our
     batch completes. A task that submits a nested batch helps drain it
     the same way, and a submitter sleeps only once the queue is empty,
     on tasks other domains are already running: no deadlock. *)
  let rec help () =
    if b.pending > 0 then begin
      match Queue.take_opt t.queue with
      | Some task ->
          Mutex.unlock t.mutex;
          task ();
          Mutex.lock t.mutex;
          help ()
      | None ->
          if b.pending > 0 then begin
            Condition.wait b.done_ t.mutex;
            help ()
          end
    end
  in
  help ();
  let failure = b.failure in
  Mutex.unlock t.mutex;
  match failure with
  | Some e -> raise e
  | None -> ()

(* Split [0, n) into at most [chunks] contiguous ranges of near-equal
   length. *)
let ranges ~n ~chunks =
  let chunks = max 1 (min chunks n) in
  let base = n / chunks and extra = n mod chunks in
  List.init chunks (fun i ->
      let lo = (i * base) + min i extra in
      let len = base + if i < extra then 1 else 0 in
      (lo, lo + len))

let parallel_for t ~n f =
  if n <= 0 then ()
  else if t.size <= 1 || n = 1 then
    for i = 0 to n - 1 do
      f i
    done
  else begin
    (* More chunks than domains so uneven per-item cost load-balances. *)
    let thunks =
      List.map
        (fun (lo, hi) () ->
          for i = lo to hi - 1 do
            f i
          done)
        (ranges ~n ~chunks:(t.size * 4))
    in
    submit_batch t thunks
  end

let parallel_map t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    parallel_for t ~n (fun i -> results.(i) <- Some (f arr.(i)));
    Array.map
      (function
        | Some v -> v
        | None -> assert false (* every index was written *))
      results
  end

let map_list t f l = Array.to_list (parallel_map t f (Array.of_list l))
