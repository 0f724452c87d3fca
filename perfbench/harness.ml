(* Measurement harness: calibrated windows, latency series, tracing
   spans, inputs and failure accounting. Everything here is benchmark
   code; the system under test is only ever reached through the public
   functions the workloads call. *)

let now () = Monotonic_clock.now ()
let since t0 = Int64.to_float (Int64.sub (now ()) t0)

(* ---------- calibration ---------- *)

(* Raw ns of every calibration point, newest first. [lib_samples] times
   the repository's own RSA-1024 sign + SHA-256 at the same points, as
   evidence of how well the frozen kernel tracks the real work. *)
let cal_samples : float list ref = ref []
let lib_samples : float list ref = ref []
let lib_kernel : (unit -> unit) option ref = ref None
let last_lib = ref nan

(* A calibration point is the median of three kernel passes, so one pass
   that the scheduler interrupts does not skew the windows beside it. The
   passes land in a flat float array and the median is computed without
   branching on which pass it was, so what the heap retains, and hence
   the GC counters, does not depend on the timings. *)
let cal_point () =
  let t = Array.make 3 0. in
  for i = 0 to 2 do
    let t0 = now () in
    let d = Calib.kernel () in
    t.(i) <- since t0;
    if not (String.equal (Calib.hex d) Calib.pinned_digest) then
      failwith (Printf.sprintf "calibration kernel digest %s, pinned %s" (Calib.hex d) Calib.pinned_digest)
  done;
  let a = t.(0) and b = t.(1) and c = t.(2) in
  cal_samples := (a +. b +. c -. Float.min a (Float.min b c) -. Float.max a (Float.max b c)) :: !cal_samples;
  Option.iter
    (fun k ->
      let t0 = now () in
      k ();
      last_lib := since t0;
      lib_samples := !last_lib :: !lib_samples)
    !lib_kernel

(* ---------- calibrated windows ---------- *)

(* Every timed window, newest first: its raw ns, the indices of the
   calibration points just before and after it, and its time in units
   of the library kernel (nan when that kernel was not timed). *)
type win = { raw : float; c0 : int; c1 : int; lib : float }

let wins : win list ref = ref []
let window_no = ref 0

(* The windows one phase of the run is made of. *)
type clock = { mutable ids : int list }

let clock () = { ids = [] }

(* Run [f] as one timed window between two calibration points.
   Consecutive windows share their calibration points. *)
let window acc f =
  if !cal_samples = [] then cal_point ();
  let c0 = List.length !cal_samples - 1 and lib_before = !last_lib in
  let t0 = now () in
  let r = f () in
  let raw = since t0 in
  cal_point ();
  let lib = if Option.is_some !lib_kernel then raw /. ((lib_before +. !last_lib) /. 2.) else nan in
  wins := { raw; c0; c1 = List.length !cal_samples - 1; lib } :: !wins;
  acc.ids <- !window_no :: acc.ids;
  incr window_no;
  r

(* Per window (indexed by window number), the factor scaling its raw
   time to reference speed: the reference kernel time over the mean of
   the calibration points just before and after it. *)
let scales () =
  let cal = Array.of_list (List.rev !cal_samples) in
  Array.of_list (List.rev_map (fun w -> Calib.reference_ns /. ((cal.(w.c0) +. cal.(w.c1)) /. 2.)) !wins)

let win_array () = Array.of_list (List.rev !wins)

let raw_ns acc =
  let w = win_array () in
  List.fold_left (fun t i -> t +. w.(i).raw) 0. acc.ids

let cal_ns acc =
  let w = win_array () and sc = scales () in
  List.fold_left (fun t i -> t +. (w.(i).raw *. sc.(i))) 0. acc.ids

let lib_units acc =
  let w = win_array () in
  List.fold_left (fun t i -> t +. w.(i).lib) 0. acc.ids

(* ---------- latency series ---------- *)

(* Raw samples, tagged with the window they were taken in; scaled once
   the run's calibration points are all known. *)
type series = { mutable samples : (int * float) list }

let series () = { samples = [] }
let sample s ns = s.samples <- (!window_no, ns) :: s.samples
let raw s = List.map snd s.samples

(* Release a series once its metrics are taken. *)
let drop s = s.samples <- []

let scaled s =
  let sc = scales () in
  List.map (fun (w, ns) -> ns *. sc.(w)) s.samples

(* ---------- statistics ---------- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile; 0 on an empty series. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0. else a.(Stdlib.max 0 (Stdlib.min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)))

let median l = percentile (sorted l) 0.5

(* A tail percentile that one burst of machine noise cannot move: the
   median, over consecutive blocks of [block] samples in time order, of
   each block's [p] percentile. With 1000 samples a block's 99th
   percentile has ten samples beyond it. A short series is one block; a
   remainder shorter than [block] joins the last block. *)
let block = 1000

let block_percentile newest_first p =
  let rec chunks acc cur n = function
    | [] -> if n >= block || acc = [] then cur :: acc else (cur @ List.hd acc) :: List.tl acc
    | x :: rest -> if n = block then chunks (cur :: acc) [ x ] 1 rest else chunks acc (x :: cur) (n + 1) rest
  in
  median (List.map (fun c -> percentile (sorted c) p) (chunks [] [] 0 (List.rev newest_first)))

let ratio a b = if b = 0. then 0. else a /. b

(* ---------- failure accounting ---------- *)

let attempted = ref 0
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      if !failed <= 10 then prerr_endline ("perfbench: FAILED: " ^ msg))
    fmt

(* Formats the message only when the check fails. *)
let check cond fmt = if cond then Printf.ikfprintf (fun () -> ()) () fmt else fail fmt

(* ---------- inputs ---------- *)

(* Payload [i] of [size] bytes: a header naming it plus a slice of a
   seeded pool, so a reader can regenerate the expected content cheaply
   instead of the benchmark holding every record twice. *)
type payloads = { pool : string }

let payloads rng = { pool = String.init 65536 (fun _ -> Char.chr (Random.State.int rng 256)) }

let payload p i size =
  let head = Printf.sprintf "%08d|" i in
  let body = size - String.length head in
  head ^ String.sub p.pool (i * 7919 mod (String.length p.pool - body)) body

(* ---------- tracing ---------- *)

(* One span per call into a layer, kept in memory until the run ends.
   Real time is raw ns (scaled by the window's factor at report time),
   [dv] holds the deltas of the virtual ledgers (SCPU, host, disk, net)
   and [words] the minor words allocated. *)
type span = {
  name : string;
  op : int;
  id : int;
  parent : int;  (** 0 for an operation's root span *)
  win : int;
  t0 : int64;
  t1 : int64;
  dv : float array;
  words : float;
}

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let cur_op = ref 0
let stack : int list ref = ref []
let ledgers : (unit -> float array) ref = ref (fun () -> [| 0.; 0.; 0.; 0. |])

let record name f =
  incr next_id;
  let id = !next_id in
  let parent = match !stack with p :: _ -> p | [] -> 0 in
  stack := id :: !stack;
  let l0 = !ledgers () in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let finish () =
    let t1 = now () in
    let words = Gc.minor_words () -. w0 in
    let l1 = !ledgers () in
    stack := List.tl !stack;
    spans :=
      { name; op = !cur_op; id; parent; win = !window_no; t0; t1; dv = Array.mapi (fun i x -> x -. l0.(i)) l1; words }
      :: !spans
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let span name f = if !tracing then record name f else f ()

(* An operation's root span: starts a new operation id. *)
let op name f =
  if !tracing then begin
    incr cur_op;
    record name f
  end
  else f ()

(* ---------- output ---------- *)

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b
