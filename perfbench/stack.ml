(* The stack under test, assembled from the layers' public functions,
   plus the measurements every workload shares. *)

open Worm_core
module H = Harness
module Rsa = Worm_crypto.Rsa
module Drbg = Worm_crypto.Drbg
module Clock = Worm_simclock.Clock
module Device = Worm_scpu.Device
module Disk = Worm_simdisk.Disk
module Message = Worm_proto.Message
module Server = Worm_proto.Server
module Netsim = Worm_proto.Netsim

let f64 = Int64.to_float

(* Metrics a workload reports: (name, unit, value). *)
type metric = string * string * float

(* Keys come from fixed seeds, not from the workload seed: key
   generation's cost depends on where the prime search starts, and
   set-up time should measure the same work on every seed. *)
let make_ca () = Rsa.generate (Drbg.create ~seed:"perfbench-ca") ~bits:1024

(* The repository's own sign + hash, timed beside the frozen kernel from
   here on; one calibration point now gives the first timed window a
   library-kernel time before it. *)
let use_lib_kernel ca =
  let msg = "perfbench calibration tracking" in
  H.lib_kernel :=
    Some
      (fun () ->
        ignore (Rsa.sign ca msg : string);
        ignore (Worm_crypto.Sha256.digest Calib.hash_input : string));
  H.cal_point ()

(* ---------- a single store behind the wire ---------- *)

type single = { ca : Rsa.secret; clock : Clock.t; device : Device.t; store : Worm.t; server : Server.t; net : Netsim.t }

let provision ~ca ~clock ~name = Device.provision ~seed:name ~clock ~ca ~config:Device.default_config ~name ()

let single ~ca ~clock ~device ~config =
  let store =
    Worm.create ~config ~disk:(Disk.create ~latency:Disk.fast_latency ()) ~device ~ca:(Rsa.public_of ca) ()
  in
  { ca; clock; device; store; server = Server.create store; net = Netsim.create () }

let ledgers s () =
  [|
    f64 (Device.busy_ns s.device);
    f64 (Worm.host_busy_ns s.store);
    f64 (Disk.busy_ns (Worm.disk s.store));
    f64 (Netsim.elapsed_ns s.net);
  |]

(* The server side of a traced request: the same calls, in the same
   order, as [Server.handle_bytes] — decode, refresh, dispatch, encode —
   with a span around each layer call. A [Read] is dispatched the way
   [Server.handle] does it, through [Worm.read], so the store's share
   shows on its own. *)
let traced_serve server bytes =
  match H.span "codec.decode_request" (fun () -> Message.decode_request bytes) with
  | Error e -> Message.encode_response (Message.Protocol_error e)
  | Ok request -> (
      match
        H.span "server.refresh" (fun () -> Server.refresh server);
        let response =
          match request with
          | Message.Read sn ->
              H.span "worm.read" (fun () -> Message.Read_reply { sn; response = Worm.read (Server.store server) sn })
          | request -> H.span "server.dispatch" (fun () -> Server.handle server request)
        in
        H.span "server.encode_response" (fun () -> Server.encode_response server response)
      with
      | reply -> reply
      | exception exn -> Message.encode_response (Message.Protocol_error ("dispatch failed: " ^ Printexc.to_string exn)))

(* Untraced requests go through the server's own dispatcher; only a
   traced window takes the span-instrumented copy, so the overhead
   blocks compare the real path with the traced one. *)
let wire s =
  Netsim.wrap s.net (fun bytes -> if !H.tracing then traced_serve s.server bytes else Server.handle_bytes s.server bytes)

let exchange s request =
  let bytes = H.span "codec.encode_request" (fun () -> Message.encode_request request) in
  let reply = H.span "net.exchange" (fun () -> wire s bytes) in
  H.span "codec.decode_response" (fun () -> Message.decode_response reply)

(* Fetch and CA-validate the store's certificates, as a remote client. *)
let connect s =
  match exchange s Message.Hello with
  | Ok (Message.Hello_ack { store_id; signing_cert; deletion_cert }) -> (
      match
        Client.connect ~ca:(Rsa.public_of s.ca) ~clock:s.clock ~signing_cert ~deletion_cert ~store_id ()
      with
      | Ok c -> c
      | Error e -> failwith ("connect: " ^ e))
  | Ok r -> failwith ("connect: " ^ Message.describe_response r)
  | Error e -> failwith ("connect: " ^ e)

type kind = Found | Deleted | Window | Below_base | Unallocated | Other

let kind_of = function
  | Proof.Found _ -> Found
  | Proof.Proof_deleted _ -> Deleted
  | Proof.Proof_in_window _ -> Window
  | Proof.Proof_below_base _ -> Below_base
  | Proof.Proof_unallocated _ -> Unallocated
  | Proof.Erased _ | Proof.Refused _ -> Other

let kind_name = function
  | Found -> "found"
  | Deleted -> "deleted"
  | Window -> "window"
  | Below_base -> "below_base"
  | Unallocated -> "unallocated"
  | Other -> "other"

let verify_spans = List.map (fun k -> (k, "client.verify." ^ kind_name k)) [ Found; Deleted; Window; Below_base; Unallocated; Other ]

(* One verified read: request encode, wire, server, reply decode and
   the client's CA-rooted verification. *)
let read s client sn =
  H.op "op.read" (fun () ->
      match exchange s (Message.Read sn) with
      | Ok (Message.Read_reply { sn = sn'; response }) when Serial.equal sn sn' ->
          let k = kind_of response in
          Ok (k, H.span (List.assoc k verify_spans) (fun () -> Client.verify_read client ~sn response))
      | Ok r -> Error (Message.describe_response r)
      | Error e -> Error e)

let write s ~policy ~blocks =
  H.op "op.write" (fun () ->
      match exchange s (Message.Write { policy; tenant = ""; blocks }) with
      | Ok (Message.Write_ack { sn }) -> Ok sn
      | Ok r -> Error (Message.describe_response r)
      | Error e -> Error e)

(* Check a verdict against what the workload wrote: [blocks] is the
   payload a found record must carry, [kinds] the proofs acceptable for
   an absent one. *)
let check_read ~label ~sn ?blocks ~kinds (k, verdict) =
  incr H.attempted;
  match (verdict, blocks) with
  | Client.Valid_data { blocks = got; _ }, Some want when k = Found ->
      H.check (String.equal (String.concat "" got) want) "%s %d: content mismatch" label sn
  | (Client.Properly_deleted | Client.Never_written), None when List.mem k kinds -> (
      match (verdict, k) with
      | Client.Never_written, Unallocated | Client.Properly_deleted, (Deleted | Window | Below_base) -> ()
      | _ -> H.fail "%s %d: %s proof with verdict %s" label sn (kind_name k) (Client.verdict_name verdict))
  | v, _ ->
      H.fail "%s %d: %s proof, verdict %s (expected %s)" label sn (kind_name k) (Client.verdict_name v)
        (match blocks with Some _ -> "found" | None -> String.concat "|" (List.map kind_name kinds))

(* ---------- shared measurements ---------- *)

(* Set up [setup_reps] times, each as calibrated windows of its own; the
   run goes on with the last set-up. *)
let setup_reps = 3

let set_up f =
  let setups = List.init setup_reps (fun _ -> H.clock ()) in
  (setups, Option.get (List.fold_left (fun _ acc -> Some (f acc)) None setups))

(* Counters read just before and just after the timed phase. *)
type counters = {
  led : float array;  (** SCPU, host, disk and net ledgers, ns *)
  signs : int;
  sign_calls : int;
  hash_bytes : int;
  memo : Server.memo_stats;
  net_bytes : int;
  gc : Gc.stat;
}

let counters ~ledgers ~devices ~net =
  let sum f = List.fold_left (fun acc d -> acc + f (Device.stats d)) 0 devices in
  {
    led = ledgers ();
    signs = sum (fun s -> s.Device.strong_signs + s.Device.weak_signs + s.Device.deletion_signs);
    sign_calls = sum (fun s -> s.Device.sign_calls);
    hash_bytes = sum (fun s -> s.Device.hash_bytes);
    memo = Server.global_memo_stats ();
    net_bytes = Netsim.bytes_transferred net;
    gc = Gc.quick_stat ();
  }

(* Metrics every workload derives from its counters. [busiest_ns] is the
   busiest ledger's share of the phase, per shard on a cluster; by
   default the busiest of the SCPU, host and disk ledgers. *)
let counter_metrics ~(timed : H.clock) ~ops ?busiest_ns c0 c1 : metric list =
  let d i = c1.led.(i) -. c0.led.(i) in
  let fops = float ops in
  let per x = x /. fops in
  let busiest = Option.value busiest_ns ~default:(Float.max (d 0) (Float.max (d 1) (d 2))) in
  let hits = float (c1.memo.Server.memo_hits - c0.memo.Server.memo_hits)
  and misses = float (c1.memo.Server.memo_misses - c0.memo.Server.memo_misses) in
  [
    (* Figure 1's formula: operations over the busiest ledger *)
    ("virt_ops_per_s", "1/s", H.ratio fops (busiest /. 1e9));
    ("ops", "count", fops);
    ("scpu.signs_per_op", "count", per (float (c1.signs - c0.signs)));
    ("scpu.sign_calls_per_op", "count", per (float (c1.sign_calls - c0.sign_calls)));
    ("scpu.virt_busy_us_per_op", "us", per (d 0) /. 1000.);
    ("scpu.hash_bytes_per_op", "bytes", per (float (c1.hash_bytes - c0.hash_bytes)));
    ("server.memo_hit_ratio", "ratio", H.ratio hits (hits +. misses));
    ("net.bytes_per_op", "bytes", per (float (c1.net_bytes - c0.net_bytes)));
    ("net.virt_us_per_op", "us", per (d 3) /. 1000.);
    ("worm.host_virt_us_per_op", "us", per (d 1) /. 1000.);
    ("disk.virt_busy_us_per_op", "us", per (d 2) /. 1000.);
    (* real host time per operation over the cost model's *)
    ("model.host_ratio", "ratio", H.ratio (per (H.cal_ns timed)) (per (d 1)));
    ("gc.minor_words_per_op", "words", per (c1.gc.Gc.minor_words -. c0.gc.Gc.minor_words));
    ("gc.promoted_words_per_op", "words", per (c1.gc.Gc.promoted_words -. c0.gc.Gc.promoted_words));
    ("gc.major_collections_per_kop", "count", per (float (c1.gc.Gc.major_collections - c0.gc.Gc.major_collections)) *. 1000.);
  ]

let memo_hit_ratio caches : metric =
  let hits, misses =
    List.fold_left
      (fun (h, m) c ->
        match c with
        | Some c -> (h + c.Client.cache_hits, m + c.Client.cache_misses)
        | None -> (h, m))
      (0, 0) caches
  in
  ("client.memo_hit_ratio", "ratio", H.ratio (float hits) (float (hits + misses)))

(* Footprint at the end of the run: the live heap after a full major
   collection, and disk plus VRDT bytes against the payload written.
   Call it after the latency series are dropped, so the heap holds the
   stack and, of the benchmark's own data, only its fixed inputs and
   per-record expectations. *)
let store_metrics stores ~payload_bytes : metric list =
  Gc.full_major ();
  let heap = float (Gc.stat ()).Gc.live_words *. float (Sys.word_size / 8) /. 1048576. in
  let sum f = List.fold_left (fun acc w -> acc +. float (f w)) 0. stores in
  let vrdt = sum Worm.vrdt_bytes in
  [
    ("live_heap_mb", "MiB", heap);
    ("bytes_per_user_byte", "ratio", (sum (fun w -> Disk.bytes_stored (Worm.disk w)) +. vrdt) /. float payload_bytes);
    ( "worm.vrdt_bytes_per_record",
      "bytes",
      vrdt /. sum (fun w -> let m = Worm.metrics w in m.Worm.m_active + m.Worm.m_deleted_entries) );
  ]

let pct a p = H.percentile (H.sorted a) p

(* Read-latency, throughput, calibration and setup metrics every
   workload reports. [setups] holds one clock per set-up repetition. *)
let timing_metrics ~(timed : H.clock) ~ops ~(setups : H.clock list) ~(reads : H.series) : metric list =
  let us x = x /. 1000. in
  let secs f = String.concat "," (List.map (fun c -> Printf.sprintf "%.4f" (f c /. 1e9)) setups) in
  Printf.printf "# set-up repetitions: calibrated_s=[%s] raw_s=[%s]\n" (secs H.cal_ns) (secs H.raw_ns);
  let ops_per cal = float ops /. (cal /. 1e9) in
  [
    ("setup_s", "s", H.median (List.map (fun c -> H.cal_ns c) setups) /. 1e9);
    ("ops_per_s", "1/s", ops_per (H.cal_ns timed));
    ("read_p50_us", "us", us (pct (H.scaled reads) 0.5));
    ("read_p99_us", "us", us (H.block_percentile (H.scaled reads) 0.99));
    ("wall.ops_per_s", "1/s", ops_per (H.raw_ns timed));
    ("wall.read_p50_us", "us", us (pct (H.raw reads) 0.5));
    ("wall.read_p99_us", "us", us (H.block_percentile (H.raw reads) 0.99));
    ("wall.cal_ms", "ms", H.median !H.cal_samples /. 1e6);
    ("wall.setup_s", "s", H.median (List.map H.raw_ns setups) /. 1e9);
    ("read.samples", "count", float (List.length reads.H.samples));
    ("lib.ops_per_unit", "1/unit", H.ratio (float ops) (H.lib_units timed));
  ]

(* ---------- the timed phase ---------- *)

(* In a traced run, tracing is on for every other block of four
   windows, so the untraced blocks between them measure the tracing
   overhead on the same run (blocks of four keep periodic background work
   evenly split between the two). *)
type phase = { all : H.clock; traced : H.clock; plain : H.clock; mutable ops_traced : int; mutable ops_plain : int }

let phase () = { all = H.clock (); traced = H.clock (); plain = H.clock (); ops_traced = 0; ops_plain = 0 }

let add (a : H.clock) (b : H.clock) = a.H.ids <- b.H.ids @ a.H.ids

(* Run window [w]; [f] returns the operations it completed. *)
let timed_window ph ~trace w f =
  let on = trace && w / 4 mod 2 = 1 in
  H.tracing := on;
  let c = H.clock () in
  let ops = H.window c f in
  H.tracing := false;
  add ph.all c;
  if on then begin
    add ph.traced c;
    ph.ops_traced <- ph.ops_traced + ops
  end
  else begin
    add ph.plain c;
    ph.ops_plain <- ph.ops_plain + ops
  end;
  ops

(* Metrics only a traced run has. *)
let trace_metrics ph (r : Report.t) : metric list =
  let per (c : H.clock) ops = H.ratio (H.cal_ns c) (float ops) in
  ("trace.overhead_pct", "%", 100. *. (H.ratio (per ph.traced ph.ops_traced) (per ph.plain ph.ops_plain) -. 1.))
  :: ("trace.coverage_pct", "%", List.fold_left (fun acc (_, c) -> Float.min acc c) 100. r.Report.coverage)
  :: ("trace.spans", "count", float r.Report.spans)
  :: List.map
       (fun k ->
         let name = "client.verify." ^ kind_name k in
         ("client.verify_us." ^ kind_name k, "us", Report.mean_us r [ name ]))
       [ Found; Deleted; Window; Below_base; Unallocated ]
  @ [
      ("codec.encode_us", "us", Report.mean_us r [ "codec.encode_request"; "server.encode_response" ]);
      ("codec.decode_us", "us", Report.mean_us r [ "codec.decode_request"; "codec.decode_response" ]);
      ("server.refresh_us", "us", Report.mean_us r [ "server.refresh" ]);
      ("server.dispatch_us", "us", Report.mean_us r [ "server.dispatch" ]);
      ("worm.read_us", "us", Report.mean_us r [ "worm.read" ]);
    ]
