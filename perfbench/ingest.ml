(* Workload [ingest]: many writers ingesting ~4 KiB records with
   [Strong_now] witnesses into a 2-shard unmirrored cluster, one
   batching [Event_server] per shard. Writers are virtual clients on an
   open-loop arrival schedule below the shards' modelled capacity. Every
   acked write is read back through [Cluster_server.handle_bytes] and
   checked with [Shard_router.verify_read]; each window ends with an
   aggregated freshness proof checked by [Cluster_proof.verify]. *)

open Worm_core
module H = Harness
module S = Stack
module Clock = Worm_simclock.Clock
module Device = Worm_scpu.Device
module Disk = Worm_simdisk.Disk
module Rsa = Worm_crypto.Rsa
module Message = Worm_proto.Message
module Netsim = Worm_proto.Netsim
module Event_server = Worm_proto.Event_server
module Cluster_server = Worm_proto.Cluster_server
module Router = Worm_cluster.Shard_router
module Cluster_proof = Worm_cluster.Cluster_proof

let shards = 2
let writes_per_window = 24
(* Records are 4 KiB less up to 96 bytes, drawn per record from the
   seed, so the storage overhead differs a little from seed to seed. *)
let record_bytes ~seed i = 4096 - (Hashtbl.hash (seed, i) mod 97)

(* Per-shard arrival rate, records per virtual second: below the
   modelled capacity of one IBM 4764 signing two 1024-bit witnesses per
   record. *)
let rate_per_shard = 200.

let policy = Policy.custom ~name:"perfbench-long" ~retention_ns:(Clock.ns_of_years 7.) ~shred_passes:1

type state = {
  ca : Rsa.secret;
  clock : Clock.t;
  router : Router.t;
  front : Cluster_server.t;
  loops : Event_server.t array;
  net : Netsim.t;
  verifiers : Client.t option array;
  pay : H.payloads;
}

let setup acc ~seed =
  let rng = Random.State.make [| seed; 0x1a9e57 |] in
  let pay = H.payloads rng in
  let ca = H.window acc (fun () -> S.make_ca ()) in
  let clock = Clock.create () in
  let config =
    {
      Router.default_config with
      Router.shards;
      mirrored = false;
      store_config = { Worm.default_config with Worm.default_witness = Firmware.Strong_now };
      device_config = Device.default_config;
      disk_latency = Disk.fast_latency;
    }
  in
  let router = H.window acc (fun () -> Router.create ~config ~seed:"perfbench-ingest" ~ca ~clock ()) in
  H.window acc (fun () ->
      let front = Cluster_server.create router in
      let net = Netsim.create () in
      let es_config = { Event_server.default_config with Event_server.witness = Event_server.Fixed Firmware.Strong_now } in
      let loops =
        Array.init shards (fun s ->
            match Cluster_server.shard_server front s with
            | Some srv -> Event_server.create ~config:es_config ~clock ~net srv
            | None -> failwith "ingest setup: shard fenced")
      in
      (match
         Message.decode_response (Netsim.wrap net (Cluster_server.handle_bytes front) (Message.encode_request Message.Cluster_hello))
       with
      | Ok (Message.Cluster_hello_ack { n_shards; _ }) -> H.check (n_shards = shards) "ingest setup: %d shards" n_shards
      | Ok r -> H.fail "ingest setup: hello: %s" (Message.describe_response r)
      | Error e -> H.fail "ingest setup: hello: %s" e);
      { ca; clock; router; front; loops; net; verifiers = Router.verifiers router; pay })

let stores st = List.init shards (fun s -> Option.get (Router.serving_store st.router s))
let devices st = List.map (fun w -> Firmware.device (Worm.firmware w)) (stores st)

let ledgers st () =
  let sum f = List.fold_left (fun acc w -> acc +. f w) 0. (stores st) in
  [|
    sum (fun w -> S.f64 (Device.busy_ns (Firmware.device (Worm.firmware w))));
    sum (fun w -> S.f64 (Worm.host_busy_ns w));
    sum (fun w -> S.f64 (Disk.busy_ns (Worm.disk w)));
    S.f64 (Netsim.elapsed_ns st.net);
  |]

(* Per shard, the busiest of its SCPU, host and disk ledgers. *)
let busiest st =
  List.map
    (fun (m : Router.shard_metrics) ->
      S.f64 (Int64.max m.Router.sm_scpu_busy_ns (Int64.max m.Router.sm_host_busy_ns m.Router.sm_disk_busy_ns)))
    (Router.metrics st.router)

let run ~seed ~windows ~trace : S.metric list =
  let setups, st = S.set_up (setup ~seed) in
  S.use_lib_kernel st.ca;
  H.ledgers := ledgers st;
  let rng = Random.State.make [| seed; 0x1a9e58 |] in
  let reads = H.series () in
  let virt_writes = ref [] in
  let ph = S.phase () in
  let strong () = List.fold_left (fun acc d -> acc + (Device.stats d).Device.strong_signs) 0 (devices st) in
  let counters () = S.counters ~ledgers:(ledgers st) ~devices:(devices st) ~net:st.net in
  let busy0 = busiest st in
  let c0 = counters () in
  let acked = ref 0 and payload_bytes = ref 0 and refresh_signs = ref 0 and traced_writes = ref 0 in
  let wire = Netsim.wrap st.net (Cluster_server.handle_bytes st.front) in
  let gap = 1e9 /. rate_per_shard in
  let ops = ref 0 in
  for w = 0 to windows - 1 do
    let first = w * writes_per_window in
    let start = Int64.add (Clock.now st.clock) (Clock.ns_of_ms 1.) in
    let at = Array.init writes_per_window (fun k -> Int64.add start (Int64.of_float ((float (k / shards) +. Random.State.float rng 0.5) *. gap))) in
    let acks = Array.make writes_per_window 0 in
    let window () =
      H.op "op.ingest_batch" (fun () ->
          H.span "event.submit" (fun () ->
              for k = 0 to writes_per_window - 1 do
                let i = first + k in
                let shard = i mod shards in
                Event_server.submit st.loops.(shard) ~client:i ~at:at.(k)
                  ~on_reply:(fun (c : Event_server.completion) ->
                    virt_writes := S.f64 (Int64.sub c.Event_server.delivered_ns c.Event_server.submitted_ns) :: !virt_writes;
                    match c.Event_server.outcome with
                    | Event_server.Replied (Message.Write_ack { sn }) ->
                        acks.(k) <- Serial.to_int (Router.register_ack st.router ~shard ~local:sn)
                    | Event_server.Replied r -> H.fail "ingest write %d: %s" i (Message.describe_response r)
                    | Event_server.Gave_up -> H.fail "ingest write %d: gave up" i)
                  (Message.Write { policy; tenant = ""; blocks = [ H.payload st.pay (i + 1) (record_bytes ~seed i) ] })
              done);
          Array.iter (fun loop -> H.span "event.run" (fun () -> Event_server.run loop)) st.loops);
      if !H.tracing then traced_writes := !traced_writes + writes_per_window;
      let ok = ref 0 in
      Array.iteri
        (fun k g ->
          incr H.attempted;
          let i = first + k in
          if g <> i + 1 then H.fail "ingest write %d: acked as global %d" i g
          else begin
            incr acked;
            incr ok;
            payload_bytes := !payload_bytes + record_bytes ~seed i;
            let s0 = strong () in
            let t0 = H.now () in
            let r =
              H.op "op.read" (fun () ->
                  let req = H.span "codec.encode_request" (fun () -> Message.encode_request (Message.Cluster_read (Serial.of_int g))) in
                  let reply = H.span "cluster.read" (fun () -> wire req) in
                  match H.span "codec.decode_response" (fun () -> Message.decode_response reply) with
                  | Ok (Message.Cluster_read_reply { sn; shard; response }) when Serial.to_int sn = g ->
                      Ok
                        ( S.kind_of response,
                          H.span "cluster.verify" (fun () -> Router.verify_read st.router st.verifiers sn (shard, response)) )
                  | Ok r -> Error (Message.describe_response r)
                  | Error e -> Error e)
            in
            H.sample reads (H.since t0);
            refresh_signs := !refresh_signs + strong () - s0;
            match r with
            | Error e -> H.fail "ingest read %d: %s" g e
            | Ok v ->
                incr ok;
                S.check_read ~label:"ingest read" ~sn:g ~blocks:(H.payload st.pay (i + 1) (record_bytes ~seed i)) ~kinds:[] v
          end)
        acks;
      incr H.attempted;
      H.op "op.proof" (fun () ->
          match H.span "cluster.proof" (fun () -> Router.freshness_proof st.router) with
          | Error e -> H.fail "ingest proof: %s" e
          | Ok p -> (
              (match
                 H.span "cluster.proof_verify" (fun () ->
                     Cluster_proof.verify ~ca:(Rsa.public_of st.ca) ~now:(Clock.now st.clock) p)
               with
              | Ok () -> ()
              | Error e -> H.fail "ingest proof: %s" e);
              match Cluster_proof.global_current p with
              | Ok g -> H.check (Serial.to_int g = !acked) "ingest proof: global current %d, acked %d" (Serial.to_int g) !acked
              | Error e -> H.fail "ingest proof: %s" e));
      !ok
    in
    ops := !ops + S.timed_window ph ~trace w window
  done;
  let ops = !ops in
  let c1 = counters () in
  let busy = List.map2 ( -. ) (busiest st) busy0 in
  let es = Array.map Event_server.stats st.loops in
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 es in
  let completions = Array.fold_left (fun acc l -> acc + List.length (Event_server.completions l)) 0 st.loops in
  let wire_words = Array.fold_left (fun acc l -> acc +. Event_server.wire_minor_words l) 0. st.loops in
  let writes = float !acked in
  let timing =
    S.timing_metrics ~timed:ph.S.all ~ops ~setups ~reads
    @ [
        ("virt_write_p50_ms", "ms", S.pct !virt_writes 0.5 /. 1e6);
        ("virt_write_p99_ms", "ms", S.pct !virt_writes 0.99 /. 1e6);
      ]
  in
  H.drop reads;
  virt_writes := [];
  let store = S.store_metrics (stores st) ~payload_bytes:!payload_bytes in
  timing
  @ S.counter_metrics ~timed:ph.S.all ~ops ~busiest_ns:(List.fold_left Float.max 0. busy) c0 c1
  @ store
  @ [
      S.memo_hit_ratio (List.map (fun v -> Option.bind v Client.verify_cache_stats) (Array.to_list st.verifiers));
      ("server.refresh_signs_per_read", "count", H.ratio (float !refresh_signs) writes);
      ("event.writes_per_flush", "count", H.ratio (float (sum (fun s -> s.Event_server.batched_writes))) (float (sum (fun s -> s.Event_server.flushes))));
      ("event.shed_ratio", "ratio", H.ratio (float (sum (fun s -> s.Event_server.shed))) writes);
      ("event.wire_minor_words_per_op", "words", H.ratio wire_words (float completions));
      ( "cluster.shard_imbalance",
        "ratio",
        H.ratio (List.fold_left Float.max 0. busy) (List.fold_left Float.min Float.infinity busy) );
    ]
  @
  if trace then begin
    let r = Report.analyse () in
    Report.print_table r;
    S.trace_metrics ph r
    @ [
        ("event.run_us_per_op", "us", H.ratio (Report.total_us r "event.run") (float !traced_writes));
        ("cluster.read_us", "us", Report.mean_us r [ "cluster.read" ]);
        ("cluster.verify_us", "us", Report.mean_us r [ "cluster.verify" ]);
        ("cluster.proof_us", "us", Report.mean_us r [ "cluster.proof" ]);
        ("cluster.proof_verify_us", "us", Report.mean_us r [ "cluster.proof_verify" ]);
      ]
  end
  else []
