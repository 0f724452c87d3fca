module Device = Worm_scpu.Device
module Cost_model = Worm_scpu.Cost_model
module Clock = Worm_simclock.Clock
module Disk = Worm_simdisk.Disk
module Drbg = Worm_crypto.Drbg
module Rsa = Worm_crypto.Rsa
open Worm_core

type mode = { label : string; witness : Firmware.witness_mode; datasig : Worm.datasig_mode }

let mode_strong_scpu_hash = { label = "strong-1024/scpu-hash"; witness = Firmware.Strong_now; datasig = Worm.Scpu_hashes }
let mode_strong_host_hash = { label = "strong-1024/host-hash"; witness = Firmware.Strong_now; datasig = Worm.Host_hash }
let mode_weak_scpu_hash = { label = "deferred-512/scpu-hash"; witness = Firmware.Weak_deferred; datasig = Worm.Scpu_hashes }
let mode_weak_host_hash = { label = "deferred-512/host-hash"; witness = Firmware.Weak_deferred; datasig = Worm.Host_hash }
let mode_mac_host_hash = { label = "hmac/host-hash"; witness = Firmware.Mac_deferred; datasig = Worm.Host_hash }

let all_modes =
  [ mode_strong_scpu_hash; mode_strong_host_hash; mode_weak_scpu_hash; mode_weak_host_hash; mode_mac_host_hash ]

type env = { ca : Rsa.secret; dev : Device.t; clk : Clock.t; rng : Drbg.t }

let make_env ?(profile = Cost_model.ibm_4764) ?(strong_bits = 1024) ?(weak_bits = 512) ~seed () =
  let rng = Drbg.create ~seed:("sim-env|" ^ seed) in
  let ca = Rsa.generate rng ~bits:1024 in
  let clk = Clock.create () in
  let config = { Device.default_config with strong_bits; weak_bits; profile } in
  let dev = Device.provision ~seed ~clock:clk ~ca ~config ~name:"sim-scpu" () in
  { ca; dev; clk; rng }

let sec ns = Int64.to_float ns /. 1e9
let rate n s = if s <= 0. then infinity else float_of_int n /. s

(* The saturated resource of a pipeline stage's three busy ledgers. *)
let bottleneck_of ~scpu_s ~host_s ~disk_s =
  let slowest = max scpu_s (max host_s disk_s) in
  (slowest, if slowest = scpu_s then "scpu" else if slowest = host_s then "host" else "disk")

let run_write_burst env ~mode ~record_bytes ~records ?(disk_latency = Disk.fast_latency) () =
  let disk = Disk.create ~latency:disk_latency () in
  let config =
    { Worm.default_config with datasig_mode = mode.datasig; default_witness = mode.witness }
  in
  let store = Worm.create ~config ~disk ~device:env.dev ~ca:(Rsa.public_of env.ca) () in
  let policy = Policy.of_regulation Policy.Sec17a4 in
  let payloads = List.init records (fun _ -> Worm_workload.Workload.record env.rng ~bytes:record_bytes) in
  Device.reset_busy env.dev;
  Worm.reset_host_busy store;
  Disk.reset_busy disk;
  List.iter (fun blocks -> ignore (Worm.write store ~policy ~blocks)) payloads;
  let scpu_s = sec (Device.busy_ns env.dev) in
  let host_s = sec (Worm.host_busy_ns store) in
  let disk_s = sec (Disk.busy_ns disk) in
  (* Idle period: advance the clock a little and drain the deferred work
     well inside the weak constructs' security lifetime. *)
  Device.reset_busy env.dev;
  Clock.advance env.clk (Clock.ns_of_sec 1.);
  Worm.idle_tick store;
  let idle_scpu_s = sec (Device.busy_ns env.dev) in
  let deferred_after_idle = List.length (Worm.deferred_backlog store) in
  let slowest, bottleneck = bottleneck_of ~scpu_s ~host_s ~disk_s in
  Row.
    [
      ("label", Str mode.label);
      ("record_bytes", Int record_bytes);
      ("records", Int records);
      ("rps", Float (rate records slowest));
      ("bottleneck", Str bottleneck);
      ("scpu_s", Float scpu_s);
      ("host_s", Float host_s);
      ("disk_s", Float disk_s);
      ("idle_scpu_s", Float idle_scpu_s);
      ("deferred_after_idle", Int deferred_after_idle);
    ]

let figure1 env ?(records = 24) () =
  List.concat_map
    (fun mode ->
      List.map
        (fun record_bytes -> run_write_burst env ~mode ~record_bytes ~records ())
        Worm_workload.Workload.figure1_sizes)
    all_modes

(* Figure 1 re-projected onto a profile calibrated from rates measured
   on the running host (Cost_model.of_measurements): what THIS machine
   would sustain as the SCPU, next to the paper's 2008 hardware. *)
let local_figure1 ~profile ?(records = 24) ?sizes ~seed () =
  let env = make_env ~profile ~seed () in
  let sizes = Option.value sizes ~default:Worm_workload.Workload.figure1_sizes in
  List.concat_map
    (fun mode -> List.map (fun record_bytes -> run_write_burst env ~mode ~record_bytes ~records ()) sizes)
    all_modes

(* The read-path counterpart of local_figure1: project verified-read
   throughput from this host's measured primitive rates. Reads never
   involve the SCPU (§4.1), so the whole budget is host-side public-key
   verification plus data hashing; the cached column amortizes the
   epoch-stable signatures (bounds, windows, deletion proofs) that the
   client's verify memo pays once per epoch instead of once per read.
   Per-record witnesses are never cached, so found-record rows don't
   move. *)
let read_projection ~verify_per_sec ~hash_bytes_per_sec ?sizes ?(epoch_reads = 1024) () =
  let sizes = Option.value sizes ~default:Worm_workload.Workload.figure1_sizes in
  let tv = 1. /. verify_per_sec in
  let row kind ~bytes ~sigs ~stable =
    let hash_s = float_of_int bytes /. hash_bytes_per_sec in
    let uncached_s = hash_s +. (sigs *. tv) in
    let cached_s =
      if stable then hash_s +. (sigs *. tv /. float_of_int (max 1 epoch_reads)) else uncached_s
    in
    Row.
      [
        ("kind", Str kind);
        ("record_bytes", Int bytes);
        ("sig_verifies", Float sigs);
        ("uncached_rps", Float (rate 1 uncached_s));
        ("cached_rps", Float (rate 1 cached_s));
      ]
  in
  List.map
    (fun bytes ->
      (* metasig + datasig, both per-record and therefore uncacheable *)
      row (Printf.sprintf "found-%dKB" (bytes / 1024)) ~bytes ~sigs:2. ~stable:false)
    sizes
  @ [
      row "deleted" ~bytes:0 ~sigs:1. ~stable:true;
      row "deletion-window" ~bytes:0 ~sigs:2. ~stable:true;
      row "below-base" ~bytes:0 ~sigs:1. ~stable:true;
      row "above-current" ~bytes:0 ~sigs:1. ~stable:true;
    ]

let io_bottleneck env ?(records = 24) ~record_bytes () =
  let seeks_ms = [ 0.0; 0.5; 1.0; 2.0; 3.5; 5.0; 8.0 ] in
  List.map
    (fun seek_ms ->
      let disk_latency = { Disk.seek_ns = Clock.ns_of_ms seek_ms; bytes_per_sec = 100e6 } in
      let burst = run_write_burst env ~mode:mode_strong_scpu_hash ~record_bytes ~records ~disk_latency () in
      Row.[ ("seek_ms", Float seek_ms); ("row", Row burst) ])
    seeks_ms

let window_vs_merkle env ~ns =
  List.map
    (fun n ->
      (* Window scheme: per-update SCPU cost is independent of store
         size, so a sample of inserts suffices. *)
      let sample = min n 64 in
      let disk = Disk.create ~latency:Disk.zero_latency () in
      let store = Worm.create ~disk ~device:env.dev ~ca:(Rsa.public_of env.ca) () in
      let policy = Policy.of_regulation Policy.Sec17a4 in
      Device.reset_busy env.dev;
      for _ = 1 to sample do
        ignore (Worm.write store ~policy ~blocks:[ "x" ])
      done;
      let window_us = sec (Device.busy_ns env.dev) *. 1e6 /. float_of_int sample in
      (* Merkle baseline: populate to n (bulk, uncharged), then measure
         appends at size n. *)
      let mstore = Worm_baseline.Merkle_store.create ~device:env.dev ~capacity:(n + sample) in
      Worm_baseline.Merkle_store.bulk_load mstore (List.init n (fun _ -> "x"));
      Device.reset_busy env.dev;
      let hashes_before = (Device.stats env.dev).Device.hash_ops in
      for _ = 1 to sample do
        ignore (Worm_baseline.Merkle_store.append mstore "x")
      done;
      let merkle_us = sec (Device.busy_ns env.dev) *. 1e6 /. float_of_int sample in
      let hashes = (Device.stats env.dev).Device.hash_ops - hashes_before in
      Row.
        [
          ("records", Int n);
          ("window_us_per_update", Float window_us);
          ("merkle_us_per_update", Float merkle_us);
          ("merkle_hashes_per_update", Float (float_of_int hashes /. float_of_int sample));
        ])
    ns

let read_mix env ?(ops = 200) ~record_bytes () =
  let fractions = [ 0.0; 0.01; 0.1; 0.25; 0.5; 1.0 ] in
  List.map
    (fun write_fraction ->
      let disk = Disk.create ~latency:Disk.fast_latency () in
      let store = Worm.create ~disk ~device:env.dev ~ca:(Rsa.public_of env.ca) () in
      let policy = Policy.of_regulation Policy.Sec17a4 in
      (* seed a few records so reads have targets *)
      let seeds =
        List.init 8 (fun _ -> Worm.write store ~policy ~blocks:(Worm_workload.Workload.record env.rng ~bytes:record_bytes))
      in
      let trace =
        Worm_workload.Workload.mixed_trace env.rng ~ops ~write_fraction ~record_bytes ~policy
      in
      Device.reset_busy env.dev;
      Worm.reset_host_busy store;
      Disk.reset_busy disk;
      List.iter
        (fun op ->
          match op with
          | Worm_workload.Workload.Write { blocks; policy } -> ignore (Worm.write store ~policy ~blocks)
          | Worm_workload.Workload.Read i -> ignore (Worm.read store (List.nth seeds (i mod List.length seeds))))
        trace;
      let scpu_s = sec (Device.busy_ns env.dev) in
      let host_s = sec (Worm.host_busy_ns store) in
      let disk_s = sec (Disk.busy_ns disk) in
      let slowest, bottleneck = bottleneck_of ~scpu_s ~host_s ~disk_s in
      Row.
        [
          ("write_fraction", Float write_fraction);
          ("ops_per_sec", Float (rate ops slowest));
          ("scpu_us_per_op", Float (scpu_s /. float_of_int ops *. 1e6));
          ("bottleneck", Str bottleneck);
        ])
    fractions

let storage_reduction env ?(records = 400) ?(long_lived_every = 25) () =
  let disk = Disk.create ~latency:Disk.zero_latency () in
  let store = Worm.create ~disk ~device:env.dev ~ca:(Rsa.public_of env.ca) () in
  let short = Policy.custom ~name:"short" ~retention_ns:(Clock.ns_of_sec 100.) ~shred_passes:1 in
  let long = Policy.custom ~name:"long" ~retention_ns:(Clock.ns_of_years 10.) ~shred_passes:1 in
  for i = 1 to records do
    let policy = if i mod long_lived_every = 0 then long else short in
    ignore (Worm.write store ~policy ~blocks:[ Printf.sprintf "record-%d" i ])
  done;
  let snap stage =
    Row.
      [
        ("stage", Str stage);
        ("vrdt_bytes", Int (Worm.vrdt_bytes store));
        ("entries", Int (Vrdt.entry_count (Worm.vrdt store)));
        ("windows", Int (List.length (Worm.deletion_windows store)));
      ]
  in
  let live = snap "all live" in
  Clock.advance env.clk (Clock.ns_of_sec 200.);
  (* drain in waves in case VEXP capacity shed some entries *)
  for _ = 1 to 4 do
    ignore (Worm.expire_due store);
    ignore (Worm.refeed_vexp store)
  done;
  let proofs = snap "expired, per-record proofs" in
  ignore (Worm.compact_windows store);
  let compacted = snap "windows collapsed" in
  [ live; proofs; compacted ]

let burst_sustainability ?(profile = Cost_model.ibm_4764) ?(strong_bits = 1024)
    ?(weak_lifetime_min = 120.) ?(rates = [ 100.; 424.; 848.; 1500.; 2096.; 4000. ]) () =
  let s = Cost_model.rsa_sign_per_sec profile ~bits:strong_bits in
  List.map
    (fun arrival_rps ->
      let debt_per_sec = 2. *. arrival_rps in
      let max_burst_min = weak_lifetime_min *. Float.min 1. (s /. debt_per_sec) in
      Row.[ ("arrival_rps", Float arrival_rps); ("debt_per_sec", Float debt_per_sec); ("max_burst_min", Float max_burst_min) ])
    rates

type day_phase = { label : string; rate_per_sec : float; duration_s : float }

let default_day =
  [
    { label = "opening burst"; rate_per_sec = 2000.; duration_s = 0.25 };
    { label = "steady trading"; rate_per_sec = 100.; duration_s = 2. };
    { label = "lunch trickle"; rate_per_sec = 20.; duration_s = 2. };
    { label = "closing flood"; rate_per_sec = 8000.; duration_s = 0.5 };
  ]

let adaptive_day env ?(phases = default_day) () =
  let config = { Worm.default_config with datasig_mode = Worm.Host_hash } in
  let store = Worm.create ~config ~device:env.dev ~ca:(Rsa.public_of env.ca) () in
  let controller =
    Worm_core.Adaptive.create ~profile:(Device.config env.dev).Device.profile
      ~device_config:(Device.config env.dev) ()
  in
  let policy = Policy.of_regulation Policy.Sec17a4 in
  List.map
    (fun { label; rate_per_sec; duration_s } ->
      let n = max 1 (int_of_float (rate_per_sec *. duration_s)) in
      let strong = ref 0 and weak = ref 0 and mac = ref 0 in
      for _ = 1 to n do
        Clock.advance env.clk (Int64.of_float (1e9 /. rate_per_sec));
        let now = Clock.now env.clk in
        Worm_core.Adaptive.note_write controller ~now;
        let witness =
          Worm_core.Adaptive.recommend controller ~now
            ~deferred_backlog:(List.length (Worm.deferred_backlog store))
        in
        (match witness with
        | Firmware.Strong_now -> incr strong
        | Firmware.Weak_deferred -> incr weak
        | Firmware.Mac_deferred -> incr mac);
        ignore (Worm.write store ~witness ~policy ~blocks:[ "r" ])
      done;
      let overdue_after = List.length (Worm.deferred_overdue store ~now:(Clock.now env.clk)) in
      (* inter-phase quiet spell: drain the debt *)
      Clock.advance env.clk (Clock.ns_of_min 5.);
      Worm.idle_tick store;
      Row.
        [
          ("phase", Str label);
          ("writes", Int n);
          ("strong", Int !strong);
          ("weak", Int !weak);
          ("mac", Int !mac);
          ("overdue_after", Int overdue_after);
        ])
    phases

let table2 ?(profile = Cost_model.ibm_4764) ?(host = Cost_model.host_p4) () =
  let row operation scpu host = Row.[ ("operation", Str operation); ("scpu", Str scpu); ("host", Str host) ] in
  let sig_row bits =
    row
      (Printf.sprintf "RSA sig, %d bits" bits)
      (Printf.sprintf "%.0f/s" (Cost_model.rsa_sign_per_sec profile ~bits))
      (Printf.sprintf "%.0f/s" (Cost_model.rsa_sign_per_sec host ~bits))
  in
  let hash_row block label =
    row
      (Printf.sprintf "SHA-1, %s blocks" label)
      (Printf.sprintf "%.2f MB/s" (Cost_model.hash_mb_per_sec profile ~block_bytes:block))
      (Printf.sprintf "%.1f MB/s" (Cost_model.hash_mb_per_sec host ~block_bytes:block))
  in
  [
    sig_row 512;
    sig_row 1024;
    sig_row 2048;
    hash_row 1024 "1 KB";
    hash_row 65536 "64 KB";
    row "DMA transfer, end-to-end"
      (Printf.sprintf "%.1f MB/s" (profile.Cost_model.dma_bytes_per_sec /. 1e6))
      (Printf.sprintf "%.0f MB/s" (host.Cost_model.dma_bytes_per_sec /. 1e6));
  ]

(* Steady-state cost of continuous compliance scrubbing: write a corpus,
   then complete one full audit pass in budgeted slices and compare the
   sustainable ingest rate with and without amortizing one verification
   pass per record lifetime. *)
let audit_overhead env ?(records = 150) ?(record_bytes = 1024) ?(budgets_ms = [ 0.5; 2.0; 10.0 ]) () =
  List.map
    (fun budget_ms ->
      let disk = Disk.create ~latency:Disk.fast_latency () in
      let store = Worm.create ~disk ~device:env.dev ~ca:(Rsa.public_of env.ca) () in
      let policy = Policy.of_regulation Policy.Sec17a4 in
      let payloads = List.init records (fun _ -> Worm_workload.Workload.record env.rng ~bytes:record_bytes) in
      Device.reset_busy env.dev;
      Worm.reset_host_busy store;
      Disk.reset_busy disk;
      List.iter (fun blocks -> ignore (Worm.write store ~policy ~blocks)) payloads;
      let write_scpu_s = sec (Device.busy_ns env.dev) in
      let write_host_s = sec (Worm.host_busy_ns store) in
      let write_disk_s = sec (Disk.busy_ns disk) in
      let write_slowest = Float.max write_scpu_s (Float.max write_host_s write_disk_s) in
      let client = Client.for_store ~ca:(Rsa.public_of env.ca) ~clock:env.clk store in
      let config =
        {
          Worm_audit.Scrubber.default_config with
          slice_budget_ns = Clock.ns_of_ms budget_ms;
        }
      in
      let scrubber = Worm_audit.Scrubber.create ~config ~store ~client () in
      Worm.reset_host_busy store;
      let report = Worm_audit.Scrubber.run_pass scrubber in
      let scrub_host_s = sec (Worm.host_busy_ns store) in
      let baseline_rps = rate records write_slowest in
      (* Steady state: every record written is also scrubbed once per
         pass, so the ingest pipeline carries both costs. *)
      let with_scrub_slowest = Float.max (write_host_s +. scrub_host_s) (Float.max write_scpu_s write_disk_s) in
      let with_scrub_rps = rate records with_scrub_slowest in
      let { Worm_audit.Report.records_scanned; slices; findings; _ } = report in
      Row.
        [
          ("slice_budget_ms", Float budget_ms);
          ("records_scanned", Int records_scanned);
          ("slices", Int slices);
          ("scanned_per_slice", Float (float_of_int records_scanned /. float_of_int (max 1 slices)));
          ("scrub_host_s", Float scrub_host_s);
          ("baseline_rps", Float baseline_rps);
          ("with_scrub_rps", Float with_scrub_rps);
          ( "overhead_pct",
            Float
              (if baseline_rps > 0. && baseline_rps <> infinity then
                 100. *. (baseline_rps -. with_scrub_rps) /. baseline_rps
               else 0.) );
          ("findings", Int (List.length findings));
        ])
    budgets_ms

(* The right to be forgotten: destroying one per-tenant key inside the
   SCPU erases every record the tenant ever wrote, in time independent
   of how many there are. Sweep the tenant's volume across three or
   more orders of magnitude; the shred baseline (overwrite every block
   through the disk, as a key-less design must) grows linearly while
   the crypto-erasure columns stay flat. Each row is gated: the
   SCPU-signed erasure certificate must verify against the CA-rooted
   deletion certificate, every erased read must come back
   properly-erased, and a bystander tenant's end-to-end verdicts must
   be identical before and after the neighbour's erasure. *)
let tenant_erasure env ?(volumes = [ 10; 100; 1_000; 10_000 ]) ?(record_bytes = 256) () =
  let policy = Policy.of_regulation Policy.Sec17a4 in
  List.map
    (fun volume ->
      let disk = Disk.create ~latency:Disk.fast_latency () in
      let store = Worm.create ~disk ~device:env.dev ~ca:(Rsa.public_of env.ca) () in
      let client = Client.for_store ~ca:(Rsa.public_of env.ca) ~clock:env.clk store in
      let write tenant =
        Worm.write store ~tenant ~policy ~blocks:(Worm_workload.Workload.record env.rng ~bytes:record_bytes)
      in
      let control = List.init 8 (fun _ -> write "control") in
      let subject = List.init volume (fun _ -> write "subject") in
      let fingerprint () =
        List.map (fun sn -> Client.verdict_name (Client.verify_read client ~sn (Worm.read store sn))) control
      in
      let pre = fingerprint () in
      (* The linear baseline first: walk the tenant's records and
         overwrite each block on the platter. This destroys ciphertext
         the erased read path never touches again, so measuring it on
         the same store is safe. *)
      Disk.reset_busy disk;
      List.iter
        (fun sn ->
          match Vrdt.find (Worm.vrdt store) sn with
          | Some (Vrdt.Active vrd) -> List.iter (fun rd -> ignore (Disk.shred disk ~passes:1 rd)) vrd.Vrd.rdl
          | _ -> failwith "tenant-erasure: subject record missing from the VRDT")
        subject;
      let shred_disk_us = sec (Disk.busy_ns disk) *. 1e6 in
      Device.reset_busy env.dev;
      Worm.reset_host_busy store;
      let cert = Worm.erase_tenant store ~tenant:"subject" in
      let erase_scpu_us = sec (Device.busy_ns env.dev) *. 1e6 in
      let erase_host_us = sec (Worm.host_busy_ns store) *. 1e6 in
      (match Client.verify_erasure_cert client cert with
      | Ok () -> ()
      | Error e -> failwith ("tenant-erasure: certificate rejected: " ^ e));
      List.iter
        (fun sn ->
          match Client.verdict_name (Client.verify_read client ~sn (Worm.read store sn)) with
          | "properly-erased" -> ()
          | v -> failwith (Printf.sprintf "tenant-erasure: erased read came back %s" v))
        subject;
      if not (List.equal String.equal pre (fingerprint ())) then
        failwith "tenant-erasure: bystander tenant's verdicts changed across the erasure";
      Row.
        [
          ("tenant_records", Int volume);
          ("erase_scpu_us", Float erase_scpu_us);
          ("erase_host_us", Float erase_host_us);
          ("shred_disk_us", Float shred_disk_us);
        ])
    volumes

(* ------------------------------------------------------------------ *)
(* Remote audits over a misbehaving wire: how much retry traffic and
   virtual wire time each fault regime costs, and whether the verdicts
   stay identical to a clean run (they must — §3's argument needs every
   transport misbehavior to degrade to a verdict, never to a crash or a
   false accusation). *)

module Netsim = Worm_proto.Netsim
module Faulty = Worm_proto.Faulty
module Server = Worm_proto.Server
module Remote_client = Worm_proto.Remote_client

let fault_fixture ~seed ~records =
  let rng = Drbg.create ~seed:("fault-sim|" ^ seed) in
  let ca = Rsa.generate rng ~bits:1024 in
  let clk = Clock.create () in
  let dev = Device.provision ~seed:("fault-scpu|" ^ seed) ~clock:clk ~ca ~name:"sim-fault-scpu" () in
  let store = Worm.create ~device:dev ~ca:(Rsa.public_of ca) () in
  let short = Policy.custom ~name:"short" ~retention_ns:(Clock.ns_of_sec 10.) ~shred_passes:1 in
  let long = Policy.custom ~name:"long" ~retention_ns:(Clock.ns_of_sec 3600.) ~shred_passes:1 in
  (* Mixed proof shapes: a deleted bottom region the base bound absorbs,
     a collapsed window behind a live anchor, live records on top. *)
  let quarter = Stdlib.max 1 (records / 4) in
  for i = 1 to quarter do
    ignore (Worm.write store ~policy:short ~blocks:[ Printf.sprintf "below-%d" i ])
  done;
  ignore (Worm.write store ~policy:long ~blocks:[ "anchor" ]);
  for i = 1 to quarter do
    ignore (Worm.write store ~policy:short ~blocks:[ Printf.sprintf "window-%d" i ])
  done;
  for i = 1 to Stdlib.max 1 (records - (2 * quarter) - 1) do
    ignore (Worm.write store ~policy:long ~blocks:[ Printf.sprintf "live-%d" i ])
  done;
  Clock.advance clk (Clock.ns_of_sec 11.);
  ignore (Worm.expire_due store);
  Worm.idle_tick store;
  ignore (Worm.compact_windows store);
  Worm.heartbeat store;
  (Rsa.public_of ca, clk, store)

let remote_fault_tolerance ?(records = 24) ?(batch = 8) ?(rates = [ 0.05; 0.15; 0.3 ]) ~seed () =
  let ca, clk, store = fault_fixture ~seed ~records in
  let server = Server.create store in
  let honest = Server.handle_bytes server in
  let audit_under ~label faults =
    let net = Netsim.create () in
    let transport =
      match faults with
      | [] -> Netsim.wrap net honest
      | faults ->
          let faulty =
            Faulty.create ~seed:("fault-sim|" ^ seed ^ "|" ^ label) ~charge_delay:(Netsim.charge_ns net)
              ~faults honest
          in
          Netsim.wrap net (Faulty.transport faulty)
    in
    match Remote_client.connect ~ca ~clock:clk ~netsim:net transport with
    | Error e -> failwith ("remote_fault_tolerance: handshake failed under " ^ label ^ ": " ^ e)
    | Ok rc ->
        let audit = Remote_client.run_remote_audit_to_completion ~batch rc in
        (audit, Remote_client.transport_stats rc, Netsim.elapsed_ns net)
  in
  let fingerprint (a : Remote_client.remote_audit) =
    ( a.Remote_client.scanned,
      a.Remote_client.skipped_below_base,
      List.map (fun (sn, v) -> (sn, Client.verdict_name v)) a.Remote_client.violations,
      a.Remote_client.resume = None )
  in
  let clean_audit, clean_stats, clean_elapsed = audit_under ~label:"clean" [] in
  let clean_fp = fingerprint clean_audit in
  let ms ns = Int64.to_float ns /. 1e6 in
  let fault_row ~label ~rate (stats : Remote_client.transport_stats) ~resumes ~elapsed ~overhead ~verdicts_match =
    Row.
      [
        ("fault", Str label);
        ("rate", Float rate);
        ("attempts", Int stats.Remote_client.attempts);
        ("retries", Int stats.Remote_client.retries);
        ("resumes", Int resumes);
        ("reverifications", Int stats.Remote_client.reverifications);
        ("wire_ms", Float (ms elapsed));
        ("wire_overhead", Float overhead);
        ("verdicts_match", Bool verdicts_match);
      ]
  in
  let row ~label ~rate faults =
    let audit, stats, elapsed = audit_under ~label faults in
    fault_row ~label ~rate stats
      ~resumes:(Stdlib.max 0 (audit.Remote_client.round_trips - clean_audit.Remote_client.round_trips))
      ~elapsed
      ~overhead:
        (if Int64.compare clean_elapsed 0L > 0 then Int64.to_float elapsed /. Int64.to_float clean_elapsed else 1.)
      ~verdicts_match:(fingerprint audit = clean_fp)
  in
  let clean_row =
    fault_row ~label:"clean" ~rate:0. clean_stats ~resumes:0 ~elapsed:clean_elapsed ~overhead:1. ~verdicts_match:true
  in
  let per_rate rate =
    [
      row ~label:(Printf.sprintf "drop@%.2f" rate) ~rate [ Faulty.Drop rate ];
      row ~label:(Printf.sprintf "garble@%.2f" rate) ~rate [ Faulty.Garble rate ];
      row ~label:(Printf.sprintf "truncate@%.2f" rate) ~rate [ Faulty.Truncate rate ];
      row ~label:(Printf.sprintf "duplicate@%.2f" rate) ~rate [ Faulty.Duplicate rate ];
      row
        ~label:(Printf.sprintf "delay@%.2f" rate)
        ~rate
        [ Faulty.Delay { p = rate; ns = Clock.ns_of_ms 2. } ];
    ]
  in
  (clean_row :: List.concat_map per_rate rates)
  @ [ row ~label:"crash@4+2" ~rate:0. [ Faulty.Crash { after = 4; down_for = 2 } ] ]

(* ------------------------------------------------------------------ *)
(* Multi-client event serving: thousands of writers multiplexed over
   one store through the event server, writes coalesced across
   connections into single signing flushes, reads interleaved, and a
   sequential no-fault client driving the identical workload as both
   the unbatched signing baseline and the convergence oracle. *)

module Event_server = Worm_proto.Event_server
module Message = Worm_proto.Message

let summarize_latencies ns =
  let row p50 p95 p99 mean max =
    Row.[ ("p50_ms", Float p50); ("p95_ms", Float p95); ("p99_ms", Float p99); ("mean_ms", Float mean); ("max_ms", Float max) ]
  in
  match List.sort Int64.compare ns with
  | [] -> row 0. 0. 0. 0. 0.
  | sorted ->
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      let ms v = Int64.to_float v /. 1e6 in
      let pct q = arr.(Stdlib.min (n - 1) (Stdlib.max 0 (int_of_float (ceil (q *. float_of_int n)) - 1))) in
      let total = List.fold_left Int64.add 0L sorted in
      row (ms (pct 0.50)) (ms (pct 0.95)) (ms (pct 0.99)) (Int64.to_float total /. 1e6 /. float_of_int n) (ms arr.(n - 1))

(* Arrival times for a demand shape: each phase contributes
   rate * duration writes at fixed inter-arrival gaps. *)
let arrivals_of_phases phases =
  let t = ref 0L in
  List.concat_map
    (fun { rate_per_sec; duration_s; _ } ->
      let n = Stdlib.max 1 (int_of_float (rate_per_sec *. duration_s)) in
      let gap = Int64.of_float (1e9 /. rate_per_sec) in
      List.init n (fun _ ->
          t := Int64.add !t gap;
          !t))
    phases

(* Serving-phase fingerprint: after draining the deferred ledger (so
   witness strength no longer depends on which mode the burst chose),
   read every client's record back and verify it end-to-end with the
   real client verifier. Two runs that converged to the same store
   agree on every verdict name. *)
let mc_fingerprint ~ca ~clk store acks =
  let verifier = Client.for_store ~ca ~clock:clk store in
  Array.to_list
    (Array.mapi
       (fun i ack ->
         match ack with
         | None -> (i, "no-ack")
         | Some sn -> (i, Client.verdict_name (Client.verify_read verifier ~sn (Worm.read store sn))))
       acks)

let mc_drain store =
  let rec go total =
    let n = Worm.strengthen_pending store ~max:256 () in
    if n > 0 then go (total + n) else total
  in
  go 0

let multi_client ?(phases = default_day) ?(fault_rate = 0.08) ?(batch_size = 32) ?(debt_ceiling = 4096)
    ?(record_bytes = 256) ?(strong_bits = 1024) ?(weak_bits = 512) ~seed () =
  let arrivals = arrivals_of_phases phases in
  let clients = List.length arrivals in
  let wl_rng = Drbg.create ~seed:("mc-workload|" ^ seed) in
  let payloads = List.map (fun at -> (at, Worm_workload.Workload.record wl_rng ~bytes:record_bytes)) arrivals in
  let policy = Policy.of_regulation Policy.Sec17a4 in
  let store_config = { Worm.default_config with datasig_mode = Worm.Host_hash; default_witness = Firmware.Weak_deferred } in
  let fresh_stack () =
    let env = make_env ~strong_bits ~weak_bits ~seed:("mc|" ^ seed) () in
    let store = Worm.create ~config:store_config ~device:env.dev ~ca:(Rsa.public_of env.ca) () in
    (env, store, Server.create store)
  in

  (* --- batched event-server run, over a faulty ingress path --- *)
  let env, store, server = fresh_stack () in
  let net = Netsim.create () in
  let faulty =
    if fault_rate <= 0. then None
    else
      Some
        (Faulty.create
           ~seed:("mc-faults|" ^ seed)
           ~charge_delay:(Netsim.charge_ns net)
           ~faults:
             [
               Faulty.Drop fault_rate;
               Faulty.Garble fault_rate;
               Faulty.Truncate fault_rate;
               Faulty.Delay { p = fault_rate; ns = Clock.ns_of_ms 2. };
             ]
           Fun.id)
  in
  let controller = Worm_core.Adaptive.create ~profile:(Device.config env.dev).Device.profile ~device_config:(Device.config env.dev) () in
  let es_config =
    { Event_server.batch_size; debt_ceiling; max_attempts = 10; witness = Event_server.Adaptive controller }
  in
  let es = Event_server.create ~config:es_config ?ingress:(Option.map Faulty.transport faulty) ~clock:env.clk ~net server in
  let verifier = Client.for_store ~ca:(Rsa.public_of env.ca) ~clock:env.clk store in
  let acks = Array.make clients None in
  let write_lat = ref [] and read_lat = ref [] and reads_ok = ref 0 in
  List.iteri
    (fun i (at, payload) ->
      Event_server.submit es ~client:i ~at
        (Message.Write { policy; tenant = ""; blocks = payload })
        ~on_reply:(fun (c : Event_server.completion) ->
          match c.Event_server.outcome with
          | Event_server.Replied (Message.Write_ack { sn }) ->
              acks.(i) <- Some sn;
              write_lat := Int64.sub c.Event_server.delivered_ns c.Event_server.submitted_ns :: !write_lat;
              (* read-after-write: fetch the record just acked and
                 verify it like a remote client would *)
              Event_server.submit es ~client:i ~at:c.Event_server.delivered_ns (Message.Read sn)
                ~on_reply:(fun (rc : Event_server.completion) ->
                  match rc.Event_server.outcome with
                  | Event_server.Replied (Message.Read_reply { sn; response }) ->
                      read_lat := Int64.sub rc.Event_server.delivered_ns rc.Event_server.submitted_ns :: !read_lat;
                      (match Client.verify_read verifier ~sn response with
                      | Client.Violation _ -> ()
                      | _ -> incr reads_ok)
                  | _ -> ())
          | _ -> ()))
    payloads;
  (* Real-machine cost column: the event server meters its own wire
     path (request encode, frame decode, response encode/framing —
     store dispatch and client callbacks excluded). Virtual-time columns
     are untouched — this measures the implementation, not the
     simulated hardware. *)
  Event_server.run es;
  let requests = List.length (Event_server.completions es) in
  let wire_words = Event_server.wire_minor_words es in
  let stats = Event_server.stats es in
  let sign_calls = (Device.stats env.dev).Device.sign_calls in
  let deferred_after = Worm.deferred_length store in
  let virtual_s = sec (Clock.now env.clk) in
  ignore (mc_drain store);
  let fp_event = mc_fingerprint ~ca:(Rsa.public_of env.ca) ~clk:env.clk store acks in

  (* --- sequential no-fault baseline: identical workload, one
     request/response at a time through the same wire stack --- *)
  let benv, bstore, bserver = fresh_stack () in
  let backs = Array.make clients None in
  List.iteri
    (fun i (at, payload) ->
      Clock.advance_to benv.clk at;
      let reply = Server.handle_bytes bserver (Message.encode_request (Message.Write { policy; tenant = ""; blocks = payload })) in
      match Message.decode_response reply with
      | Ok (Message.Write_ack { sn }) ->
          backs.(i) <- Some sn;
          ignore (Server.handle_bytes bserver (Message.encode_request (Message.Read sn)))
      | _ -> ())
    payloads;
  let baseline_sign_calls = (Device.stats benv.dev).Device.sign_calls in
  ignore (mc_drain bstore);
  let fp_baseline = mc_fingerprint ~ca:(Rsa.public_of benv.ca) ~clk:benv.clk bstore backs in

  let writes_acked = Array.fold_left (fun acc a -> if a = None then acc else acc + 1) 0 acks in
  Row.
    [
      ("clients", Int clients);
      ("virtual_s", Float virtual_s);
      ("writes_acked", Int writes_acked);
      ("reads_ok", Int !reads_ok);
      ("throughput_rps", Float (float_of_int writes_acked /. virtual_s));
      ("gave_up", Int stats.Event_server.gave_up);
      ("shed", Int stats.Event_server.shed);
      ("flushes", Int stats.Event_server.flushes);
      ("strengthened_in_run", Int stats.Event_server.strengthened);
      ("deferred_after", Int deferred_after);
      ("sign_calls", Int sign_calls);
      ("baseline_sign_calls", Int baseline_sign_calls);
      ("sign_call_reduction", Float (float_of_int baseline_sign_calls /. float_of_int (Stdlib.max 1 sign_calls)));
      ("write_latency", Row (summarize_latencies !write_lat));
      ("read_latency", Row (summarize_latencies !read_lat));
      ("fingerprint_match", Bool (fp_event = fp_baseline));
      ("requests", Int requests);
      ("minor_words_per_req", Float (wire_words /. float_of_int (Stdlib.max 1 requests)));
    ]

(* ---------- measured cluster scaling ---------- *)
module Cluster_server = Worm_proto.Cluster_server

module Shard_router = Worm_cluster.Shard_router
module Cluster_proof = Worm_cluster.Cluster_proof

(* Verdict plus content digest, the same shape Replicator's divergence
   audit compares: two runs that converged to the same records agree on
   every element. *)
let cluster_fp_of_verdict = function
  | Client.Valid_data { blocks; _ } ->
      let rec sep = function [] -> [] | [ b ] -> [ b ] | b :: rest -> b :: "\x00" :: sep rest in
      "valid:" ^ Worm_util.Hex.encode (Worm_crypto.Sha256.digest_parts (sep blocks))
  | v -> Client.verdict_name v

let cluster_scaling ?(record_bytes = 1024) ?(records = 48) ?(strong_bits = 1024) ?(weak_bits = 512) ~seed
    ~shards_list () =
  let policy = Policy.of_regulation Policy.Sec17a4 in
  let store_config =
    { Worm.default_config with datasig_mode = Worm.Host_hash; default_witness = Firmware.Strong_now }
  in
  (* one payload sequence shared by the sequential oracle and every
     cluster size: global record i+1 is the same bytes everywhere *)
  let payloads =
    let rng = Drbg.create ~seed:("cluster-workload|" ^ seed) in
    Array.init records (fun _ -> Worm_workload.Workload.record rng ~bytes:record_bytes)
  in

  (* --- sequential single-store oracle: same records, one synchronous
     request at a time through the ordinary wire stack --- *)
  let seq_fp =
    let env = make_env ~strong_bits ~weak_bits ~seed:("cluster-seq|" ^ seed) () in
    let store = Worm.create ~config:store_config ~device:env.dev ~ca:(Rsa.public_of env.ca) () in
    let server = Server.create store in
    Array.iter
      (fun blocks ->
        ignore (Server.handle_bytes server (Message.encode_request (Message.Write { policy; tenant = ""; blocks }))))
      payloads;
    Clock.advance env.clk (Clock.ns_of_sec 1.);
    Worm.idle_tick store;
    let verifier = Client.for_store ~ca:(Rsa.public_of env.ca) ~clock:env.clk store in
    List.init records (fun i ->
        let sn = Serial.of_int (i + 1) in
        cluster_fp_of_verdict (Client.verify_read verifier ~sn (Worm.read store sn)))
  in

  let run n =
    let rng = Drbg.create ~seed:(Printf.sprintf "cluster-ca|%s|%d" seed n) in
    let ca = Rsa.generate rng ~bits:1024 in
    let clk = Clock.create () in
    let router_config =
      {
        Shard_router.default_config with
        Shard_router.shards = n;
        mirrored = false;
        store_config;
        device_config = { Device.default_config with Device.strong_bits; weak_bits };
        disk_latency = Disk.fast_latency;
      }
    in
    let router =
      Shard_router.create ~config:router_config ~seed:(Printf.sprintf "cluster|%s|%d" seed n) ~ca ~clock:clk ()
    in
    let front = Cluster_server.create router in
    let net = Netsim.create () in
    let es_config =
      { Event_server.default_config with batch_size = 8; witness = Event_server.Fixed Firmware.Strong_now }
    in
    Shard_router.reset_busy router;
    let acks = Array.make records None in
    let flushes = ref 0 in
    let makespans = Array.make n 0. in
    let shard_records = Array.make n 0 in
    (* One event loop per shard over the shared virtual clock. The loops
       run one after another — virtual time needs no interleaving to be
       honest — with each shard's submissions offset to its loop's start,
       so every per-shard ledger and makespan is the duration that shard
       alone would have taken; the cluster runs them in parallel, which
       is exactly what the max() aggregation below models. *)
    let wire_words = ref 0. and requests = ref 0 in
    for s = 0 to n - 1 do
      let shard_srv =
        match Cluster_server.shard_server front s with
        | Some srv -> srv
        | None -> failwith (Printf.sprintf "scaling workload: shard %d unexpectedly fenced" s)
      in
      let es = Event_server.create ~config:es_config ~clock:clk ~net shard_srv in
      let t0 = Clock.now clk in
      let gap = Clock.ns_of_us 100. in
      for i = 0 to records - 1 do
        if i mod n = s then begin
          let at = Int64.add t0 (Int64.mul (Int64.of_int shard_records.(s)) gap) in
          shard_records.(s) <- shard_records.(s) + 1;
          Event_server.submit es ~client:i ~at
            (Message.Write { policy; tenant = ""; blocks = payloads.(i) })
            ~on_reply:(fun (c : Event_server.completion) ->
              match c.Event_server.outcome with
              | Event_server.Replied (Message.Write_ack { sn }) ->
                  acks.(i) <- Some (Shard_router.register_ack router ~shard:s ~local:sn)
              | _ -> ())
        end
      done;
      Event_server.run es;
      makespans.(s) <- sec (Int64.sub (Clock.now clk) t0);
      wire_words := !wire_words +. Event_server.wire_minor_words es;
      requests := !requests + List.length (Event_server.completions es);
      flushes := !flushes + (Event_server.stats es).Event_server.flushes
    done;
    (* burst ledgers, before idle maintenance muddies them *)
    let mets = Shard_router.metrics router in
    Clock.advance clk (Clock.ns_of_sec 1.);
    Shard_router.idle_tick router;
    (* per shard: (shard, slowest ledger, its resource), and its row *)
    let shards =
      List.map
        (fun (m : Shard_router.shard_metrics) ->
          let shard = m.Shard_router.sm_shard in
          let scpu_s = sec m.Shard_router.sm_scpu_busy_ns in
          let host_s = sec m.Shard_router.sm_host_busy_ns in
          let disk_s = sec m.Shard_router.sm_disk_busy_ns in
          let slowest, bottleneck = bottleneck_of ~scpu_s ~host_s ~disk_s in
          ( (shard, slowest, bottleneck),
            Row.
              [
                ("shard", Int shard);
                ("records", Int shard_records.(shard));
                ("scpu_s", Float scpu_s);
                ("host_s", Float host_s);
                ("disk_s", Float disk_s);
                ("rps", Float (rate shard_records.(shard) slowest));
                ("bottleneck", Str bottleneck);
              ] ))
        mets
    in
    let bottleneck_shard, cluster_slowest, bottleneck =
      List.fold_left
        (fun ((_, worst, _) as acc) ((_, slowest, _) as s) -> if slowest > worst then s else acc)
        (fst (List.hd shards)) (List.map fst shards)
    in
    let proof_ok, global_ok =
      match Shard_router.freshness_proof router with
      | Error _ -> (false, false)
      | Ok proof -> (
          let ok =
            Cluster_proof.verify ~ca:(Rsa.public_of ca) ~now:(Clock.now clk) proof = Ok ()
          in
          match Cluster_proof.global_current proof with
          | Ok g -> (ok, Serial.to_int g = records)
          | Error _ -> (ok, false))
    in
    let verifiers = Shard_router.verifiers router in
    let fp =
      List.init records (fun i ->
          let g = Serial.of_int (i + 1) in
          match acks.(i) with
          | Some acked when Serial.equal acked g ->
              cluster_fp_of_verdict (Shard_router.verify_read router verifiers g (Shard_router.read router g))
          | Some _ -> "misrouted-ack"
          | None -> "no-ack")
    in
    let aggregate_rps = rate records cluster_slowest in
    (* the row, once the speedup against the 1-shard run is known *)
    let row speedup =
      Row.
        [
          ("shards", Int n);
          ("records", Int records);
          ("aggregate_rps", Float aggregate_rps);
          ("speedup", Float speedup);
          ("bottleneck_shard", Int bottleneck_shard);
          ("bottleneck", Str bottleneck);
          ("makespan_s", Float (Array.fold_left max 0. makespans));
          ("flushes", Int !flushes);
          ("proof_ok", Bool proof_ok);
          ("global_current_ok", Bool global_ok);
          ("fingerprint_match", Bool (fp = seq_fp));
          ("minor_words_per_req", Float (!wire_words /. float_of_int (Stdlib.max 1 !requests)));
          ("shards_detail", List (List.map (fun (_, r) -> Row r) shards));
        ]
    in
    (aggregate_rps, row)
  in
  let single_rps = ref None in
  List.map
    (fun n ->
      let rps, row = run n in
      let base =
        match !single_rps with
        | Some r -> r
        | None ->
            let r = if n = 1 then rps else fst (run 1) in
            single_rps := Some r;
            r
      in
      row (rps /. base))
    shards_list
