(* Benchmark harness: regenerates every table and figure in the paper's
   evaluation (§5), plus wall-clock microbenchmarks of this library's own
   primitives via Bechamel.

   Sections (run all, or a subset via --only):
     table2     primitive rates from the calibrated cost models
     figure1    throughput vs record size, all witnessing modes
     hmac       the bus-limited HMAC-witnessing claim (§4.3)
     iobound    the I/O-bottleneck observation (§5 disk-latency sweep)
     ablation   window scheme vs Merkle tree update costs (§2.3/§4.1)
     readmix    SCPU-free read path (§4.1)
     storage    VRDT storage reduction via deletion windows (§4.2.1)
     erasure    O(1) per-tenant crypto-erasure vs per-record shredding
     burst      maximum safe burst length per arrival rate (§4.3)
     adaptive   adaptive witness strength across a day of load (§4.3)
     audit      continuous-scrub overhead vs ingest per slice budget
     protofault remote audit through an injected-fault transport
     serve      async multi-client event server, cross-client batching
     scaling    measured N-shard multi-SCPU scaling (§5)
     hash       host hash hot path, MB/s per size class
     wire       message encode/decode rates and per-op allocation
     local      Figure 1 re-projected onto THIS host's measured rates,
                + the pooled signing domain curve (exit 1 if it differs)
     readthroughput  verified reads/s: domain pool x verify cache, + projection,
                + one strong read's latency per pool size
                (exit 1 if pooled verdicts differ from sequential ones)
     bechamel   real wall-clock rates of the pure-OCaml primitives

   Flags:
     --json <path>    also write machine-readable results (BENCH_RESULTS.json)
     --quick          reduced record counts and Bechamel quotas (CI smoke)
     --only <section> run just this section; repeatable *)

open Bechamel
open Toolkit
module Sim = Worm_sim.Sim
module Row = Worm_sim.Row
module Cost_model = Worm_scpu.Cost_model
open Worm_crypto

(* Every section returns one row whose fields become entries of the
   JSON document's "sections" object. *)
let table rows = Row.List (List.map (fun r -> Row.Row r) rows)

(* ------------------------------------------------------------------ *)
(* The paper's experiments *)

let table2 ~quick:_ ~env:_ = [ ("table2", table (Sim.table2 ())) ]

let figure1 ~quick ~env =
  [ ("figure1", table (Sim.figure1 (Lazy.force env) ~records:(if quick then 8 else 24) ())) ]

let hmac ~quick ~env =
  let records = if quick then 8 else 24 in
  [
    ( "hmac",
      table
        (List.map
           (fun mode -> Sim.run_write_burst (Lazy.force env) ~mode ~record_bytes:1024 ~records ())
           [ Sim.mode_strong_host_hash; Sim.mode_weak_host_hash; Sim.mode_mac_host_hash ]) );
  ]

let iobound ~quick ~env =
  let records = if quick then 8 else 24 in
  [ ("iobound", table (Sim.io_bottleneck (Lazy.force env) ~records ~record_bytes:1024 ())) ]

let ablation ~quick ~env =
  let ns = if quick then [ 256; 4096; 65536 ] else [ 256; 1024; 4096; 16384; 65536 ] in
  [ ("ablation", table (Sim.window_vs_merkle (Lazy.force env) ~ns)) ]

let readmix ~quick ~env =
  [ ("readmix", table (Sim.read_mix (Lazy.force env) ~ops:(if quick then 60 else 200) ~record_bytes:1024 ())) ]

let storage ~quick ~env =
  [ ("storage", table (Sim.storage_reduction (Lazy.force env) ~records:(if quick then 120 else 400) ())) ]

(* The workload gates cert verification, erased verdicts and the
   bystander fingerprint itself; a gate failure raises. *)
let erasure ~quick ~env =
  let volumes = if quick then [ 5; 50; 500 ] else [ 10; 100; 1_000; 10_000 ] in
  [ ("erasure", table (Sim.tenant_erasure (Lazy.force env) ~volumes ())) ]

let burst ~quick:_ ~env:_ = [ ("burst", table (Sim.burst_sustainability ())) ]
let adaptive ~quick:_ ~env = [ ("adaptive", table (Sim.adaptive_day (Lazy.force env) ())) ]

let audit ~quick ~env =
  [ ("audit", table (Sim.audit_overhead (Lazy.force env) ~records:(if quick then 60 else 150) ())) ]

let protofault ~quick ~env:_ =
  let records = if quick then 12 else 24 in
  let rates = if quick then [ 0.15 ] else [ 0.05; 0.15; 0.3 ] in
  [ ("protofault", table (Sim.remote_fault_tolerance ~records ~rates ~seed:"bench-protofault" ())) ]

(* Async event server: thousands of concurrent writers multiplexed over
   one store, writes coalesced across connections into single signing
   batches. The sequential per-request run over the same workload is
   both the sign_calls baseline and the convergence oracle. *)
let serve ~quick ~env:_ =
  let phases =
    if quick then
      [
        { Sim.label = "burst"; rate_per_sec = 2000.; duration_s = 0.04 };
        { Sim.label = "steady"; rate_per_sec = 400.; duration_s = 0.1 };
      ]
    else
      [
        { Sim.label = "burst"; rate_per_sec = 2400.; duration_s = 0.25 };
        { Sim.label = "steady"; rate_per_sec = 200.; duration_s = 1.0 };
        { Sim.label = "lull"; rate_per_sec = 40.; duration_s = 1.0 };
        { Sim.label = "spike"; rate_per_sec = 4000.; duration_s = 0.1 };
      ]
  in
  [ ("serve", Row.Row (Sim.multi_client ~phases ~seed:"bench-serve" ())) ]

let scaling ~quick ~env:_ =
  let records = if quick then 12 else 48 in
  let rows = Sim.cluster_scaling ~records ~seed:"bench-scaling" ~shards_list:[ 1; 2; 4; 8 ] () in
  [ ("scaling", Row.Row [ ("measured", table rows) ]) ]

let rng = Drbg.create ~seed:"bench"
let key512 = lazy (Rsa.generate rng ~bits:512)
let key1024 = lazy (Rsa.generate rng ~bits:1024)
let block_1k = lazy (Drbg.generate rng 1024)
let block_64k = lazy (Drbg.generate rng 65536)
let sig1024 = lazy (Rsa.sign (Lazy.force key1024) "msg")

let tests =
  [
    Test.make ~name:"rsa-512-sign" (Staged.stage (fun () -> Rsa.sign (Lazy.force key512) "msg"));
    Test.make ~name:"rsa-1024-sign" (Staged.stage (fun () -> Rsa.sign (Lazy.force key1024) "msg"));
    Test.make ~name:"rsa-1024-sign-batch8"
      (Staged.stage (fun () -> Rsa.sign_batch (Lazy.force key1024) [ "m1"; "m2"; "m3"; "m4"; "m5"; "m6"; "m7"; "m8" ]));
    Test.make ~name:"rsa-1024-verify"
      (Staged.stage (fun () ->
           Rsa.verify (Rsa.public_of (Lazy.force key1024)) ~msg:"msg" ~signature:(Lazy.force sig1024)));
    Test.make ~name:"sha1-1KB" (Staged.stage (fun () -> Sha1.digest (Lazy.force block_1k)));
    Test.make ~name:"sha1-64KB" (Staged.stage (fun () -> Sha1.digest (Lazy.force block_64k)));
    Test.make ~name:"sha256-1KB" (Staged.stage (fun () -> Sha256.digest (Lazy.force block_1k)));
    Test.make ~name:"sha256-64KB" (Staged.stage (fun () -> Sha256.digest (Lazy.force block_64k)));
    Test.make ~name:"hmac-sha256-1KB"
      (Staged.stage (fun () -> Hmac.sha256 ~key:"0123456789abcdef" (Lazy.force block_1k)));
    Test.make ~name:"chained-hash-64KB"
      (Staged.stage (fun () -> Chained_hash.add Chained_hash.empty (Lazy.force block_64k)));
  ]

let bechamel ~quick ~env:_ =
  (* force the lazies outside the measured region *)
  ignore (Lazy.force sig1024);
  ignore (Lazy.force block_1k);
  ignore (Lazy.force block_64k);
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let cfg =
    if quick then Benchmark.cfg ~limit:50 ~quota:(Time.second 0.08) ~kde:None ()
    else Benchmark.cfg ~limit:200 ~quota:(Time.second 0.4) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] (Test.make_grouped ~name:"prims" tests) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        match Analyze.OLS.estimates ols_result with
        | Some (ns :: _) -> (name, ns) :: acc
        | Some [] | None -> (name, nan) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  [
    ( "primitives",
      table
        (List.map
           (fun (name, ns) ->
             (* nan, which JSON spells null, where OLS found no rate *)
             Row.[ ("name", Str name); ("ns_per_op", Float ns); ("ops_per_sec", Float (if ns <= 0. then nan else 1e9 /. ns)) ])
           rows) );
  ]

(* ------------------------------------------------------------------ *)
(* Project Figure 1 onto the running host: measure this machine's actual
   signing and hashing rates with plain wall-clock loops, calibrate a
   Cost_model profile from them, and run the sweep. *)

let time_per_op ~min_time_s ~min_iters f =
  ignore (f ());
  (* warm-up *)
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  let elapsed = ref 0. in
  while !elapsed < min_time_s || !n < min_iters do
    ignore (f ());
    incr n;
    elapsed := Unix.gettimeofday () -. t0
  done;
  !elapsed /. float_of_int !n

(* The median of per-call wall times, in seconds. Each call is timed on
   its own, so one slow call (a descheduled worker, a GC slice) moves
   one sample rather than a whole window's mean: the figure for one
   short operation split over two domains on a shared host. *)
let median_per_call ~min_time_s ~min_iters f =
  ignore (f ());
  (* warm-up *)
  let samples = ref [] and n = ref 0 in
  let start = Unix.gettimeofday () in
  while Unix.gettimeofday () -. start < min_time_s || !n < min_iters do
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    samples := (Unix.gettimeofday () -. t0) :: !samples;
    incr n
  done;
  let sorted = Array.of_list (List.sort Float.compare !samples) in
  sorted.(Array.length sorted / 2)

(* The highest of [trials] rates: a transient slowdown of a shared host
   lowers one trial, not the row. *)
let best_of ~trials rate =
  let best = ref 0. in
  for _ = 1 to trials do
    best := Float.max !best (rate ())
  done;
  !best

(* Domain counts for a parallel curve: 1, 2 and 4, plus this host's
   recommended count when it is none of those. *)
let curve_domains () =
  let n = Worm_util.Pool.recommended_domains () in
  let base = [ 1; 2; 4 ] in
  if List.mem n base then base else base @ [ n ]

(* ------------------------------------------------------------------ *)
(* Host hash hot path: MB/s per size class for every digest the WORM
   layer leans on. The committed pre/post baselines under bench/results/
   gate the hot-path overhaul: sha256/oneshot/64KB is the headline row. *)

let hash_size_classes = [ 1024; 4096; 16384; 65536; 262144 ]

let hash ~quick ~env:_ =
  let budget = if quick then 0.04 else 0.25 in
  let blocks =
    List.map (fun size -> (size, Drbg.generate (Drbg.create ~seed:"bench-hash") size)) hash_size_classes
  in
  (* Best-of-k: each row is the fastest of k short trials, which makes
     the committed baselines robust to transient load on a shared host. *)
  let trials = if quick then 1 else 3 in
  let mb_per_sec bytes f =
    best_of ~trials (fun () -> float_of_int bytes /. time_per_op ~min_time_s:budget ~min_iters:8 f /. 1e6)
  in
  let rows = ref [] in
  let row ~algo ~mode ~bytes rate =
    rows := Row.[ ("algo", Str algo); ("mode", Str mode); ("block_bytes", Int bytes); ("mb_per_sec", Float rate) ] :: !rows
  in
  List.iter
    (fun (size, block) ->
      row ~algo:"sha256" ~mode:"oneshot" ~bytes:size (mb_per_sec size (fun () -> Sha256.digest block));
      row ~algo:"sha1" ~mode:"oneshot" ~bytes:size (mb_per_sec size (fun () -> Sha1.digest block));
      row ~algo:"hmac-sha256" ~mode:"oneshot" ~bytes:size
        (mb_per_sec size (fun () -> Hmac.sha256 ~key:"0123456789abcdef" block));
      row ~algo:"chained-sha256" ~mode:"oneshot" ~bytes:size
        (mb_per_sec size (fun () -> Chained_hash.add Chained_hash.empty block)))
    blocks;
  (* Zero-copy streaming: the same bytes fed through feed_sub in odd
     4091-byte slices, as a caller hashing a frame in place does. *)
  List.iter
    (fun (size, block) ->
      row ~algo:"sha256" ~mode:"stream-sub" ~bytes:size
        (mb_per_sec size (fun () ->
             let ctx = Sha256.init () in
             let pos = ref 0 in
             while !pos < size do
               let len = min 4091 (size - !pos) in
               Sha256.feed_sub ctx block ~pos:!pos ~len;
               pos := !pos + len
             done;
             Sha256.get ctx)))
    blocks;
  (* Multi-buffer hashing over the shared pool: 16 independent blocks
     per call, sequential vs. pooled. *)
  let pool = Worm_util.Pool.shared () in
  let domains = Worm_util.Pool.size pool in
  List.iter
    (fun size ->
      let block = List.assoc size blocks in
      let inputs = Array.make 16 block in
      let total = 16 * size in
      row ~algo:"sha256" ~mode:"multibuf-seq" ~bytes:size
        (mb_per_sec total (fun () -> Sha256.digest_many inputs));
      row ~algo:"sha256"
        ~mode:(Printf.sprintf "multibuf-pool%d" domains)
        ~bytes:size
        (mb_per_sec total (fun () -> Sha256.digest_many ~pool inputs)))
    [ 16384; 65536 ];
  [ ("hash", table (List.rev !rows)) ]

let local ~quick ~env:_ =
  let budget = if quick then 0.05 else 0.25 in
  (* The anchors are one SCPU engine's rate: sign_batch without a pool
     signs in the caller, where Rsa.sign would split a 1024-bit
     signature over two domains. *)
  let sign_rate key =
    1. /. time_per_op ~min_time_s:budget ~min_iters:4 (fun () -> Rsa.sign_batch (Lazy.force key) [ "msg" ])
  in
  let hash_rate block bytes =
    float_of_int bytes /. time_per_op ~min_time_s:budget ~min_iters:16 (fun () -> Sha256.digest (Lazy.force block))
  in
  let r512 = sign_rate key512 in
  let r1024 = sign_rate key1024 in
  let h1k = hash_rate block_1k 1024 in
  let h64k = hash_rate block_64k 65536 in
  let profile =
    Cost_model.of_measurements ~name:"this host"
      ~rsa_sign_anchors:[ (512, r512); (1024, r1024) ]
      ~hash_small:(1024, h1k) ~hash_large:(65536, h64k) ()
  in
  let records = if quick then 6 else 16 in
  let sizes = [ 1024; 4096; 16384; 65536 ] in
  let projected = Sim.local_figure1 ~profile ~records ~sizes ~seed:"bench-local" () in
  (* The SCPU crypto engine's domain curves: [msgs] through
     Rsa.sign_batch on a pool of each size, timed by [measure]. A pool
     of one domain signs sequentially in the caller, so that row is the
     baseline. Identity-gated like readthroughput: every pooled run must
     be byte-identical to the pool-less, sequential one. *)
  let curve msgs ~column ~measure ~speedup =
    List.concat_map
      (fun (bits, key) ->
        let key = Lazy.force key in
        let sequential = Rsa.sign_batch key msgs in
        let rows =
          List.map
            (fun domains ->
              Worm_util.Pool.with_pool ~domains (fun pool ->
                  let identical = Rsa.sign_batch ~pool key msgs = sequential in
                  (domains, measure (fun () -> Rsa.sign_batch ~pool key msgs), identical)))
            (curve_domains ())
        in
        let base = match rows with (_, v, _) :: _ -> v | [] -> nan in
        List.map
          (fun (domains, v, identical) ->
            Row.
              [
                ("bits", Int bits);
                ("domains", Int domains);
                (column, Float v);
                ("speedup_vs_1_domain", Float (speedup ~base v));
                ("identical_to_sequential", Bool identical);
              ])
          rows)
      [ (512, key512); (1024, key1024) ]
  in
  (* A batch fans out one signature per task. *)
  let batch = List.init 32 (Printf.sprintf "local sign batch %d") in
  let sign_curve =
    curve batch ~column:"sig_per_sec" ~speedup:(fun ~base v -> v /. base) ~measure:(fun f ->
        best_of ~trials:(if quick then 1 else 3) (fun () ->
            float_of_int (List.length batch) /. time_per_op ~min_time_s:budget ~min_iters:2 f))
  in
  (* One signature, as a one-item batch: above one domain a key of at
     least 1024 bits splits its two CRT halves over the pool, a narrower
     one signs inline. *)
  let single_sign =
    curve [ "local single sign" ] ~column:"sign_us" ~speedup:(fun ~base v -> base /. v) ~measure:(fun f ->
        1e6 *. median_per_call ~min_time_s:budget ~min_iters:8 f)
  in
  [
    ( "local_sim",
      Row.(
        Row
          [
            ( "measured",
              Row
                [
                  ("rsa_512_sign_per_sec", Float r512);
                  ("rsa_1024_sign_per_sec", Float r1024);
                  ("sha256_1k_bytes_per_sec", Float h1k);
                  ("sha256_64k_bytes_per_sec", Float h64k);
                ] );
            ("rows", table projected);
            ( "sign_curve",
              Row [ ("batch", Int (List.length batch)); ("rows", table sign_curve); ("single_sign", table single_sign) ] );
          ]) );
  ]

(* ------------------------------------------------------------------ *)
(* Verified-read throughput: the §4.2.2 host-side-only read path,
   end-to-end through Client.verify_read_many over a store exercising
   every proof shape. The baseline is the sequential verifier with the
   verified-signature memo disabled; the curve adds the memo and fans
   verification across a domain pool at 1/2/4/N domains. Absence-proof
   signatures (bounds, windows, deletion proofs) are epoch-stable, so
   the memo pays each public-key verification once per epoch — that,
   not core count, is the main lever on a small host. *)

module Core = Worm_core
module SimClock = Worm_simclock.Clock
module Device = Worm_scpu.Device
module Pool = Worm_util.Pool

let read_workload ~quick () =
  let rng = Drbg.create ~seed:"bench-read" in
  let ca = Rsa.generate rng ~bits:1024 in
  let clock = SimClock.create () in
  let device = Device.provision ~seed:"bench-read-scpu" ~clock ~ca ~name:"scpu-bench-read" () in
  let store = Core.Worm.create ~device ~ca:(Rsa.public_of ca) () in
  let short = Core.Policy.custom ~name:"short" ~retention_ns:(SimClock.ns_of_sec 10.) ~shred_passes:1 in
  let long = Core.Policy.custom ~name:"long" ~retention_ns:(SimClock.ns_of_sec 3600.) ~shred_passes:1 in
  (* Short-lived records at the very bottom expire and the advancing
     base bound absorbs them: the below-base region. *)
  let n_base = if quick then 8 else 24 in
  let below = List.init n_base (fun i -> Core.Worm.write store ~policy:short ~blocks:[ Printf.sprintf "b%d" i ]) in
  (* A live anchor keeps the next run of deletions out of the base
     bound, so they surface as deletion proofs / a deletion window. *)
  let anchor = Core.Worm.write store ~policy:long ~blocks:[ "anchor" ] in
  let n_win = if quick then 8 else 24 in
  let windowed = List.init n_win (fun i -> Core.Worm.write store ~policy:short ~blocks:[ Printf.sprintf "w%d" i ]) in
  let n_keep = if quick then 4 else 8 in
  let keepers =
    List.init n_keep (fun i -> Core.Worm.write store ~policy:long ~blocks:[ Drbg.generate rng 1024; Printf.sprintf "k%d" i ])
  in
  SimClock.advance clock (SimClock.ns_of_sec 11.);
  ignore (Core.Worm.expire_due store);
  Core.Worm.idle_tick store;
  ignore (Core.Worm.compact_windows store);
  Core.Worm.heartbeat store;
  let top = List.fold_left (fun _ sn -> sn) anchor keepers in
  let n_above = if quick then 6 else 16 in
  let above =
    let rec go sn k acc = if k = 0 then List.rev acc else go (Core.Serial.next sn) (k - 1) (sn :: acc) in
    go (Core.Serial.next top) n_above []
  in
  let found = anchor :: keepers in
  let absences = below @ windowed @ above in
  let items = List.map (fun sn -> (sn, Core.Worm.read store sn)) (found @ absences) in
  (clock, Rsa.public_of ca, store, items, List.length found, List.length absences)

let measure_read_rps ~budget ~client ~pool items =
  let t =
    time_per_op ~min_time_s:budget ~min_iters:2 (fun () -> Core.Client.verify_read_many ~pool client items)
  in
  float_of_int (List.length items) /. t

let readthroughput ~quick ~env:_ =
  let budget = if quick then 0.05 else 0.3 in
  let clock, ca, store, items, n_found, n_absence = read_workload ~quick () in
  let baseline_client = Core.Client.for_store ~ca ~clock ~verify_cache:0 store in
  (* An explicit 1-domain pool: without one, verify_read_many runs on
     the shared pool. *)
  let sequential = Pool.create ~domains:1 () in
  let baseline_verdicts = Core.Client.verify_read_many ~pool:sequential baseline_client items in
  let violations =
    List.length (List.filter (fun (_, v) -> match v with Core.Client.Violation _ -> true | _ -> false) baseline_verdicts)
  in
  let baseline_rps = measure_read_rps ~budget ~client:baseline_client ~pool:sequential items in
  let curve =
    List.map
      (fun domains ->
        let client = Core.Client.for_store ~ca ~clock store in
        let pool = Pool.create ~domains () in
        let verdicts = Core.Client.verify_read_many ~pool client items in
        let identical = verdicts = baseline_verdicts in
        let rps = measure_read_rps ~budget ~client ~pool items in
        let stats = Core.Client.verify_cache_stats client in
        Pool.shutdown pool;
        (domains, rps, identical, stats))
      (curve_domains ())
  in
  (* One strong Found read (the first 1 KiB keeper) as a one-item
     batch: above one domain it splits into the metasig check beside the
     datasig check plus the chained hash. *)
  let single = [ List.nth items 1 ] in
  let single_reference = Core.Client.verify_read_many ~pool:sequential baseline_client single in
  let single_curve =
    List.map
      (fun domains ->
        let client = Core.Client.for_store ~ca ~clock store in
        let pool = Pool.create ~domains () in
        let identical = Core.Client.verify_read_many ~pool client single = single_reference in
        let t =
          median_per_call ~min_time_s:budget ~min_iters:8 (fun () -> Core.Client.verify_read_many ~pool client single)
        in
        Pool.shutdown pool;
        (domains, t, identical))
      (curve_domains ())
  in
  let single_row (domains, t, identical) =
    let t1 = match single_curve with (_, t1, _) :: _ -> t1 | [] -> nan in
    Row.
      [
        ("domains", Int domains);
        ("read_us", Float (t *. 1e6));
        ("speedup_vs_1_domain", Float (t1 /. t));
        ("identical_to_sequential", Bool identical);
      ]
  in
  let speedup_at d =
    match List.find_opt (fun (domains, _, _, _) -> domains = d) curve with
    | Some (_, rps, _, _) -> rps /. baseline_rps
    | None -> nan
  in
  (* Project the read path onto this host's measured primitive rates,
     local_figure1-style. *)
  ignore (Lazy.force sig1024);
  let vps =
    1.
    /. time_per_op ~min_time_s:budget ~min_iters:8 (fun () ->
           Rsa.verify (Rsa.public_of (Lazy.force key1024)) ~msg:"msg" ~signature:(Lazy.force sig1024))
  in
  let h1k =
    1024. /. time_per_op ~min_time_s:budget ~min_iters:16 (fun () -> Sha256.digest (Lazy.force block_1k))
  in
  let curve_row (domains, rps, identical, stats) =
    Row.(
      [
        ("domains", Int domains);
        ("rps", Float rps);
        ("speedup_vs_baseline", Float (rps /. baseline_rps));
        ("identical_to_sequential", Bool identical);
      ]
      @
      match stats with
      | Some s ->
          [
            ("cache_hits", Int s.Core.Client.cache_hits);
            ("cache_misses", Int s.Core.Client.cache_misses);
            ("cache_entries", Int s.Core.Client.cache_entries);
          ]
      | None -> [])
  in
  [
    ( "readthroughput",
      Row.(
        Row
          [
            ("items", Int (List.length items));
            ("found", Int n_found);
            ("absences", Int n_absence);
            ("baseline_violations", Int violations);
            ("baseline_nocache_rps", Float baseline_rps);
            ("rows", table (List.map curve_row curve));
            ("speedup_at_4_domains", Float (speedup_at 4));
            ( "single_read",
              Row
                [
                  ("verdict", Str (Core.Client.verdict_name (snd (List.hd single_reference))));
                  ("rows", table (List.map single_row single_curve));
                ] );
            ("measured", Row [ ("rsa_1024_verify_per_sec", Float vps); ("sha256_1k_bytes_per_sec", Float h1k) ]);
            ( "projection",
              table (Sim.read_projection ~verify_per_sec:vps ~hash_bytes_per_sec:h1k ~sizes:[ 1024; 16384; 65536 ] ())
            );
          ]) );
  ]

(* ------------------------------------------------------------------ *)
(* Wire path: encode/decode rates and per-op minor-heap allocation for
   each message class the serving stack touches. Identity-gated:
   encodings are canonical and signed, so encoding must be repeatable
   and re-encoding a decoded value must reproduce the bytes exactly.
   (Byte-identity against the retained seed codec is enforced separately
   by the QCheck oracle properties in test/test_util.ml.) *)

module Message = Worm_proto.Message
module Proto_server = Worm_proto.Server

let wire ~quick ~env:_ =
  let budget = if quick then 0.02 else 0.15 in
  let alloc_ops = if quick then 256 else 4096 in
  let clock, _ca, store, items, _, _ = read_workload ~quick () in
  ignore clock;
  let server = Proto_server.create store in
  Proto_server.refresh server;
  let shape p = List.find_opt (fun (_, r) -> p r) items in
  let found_sn =
    match shape (function Core.Proof.Found _ -> true | _ -> false) with
    | Some (sn, _) -> sn
    | None -> Core.Serial.first
  in
  let absent_sn =
    match shape (function Core.Proof.Proof_unallocated _ -> true | _ -> false) with
    | Some (sn, _) -> sn
    | None -> found_sn
  in
  let policy = Core.Policy.of_regulation Core.Policy.Sec17a4 in
  let payload = Drbg.generate (Drbg.create ~seed:"bench-wire") 1024 in
  let many_sns =
    let all = List.map fst items in
    List.filteri (fun i _ -> i < 64) (all @ all @ all)
  in
  let requests =
    [
      ("hello", Message.Hello);
      ("read", Message.Read found_sn);
      (Printf.sprintf "read-many-%d" (List.length many_sns), Message.Read_many many_sns);
      ("audit-slice-req", Message.Audit_slice { cursor = Core.Serial.first; max = 64 });
      ("write-1KB", Message.Write { policy; tenant = ""; blocks = [ payload ] });
    ]
  in
  let responses =
    [
      ("write-ack", Message.Write_ack { sn = found_sn });
      ("busy", Message.Busy { retry_after_ns = 5_000_000L });
      ("hello-ack", Proto_server.handle server Message.Hello);
      ("read-reply-found", Proto_server.handle server (Message.Read found_sn));
      ("read-reply-absence", Proto_server.handle server (Message.Read absent_sn));
      ("audit-slice-reply", Proto_server.handle server (Message.Audit_slice { cursor = Core.Serial.first; max = 64 }));
    ]
  in
  let measure ~dir ~encode ~decode (name, value) =
    let bytes = encode value in
    let enc_t = time_per_op ~min_time_s:budget ~min_iters:32 (fun () -> ignore (encode value)) in
    let dec_t = time_per_op ~min_time_s:budget ~min_iters:32 (fun () -> ignore (decode bytes)) in
    let enc_w = Worm_util.Allocmeter.per_op ~ops:alloc_ops (fun () -> ignore (encode value)) in
    let dec_w = Worm_util.Allocmeter.per_op ~ops:alloc_ops (fun () -> ignore (decode bytes)) in
    let identity =
      String.equal bytes (encode value)
      && (match decode bytes with Ok v -> String.equal bytes (encode v) | Error _ -> false)
    in
    Row.
      [
        ("class", Str name);
        ("dir", Str dir);
        ("wire_bytes", Int (String.length bytes));
        ("encode_ops_per_sec", Float (1. /. enc_t));
        ("decode_ops_per_sec", Float (1. /. dec_t));
        ("encode_minor_words_per_op", Float enc_w);
        ("decode_minor_words_per_op", Float dec_w);
        ("identity", Bool identity);
      ]
  in
  [
    ( "wire",
      table
        (List.map (measure ~dir:"request" ~encode:Message.encode_request ~decode:Message.decode_request) requests
        @ List.map (measure ~dir:"response" ~encode:Message.encode_response ~decode:Message.decode_response) responses)
    );
  ]

(* ------------------------------------------------------------------ *)

type section = {
  name : string;
  title : string;
  note : string;  (** printed under the rows, unless empty *)
  run : quick:bool -> env:Sim.env Lazy.t -> Row.t;
  gate : Row.t -> string option;  (** why the rows fail their gate, if they do *)
}

let section ?(note = "") ?(gate = fun _ -> None) name title run = { name; title; note; run; gate }
let gate msg ok r = if ok r then None else Some msg
let all key rows = List.for_all (Row.get Row.bool key) rows
let at keys r = List.fold_left (fun r k -> Row.get Row.row k r) r keys

let sections =
  [
    section "table2" "TABLE 2 -- primitive rates (calibrated cost models vs the paper's anchors)" table2
      ~note:
        "(paper: 4200/848/316-470 sig/s; 1.42/18.6 MB/s; 75-90 MB/s DMA on the 4764\n\
        \        1315/261/43 sig/s; 80/120+ MB/s; 1+ GB/s on the P4)";
    section "figure1" "FIGURE 1 -- throughput vs record size (records/s, fast disk)" figure1
      ~note:
        "(paper: 450-500 rec/s sustained without deferring; 2000-2500 rec/s with\n\
        \ deferred 512-bit constructs, in bursts of at most the security lifetime)";
    section "hmac" "SECTION 4.3 -- HMAC witnessing removes the signature bottleneck" hmac;
    section "iobound" "SECTION 5 -- I/O seek latency becomes the dominant bottleneck" iobound
      ~note:"(paper: 3-4ms enterprise-disk latencies are ~2x the projected SCPU overhead)";
    section "ablation" "ABLATION -- O(1) window authentication vs O(log n) Merkle maintenance" ablation;
    section "readmix" "SECTION 4.1 -- the SCPU witnesses updates only; reads are free of it" readmix;
    section "storage" "SECTION 4.2.1 -- VRDT storage reduction via deletion windows" storage;
    (* per-record shredding grows with the data, one key destruction
       does not *)
    section "erasure" "ERASURE -- O(1) crypto-erasure vs per-record shredding" erasure
      ~gate:
        (gate "erasure: latency is not flat across the volume sweep -- O(1) claim violated" (fun r ->
             let erase =
               List.map
                 (fun x -> Row.get Row.float "erase_scpu_us" x +. Row.get Row.float "erase_host_us" x)
                 (Row.get Row.rows "erasure" r)
             in
             List.fold_left Float.max 0. erase <= 2. *. List.fold_left Float.min infinity erase));
    section "burst" "SECTION 4.3 -- maximum safe burst length per arrival rate (2h weak lifetime)" burst
      ~note:
        "(paper: 2000-2500 rec/s \"in bursts of no more than 60-180 minutes\";\n\
        \ at 2096 rec/s the FIFO repayment bound is the binding one)";
    section "adaptive" "SECTION 4.3 -- adaptive witness strength across a day of load phases" adaptive;
    section "audit" "CONTINUOUS AUDIT -- scrub overhead vs ingest throughput per slice budget" audit;
    (* faults may only cost wire time and retries, never a verdict *)
    section "protofault" "PROTO FAULTS -- remote audit under an injected-fault transport (retry/backoff cost)"
      protofault
      ~gate:
        (gate "protofault: verdicts diverged under an injected fault" (fun r ->
             all "verdicts_match" (Row.get Row.rows "protofault" r)));
    section "serve" "SERVE -- async multi-client event server with cross-client batch witnessing" serve
      ~gate:
        (gate "serve: batched faulty run diverged from the sequential oracle" (fun r ->
             Row.get Row.bool "fingerprint_match" (at [ "serve" ] r)));
    (* the aggregated freshness proof must verify and every global serial
       read back through the router must match the sequential
       single-store run *)
    section "scaling" "SECTION 5 -- \"results naturally scale if multiple SCPUs are available\" (measured)" scaling
      ~gate:
        (gate "scaling: cluster run failed its proof or diverged from the sequential oracle" (fun r ->
             let rows = Row.get Row.rows "measured" (at [ "scaling" ] r) in
             all "proof_ok" rows && all "global_current_ok" rows && all "fingerprint_match" rows));
    section "hash" "HASH -- host hash hot path (MB/s per size class)" hash;
    section "wire" "WIRE -- message encode/decode rates and per-op allocation" wire
      ~gate:
        (gate "wire: canonical encoding drifted (encode not repeatable or re-encode differs)" (fun r ->
             all "identity" (Row.get Row.rows "wire" r)));
    section "local" "LOCAL -- Figure 1 projected onto this host's measured primitive rates" local
      ~gate:
        (gate "local: pooled signing differs from sequential signing" (fun r ->
             let curve = at [ "local_sim"; "sign_curve" ] r in
             all "identical_to_sequential" (Row.get Row.rows "rows" curve)
             && all "identical_to_sequential" (Row.get Row.rows "single_sign" curve)));
    section "readthroughput" "READ THROUGHPUT -- verified reads/s on this host (domain pool + verify cache)"
      readthroughput
      ~gate:
        (gate "readthroughput: pooled or cached verification differs from the sequential baseline" (fun r ->
             all "identical_to_sequential" (Row.get Row.rows "rows" (at [ "readthroughput" ] r))
             && all "identical_to_sequential" (Row.get Row.rows "rows" (at [ "readthroughput"; "single_read" ] r))));
    section "bechamel" "BECHAMEL -- wall-clock rates of the pure-OCaml primitives on this host" bechamel;
  ]

let () =
  let json_path = ref None in
  let quick = ref false in
  let only = ref [] in
  let speclist =
    [
      ("--json", Arg.String (fun p -> json_path := Some p), "<path>  also write machine-readable results");
      ("--quick", Arg.Set quick, "  reduced record counts and Bechamel quotas (CI smoke)");
      ("--only", Arg.String (fun s -> only := s :: !only), "<section>  run just this section; repeatable");
    ]
  in
  let names = String.concat ", " (List.map (fun s -> s.name) sections) in
  let usage = "bench/main.exe [--quick] [--json <path>] [--only <section>]*\nsections: " ^ names in
  Arg.parse speclist
    (fun anon ->
      Printf.eprintf "unexpected argument %S\n%s\n" anon usage;
      exit 2)
    usage;
  let selected =
    match !only with
    | [] -> sections
    | only ->
        List.iter
          (fun n ->
            if not (List.exists (fun s -> s.name = n) sections) then begin
              Printf.eprintf "unknown section %S\nsections: %s\n" n names;
              exit 2
            end)
          only;
        List.filter (fun s -> List.mem s.name only) sections
  in
  let env = lazy (Sim.make_env ~seed:"bench-harness" ()) in
  let results =
    List.concat_map
      (fun s ->
        Printf.printf "\n%s\n%s\n%s\n" (String.make 76 '=') s.title (String.make 76 '=');
        let r = s.run ~quick:!quick ~env in
        Row.print r;
        if s.note <> "" then Printf.printf "\n%s\n" s.note;
        (match s.gate r with
        | Some msg ->
            prerr_endline msg;
            exit 1
        | None -> ());
        r)
      selected
  in
  (match !json_path with
  | None -> ()
  | Some path ->
      let doc = Row.[ ("schema", Str "worm-bench/1"); ("quick", Bool !quick); ("sections", Row results) ] in
      let oc = open_out path in
      output_string oc (Row.to_json doc);
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nwrote %s\n" path);
  Printf.printf "\nAll benchmark sections completed.\n"
