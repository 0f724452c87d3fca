(* Sharded cluster: partition arithmetic, cross-shard reads against a
   single-store oracle, aggregated freshness proofs (and their tamper
   surface), deletion-epoch coherence, shard failover, and the cluster
   vocabulary's wire codecs. *)

open Worm_core
open Worm_testkit.Testkit
module Clock = Worm_simclock.Clock
module Device = Worm_scpu.Device
module Disk = Worm_simdisk.Disk
module Partition = Worm_cluster.Partition
module Router = Worm_cluster.Shard_router
module Cluster_proof = Worm_cluster.Cluster_proof
module Cluster_scrub = Worm_cluster.Cluster_scrub
module Report = Worm_audit.Report
module Message = Worm_proto.Message
module Cluster_server = Worm_proto.Cluster_server

let fresh_router ?(shards = 2) ?(mirrored = true) () =
  let clock = Clock.create () in
  let config =
    {
      Router.default_config with
      Router.shards;
      mirrored;
      device_config = Device.test_config;
      disk_latency = Disk.zero_latency;
    }
  in
  let seed = Printf.sprintf "cluster-%d" (incr counter; !counter) in
  (Router.create ~config ~seed ~ca:(Lazy.force ca) ~clock (), clock)

let write_exn router ?(policy = short_policy ~retention_s:10_000. ()) blocks =
  match Router.write router ~policy ~blocks with
  | Ok sn -> sn
  | Error e -> Alcotest.fail e

let proof_exn router =
  match Router.freshness_proof router with Ok p -> p | Error e -> Alcotest.fail e

(* verdict plus verified content; two reads agree iff same bytes *)
let fp = function
  | Client.Valid_data { blocks; _ } -> "valid:" ^ String.concat "\x00" blocks
  | v -> Client.verdict_name v

(* ---------- partition ---------- *)

let prop_partition_roundtrip =
  QCheck.Test.make ~name:"partition is total and invertible" ~count:500
    QCheck.(pair (int_range 1 12) (int_range 1 100_000))
    (fun (n, g) ->
      let g = Serial.of_int g in
      let shard = Partition.shard_of ~shards:n g in
      let local = Partition.local_of ~shards:n g in
      shard >= 0 && shard < n
      && Serial.to_int local >= 1
      && Serial.equal (Partition.global_of ~shards:n ~shard local) g)

let prop_partition_coverage =
  QCheck.Test.make ~name:"locals_covered partitions the global space" ~count:500
    QCheck.(pair (int_range 1 12) (int_range 0 100_000))
    (fun (n, g) ->
      let total =
        List.fold_left
          (fun acc s ->
            acc + Serial.to_int (Partition.locals_covered ~shards:n ~shard:s ~global_current:(Serial.of_int g)))
          0 (List.init n Fun.id)
      in
      total = g)

let test_partition_sentinel () =
  Alcotest.(check int) "zero maps to shard 0" 0 (Partition.shard_of ~shards:5 Serial.zero);
  Alcotest.(check bool) "zero maps to local zero" true
    (Serial.equal Serial.zero (Partition.local_of ~shards:5 Serial.zero));
  Alcotest.check_raises "zero shards rejected" (Invalid_argument "Partition: shard count must be >= 1")
    (fun () -> ignore (Partition.shard_of ~shards:0 (Serial.of_int 1)))

(* ---------- cross-shard reads vs a single-store oracle ---------- *)

let test_read_many_matches_single_store () =
  let records = 9 in
  let payloads = List.init records (fun i -> [ Printf.sprintf "payload-%d" i; "tail" ]) in
  let policy = short_policy ~retention_s:10_000. () in
  (* sharded run *)
  let router, _clock = fresh_router ~shards:3 ~mirrored:false () in
  List.iter (fun blocks -> ignore (write_exn router ~policy blocks)) payloads;
  let verifiers = Router.verifiers router in
  let globals = List.init records (fun i -> Serial.of_int (i + 1)) in
  let routed =
    List.map (fun (g, shard, response) -> fp (Router.verify_read router verifiers g (shard, response)))
      (Router.read_many router globals)
  in
  (* single-store oracle, same payloads in the same order *)
  let env = fresh_env () in
  List.iter (fun blocks -> ignore (Worm.write env.store ~policy ~blocks)) payloads;
  let oracle = List.map (fun g -> fp (Client.verify_read env.client ~sn:g (Worm.read env.store g))) globals in
  Alcotest.(check (list string)) "verdicts and content identical across the partition" oracle routed;
  (* a response replayed from the wrong shard is a violation regardless of its content *)
  let g = Serial.of_int 1 in
  let wrong_shard = (Partition.shard_of ~shards:3 g + 1) mod 3 in
  match Router.verify_read router verifiers g (wrong_shard, snd (Router.read router g)) with
  | Client.Violation (Client.Wrong_serial :: _) -> ()
  | v -> Alcotest.fail ("wrong-shard response accepted: " ^ Client.verdict_name v)

(* ---------- aggregated freshness proof ---------- *)

let test_proof_verifies_and_is_coherent () =
  let router, clock = fresh_router ~shards:3 ~mirrored:false () in
  for i = 1 to 7 do
    ignore (write_exn router [ Printf.sprintf "r%d" i ])
  done;
  let proof = proof_exn router in
  (match Cluster_proof.verify ~ca:(ca_pub ()) ~now:(Clock.now clock) proof with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Cluster_proof.global_current proof with
  | Ok g -> Alcotest.(check int) "coherent global bound" 7 (Serial.to_int g)
  | Error e -> Alcotest.fail e);
  (* decode . encode is identity and digest-checked *)
  let encoded = Worm_util.Codec.encode Cluster_proof.encode proof in
  match Worm_util.Codec.decode Cluster_proof.decode encoded with
  | Ok proof' ->
      Alcotest.(check string) "canonical reencoding" encoded (Worm_util.Codec.encode Cluster_proof.encode proof')
  | Error e -> Alcotest.fail e

let test_proof_rejects_tampering () =
  let router, clock = fresh_router ~shards:2 ~mirrored:false () in
  for i = 1 to 4 do
    ignore (write_exn router [ Printf.sprintf "r%d" i ])
  done;
  let proof = proof_exn router in
  let now = Clock.now clock in
  let b0, b1 =
    match proof.Cluster_proof.shards with [ a; b ] -> (a, b) | _ -> Alcotest.fail "expected 2 bounds"
  in
  (* a replayed stale bound breaks the coherence equation: shard 0 claims
     0 locals while shard 1 claims 2, which no round-robin history allows *)
  let stale =
    {
      b0 with
      Cluster_proof.current = { b0.Cluster_proof.current with Firmware.sn = Serial.zero };
    }
  in
  (match Cluster_proof.global_current (Cluster_proof.make ~epoch:proof.Cluster_proof.epoch [ stale; b1 ]) with
  | Error _ -> ()
  | Ok g -> Alcotest.failf "incoherent bounds accepted as G=%d" (Serial.to_int g));
  (* ...and the forged serial also breaks the shard's signature *)
  (match Cluster_proof.verify ~ca:(ca_pub ()) ~now (Cluster_proof.make ~epoch:proof.Cluster_proof.epoch [ stale; b1 ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "forged current bound verified");
  (* duplicated shard indices are structural nonsense *)
  (match
     Cluster_proof.verify ~ca:(ca_pub ()) ~now (Cluster_proof.make ~epoch:proof.Cluster_proof.epoch [ b0; b0 ])
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate shard index verified");
  (* a doctored digest is caught before any signature work *)
  (match Cluster_proof.verify ~ca:(ca_pub ()) ~now { proof with Cluster_proof.agg_digest = String.make 32 '\x00' } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wrong digest verified");
  (* ...and refuses to even decode *)
  let encoded =
    Worm_util.Codec.encode Cluster_proof.encode { proof with Cluster_proof.agg_digest = String.make 32 '\x00' }
  in
  match Worm_util.Codec.decode Cluster_proof.decode encoded with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "digest-mismatched proof decoded"

(* ---------- deletion epochs ---------- *)

let test_epoch_coherence_across_shard_compactions () =
  let router, clock = fresh_router ~shards:2 ~mirrored:false () in
  let short = short_policy ~retention_s:10. () in
  let long = short_policy ~retention_s:10_000. () in
  (* interleave: shard 0 gets odd globals' short records, both stripes
     carry a long anchor so neither store empties out *)
  ignore (write_exn router ~policy:long [ "anchor-0" ]);
  ignore (write_exn router ~policy:long [ "anchor-1" ]);
  for i = 1 to 6 do
    ignore (write_exn router ~policy:short [ Printf.sprintf "short-%d" i ])
  done;
  Alcotest.(check int) "epoch starts at zero" 0 (Router.epoch router);
  Clock.advance clock (Clock.ns_of_sec 20.);
  let deleted = List.fold_left (fun acc (_, n) -> acc + n) 0 (Router.expire_due router) in
  Alcotest.(check int) "retention monitor expired the short records" 6 deleted;
  (* nothing collapsed yet: expiry alone must not bump the epoch *)
  Alcotest.(check int) "expiry does not bump the epoch" 0 (Router.epoch router);
  let expelled0 = Router.compact_shard router 0 in
  Alcotest.(check bool) "shard 0 expelled entries" true (expelled0 > 0);
  Alcotest.(check int) "one shard's collapse bumps the epoch once" 1 (Router.epoch router);
  let p1 = proof_exn router in
  Alcotest.(check int) "proof carries the epoch" 1 p1.Cluster_proof.epoch;
  let expelled1 = Router.compact_shard router 1 in
  Alcotest.(check bool) "shard 1 expelled entries" true (expelled1 > 0);
  Alcotest.(check int) "second collapse bumps it again" 2 (Router.epoch router);
  (* an idempotent re-collapse expels nothing and must not bump *)
  let again = Router.compact_shard router 0 in
  Alcotest.(check int) "re-collapse expels nothing" 0 again;
  Alcotest.(check int) "no-op collapse leaves the epoch" 2 (Router.epoch router);
  let p2 = proof_exn router in
  Alcotest.(check int) "fresh proof carries the new epoch" 2 p2.Cluster_proof.epoch;
  match Cluster_proof.verify ~ca:(ca_pub ()) ~now:(Clock.now clock) p2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ---------- failover ---------- *)

let test_kill_fence_recover_rescrub () =
  let router, clock = fresh_router ~shards:2 ~mirrored:true () in
  let records = 8 in
  let sns = List.init records (fun i -> write_exn router [ Printf.sprintf "r%d" i ]) in
  Alcotest.(check (list int)) "global serials are dense" (List.init records succ) (List.map Serial.to_int sns);
  let read_all () =
    let verifiers = Router.verifiers router in
    List.map (fun g -> fp (Router.verify_read router verifiers g (Router.read router g))) sns
  in
  let before = read_all () in
  Alcotest.(check bool) "every routed read verifies" true
    (List.for_all (fun v -> String.length v > 6 && String.sub v 0 6 = "valid:") before);
  let scrub_clean label =
    let outcome = Cluster_scrub.run router in
    Alcotest.(check (list int)) (label ^ ": scrub covers every shard") [] outcome.Cluster_scrub.skipped;
    Alcotest.(check bool) (label ^ ": scrub completes") true outcome.Cluster_scrub.merged.Report.pass_complete;
    Alcotest.(check int) (label ^ ": scrub is clean") 0 (List.length outcome.Cluster_scrub.merged.Report.findings);
    Alcotest.(check bool) (label ^ ": scrub scanned the global space") true
      (outcome.Cluster_scrub.merged.Report.records_scanned >= records)
  in
  scrub_clean "pre-failover";
  Router.kill router 1;
  Alcotest.(check (list int)) "probe names the dead shard" [ 1 ] (Router.probe router);
  (match Router.fence router 1 with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "fenced shard refuses its stripe" true
    (match Router.write router ~policy:(short_policy ()) ~blocks:[ "x" ] with
    | Error _ -> true
    | Ok sn -> Partition.shard_of ~shards:2 sn <> 1);
  Alcotest.(check (list string)) "fenced reads stay identical off the mirror" before (read_all ());
  (match Router.recover router 1 with
  | Ok r ->
      Alcotest.(check int) "resync rebuilt the stripe" (records / 2) r.Router.resynced;
      Alcotest.(check bool) "replacement mirror is a fresh SCPU" true (r.Router.new_mirror_id <> "")
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "shard active again" true (Router.shard_state router 1 = Router.Active);
  Alcotest.(check (list string)) "promoted store serves identical content" before (read_all ());
  (* global 9 landed on the live shard while 1 was fenced; 10 is the
     promoted store's *)
  let resumed = write_exn router [ "post-failover" ] in
  Alcotest.(check int) "ingest resumes on the promoted store" (records + 2) (Serial.to_int resumed);
  Alcotest.(check int) "on the recovered shard" 1 (Partition.shard_of ~shards:2 resumed);
  let proof = proof_exn router in
  (match Cluster_proof.verify ~ca:(ca_pub ()) ~now:(Clock.now clock) proof with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("post-failover proof: " ^ e));
  (match Cluster_proof.global_current proof with
  | Ok g -> Alcotest.(check int) "post-failover global bound" (records + 2) (Serial.to_int g)
  | Error e -> Alcotest.fail e);
  scrub_clean "post-failover";
  (* the rebuilt mirror holds fresh serials: a second zeroization of the
     same shard is outside the verified contract and must say so *)
  Router.kill router 1;
  (match Router.fence router 1 with Ok () -> () | Error e -> Alcotest.fail e);
  (match Router.recover router 1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "second failover of a rebuilt mirror must be refused");
  (* scrub-ability after the *first* failover is the part the cluster
     guarantees; check it once more with shard 0 as the failed one *)
  let router2, _ = fresh_router ~shards:2 ~mirrored:true () in
  for i = 1 to records do
    ignore (write_exn router2 [ Printf.sprintf "s%d" i ])
  done;
  Router.kill router2 0;
  (match Router.fence router2 0 with Ok () -> () | Error e -> Alcotest.fail e);
  (match Router.recover router2 0 with Ok _ -> () | Error e -> Alcotest.fail e);
  let outcome = Cluster_scrub.run router2 in
  Alcotest.(check bool) "post-failover scrub completes" true outcome.Cluster_scrub.merged.Report.pass_complete;
  Alcotest.(check int) "post-failover scrub is clean" 0
    (List.length outcome.Cluster_scrub.merged.Report.findings)

let test_fenced_shard_degrades_scrub_honestly () =
  let router, _clock = fresh_router ~shards:2 ~mirrored:false () in
  for i = 1 to 4 do
    ignore (write_exn router [ Printf.sprintf "r%d" i ])
  done;
  Router.kill router 0;
  (match Router.fence router 0 with Ok () -> () | Error e -> Alcotest.fail e);
  (* no mirror to fall back on: the stripe is unscannable and the merged
     report must refuse to call the pass complete *)
  let outcome = Cluster_scrub.run router in
  Alcotest.(check (list int)) "fenced shard skipped" [ 0 ] outcome.Cluster_scrub.skipped;
  Alcotest.(check bool) "partial coverage is not a clean bill" false
    outcome.Cluster_scrub.merged.Report.pass_complete;
  Alcotest.(check bool) "the gap is a finding" true (outcome.Cluster_scrub.merged.Report.findings <> [])

(* ---------- wire codecs and the cluster front end ---------- *)

let test_cluster_message_codecs () =
  let router, _clock = fresh_router ~shards:2 ~mirrored:false () in
  for i = 1 to 4 do
    ignore (write_exn router [ Printf.sprintf "r%d" i ])
  done;
  let front = Cluster_server.create router in
  let requests =
    [
      Message.Cluster_hello;
      Message.Cluster_read (Serial.of_int 3);
      Message.Cluster_read_many [ Serial.of_int 1; Serial.of_int 4 ];
      Message.Cluster_proof_get;
    ]
  in
  List.iter
    (fun r ->
      match Message.decode_request (Message.encode_request r) with
      | Ok r' -> Alcotest.(check bool) ("request roundtrip: " ^ Message.describe_request r) true (r = r')
      | Error e -> Alcotest.fail e)
    requests;
  (* live responses of every cluster shape, via the real front end *)
  List.iter
    (fun r ->
      let response = Cluster_server.handle front r in
      (match response with
      | Message.Protocol_error e -> Alcotest.fail ("front end refused " ^ Message.describe_request r ^ ": " ^ e)
      | _ -> ());
      let encoded = Message.encode_response response in
      match Message.decode_response encoded with
      | Ok response' ->
          Alcotest.(check string)
            ("response canonical: " ^ Message.describe_response response)
            encoded (Message.encode_response response')
      | Error e -> Alcotest.fail e)
    requests;
  (* vocabulary boundaries: cluster requests bounce off a single-store
     server, single-store reads bounce off the cluster front end *)
  let env = fresh_env () in
  let single = Worm_proto.Server.create env.store in
  (match Worm_proto.Server.handle single Message.Cluster_hello with
  | Message.Protocol_error _ -> ()
  | _ -> Alcotest.fail "single-store server answered a cluster request");
  match Cluster_server.handle front (Message.Read (Serial.of_int 1)) with
  | Message.Protocol_error _ -> ()
  | _ -> Alcotest.fail "cluster front end answered a single-store read"

let test_cluster_server_routes_and_survives_failover () =
  let router, _clock = fresh_router ~shards:2 ~mirrored:true () in
  let front = Cluster_server.create router in
  let policy = short_policy ~retention_s:10_000. () in
  for i = 1 to 6 do
    match Cluster_server.handle front (Message.Write { policy; tenant = ""; blocks = [ Printf.sprintf "w%d" i ] }) with
    | Message.Write_ack { sn } -> Alcotest.(check int) "dense globals via the front end" i (Serial.to_int sn)
    | r -> Alcotest.fail (Message.describe_response r)
  done;
  (* shard servers expose the per-shard stores; failover swaps them out *)
  let shard_server_exn i =
    match Cluster_server.shard_server front i with
    | Some s -> s
    | None -> Alcotest.failf "shard %d has no serving store" i
  in
  let s0 = shard_server_exn 0 in
  Router.kill router 0;
  (match Router.fence router 0 with Ok () -> () | Error e -> Alcotest.fail e);
  (match Router.recover router 0 with Ok _ -> () | Error e -> Alcotest.fail e);
  let s0' = shard_server_exn 0 in
  Alcotest.(check bool) "failover invalidates the cached shard server" false (s0 == s0');
  (* and the routed read path still answers with verifiable content *)
  match Cluster_server.handle front (Message.Cluster_read (Serial.of_int 1)) with
  | Message.Cluster_read_reply { shard; response; _ } ->
      let verifiers = Router.verifiers router in
      (match Router.verify_read router verifiers (Serial.of_int 1) (shard, response) with
      | Client.Valid_data _ -> ()
      | v -> Alcotest.fail (Client.verdict_name v))
  | r -> Alcotest.fail (Message.describe_response r)

let shard_strong_signs router =
  Array.init (Router.shard_count router) (fun i ->
      match Router.serving_store router i with
      | Some store -> (Device.stats (Firmware.device (Worm.firmware store))).Device.strong_signs
      | None -> Alcotest.failf "shard %d has no serving store" i)

let test_unallocated_read_resigns_owning_shard_only () =
  let router, _clock = fresh_router ~shards:2 ~mirrored:false () in
  for i = 1 to 4 do
    ignore (write_exn router [ Printf.sprintf "r%d" i ])
  done;
  let front = Cluster_server.create router in
  let exchange request = Message.decode_response (Cluster_server.handle_bytes front (Message.encode_request request)) in
  let delta f =
    let before = shard_strong_signs router in
    let r = f () in
    (Array.map2 ( - ) (shard_strong_signs router) before, r)
  in
  (* both shards' counters have moved past their cached bounds; a read
     of a live record needs neither bound *)
  let signs, _ = delta (fun () -> exchange (Message.Cluster_read (Serial.of_int 3))) in
  Alcotest.(check (array int)) "live read signs nothing" [| 0; 0 |] signs;
  let g = Serial.of_int 101 in
  Alcotest.(check int) "owned by shard 0" 0 (Partition.shard_of ~shards:2 g);
  let signs, reply = delta (fun () -> exchange (Message.Cluster_read g)) in
  Alcotest.(check (array int)) "only the owning shard re-signs" [| 1; 0 |] signs;
  (match reply with
  | Ok (Message.Cluster_read_reply { shard; response; _ }) -> (
      match Router.verify_read router (Router.verifiers router) g (shard, response) with
      | Client.Never_written -> ()
      | v -> Alcotest.fail (Client.verdict_name v))
  | _ -> Alcotest.fail "expected a cluster read reply");
  (* an over-limit read-many is refused before any per-SN work: no walk,
     no signature, even though every serial is above both counters *)
  let many = List.init 1000 (fun i -> Serial.of_int (200 + i)) in
  let signs, reply = delta (fun () -> exchange (Message.Cluster_read_many many)) in
  Alcotest.(check (array int)) "over-limit frame signs nothing" [| 0; 0 |] signs;
  (match reply with Ok (Message.Protocol_error _) -> () | _ -> Alcotest.fail "expected Protocol_error");
  (* the sentinel serial routes inside the guard: a typed reply, never
     an escaped exception *)
  match exchange (Message.Cluster_read_many [ Serial.zero; g ]) with
  | Ok (Message.Cluster_read_many_reply _ | Message.Protocol_error _) -> ()
  | Ok r -> Alcotest.fail (Message.describe_response r)
  | Error e -> Alcotest.fail e

let suite =
  [
    ("partition roundtrip (qcheck)", `Quick, fun () -> QCheck.Test.check_exn prop_partition_roundtrip);
    ("partition coverage (qcheck)", `Quick, fun () -> QCheck.Test.check_exn prop_partition_coverage);
    ("partition sentinel", `Quick, test_partition_sentinel);
    ("read_many matches single store", `Quick, test_read_many_matches_single_store);
    ("proof verifies and is coherent", `Quick, test_proof_verifies_and_is_coherent);
    ("proof rejects tampering", `Quick, test_proof_rejects_tampering);
    ("epoch coherent across compactions", `Quick, test_epoch_coherence_across_shard_compactions);
    ("kill / fence / recover / re-scrub", `Quick, test_kill_fence_recover_rescrub);
    ("fenced shard degrades scrub honestly", `Quick, test_fenced_shard_degrades_scrub_honestly);
    ("cluster message codecs", `Quick, test_cluster_message_codecs);
    ("cluster server routes across failover", `Quick, test_cluster_server_routes_and_survives_failover);
    ("unallocated read re-signs only the owning shard", `Quick, test_unallocated_read_resigns_owning_shard_only);
  ]

let () = Alcotest.run "worm_cluster" [ ("cluster", suite) ]
