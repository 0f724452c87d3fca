(* Host-side store orchestration: full lifecycle, retention monitor,
   deferred maintenance, window compaction, VEXP overflow, shredding. *)

open Worm_core
open Worm_testkit.Testkit
module Device = Worm_scpu.Device
module Clock = Worm_simclock.Clock
module Disk = Worm_simdisk.Disk

let test_write_read_lifecycle () =
  let env = fresh_env () in
  let sn = write env ~blocks:[ "alpha"; "beta" ] () in
  (match Worm.read env.store sn with
  | Proof.Found { vrd; blocks } ->
      Alcotest.(check (list string)) "blocks back" [ "alpha"; "beta" ] blocks;
      Alcotest.(check int) "rdl entries" 2 (List.length vrd.Vrd.rdl)
  | r -> Alcotest.fail (Proof.describe r));
  check_verdict "client accepts" "valid-data" env sn

let test_read_responses_by_state () =
  let env = fresh_env () in
  let sns = write_n env 3 in
  let sn2 = List.nth sns 1 in
  (* unallocated: served bound may be the cached one, but must cover *)
  (match Worm.read env.store (Serial.of_int 50) with
  | Proof.Proof_unallocated bound ->
      Alcotest.(check bool) "bound below query" true Serial.(bound.Firmware.sn < Serial.of_int 50);
      check_verdict "client accepts" "never-written" env (Serial.of_int 50)
  | r -> Alcotest.fail (Proof.describe r));
  (* deleted: proof served *)
  ignore (expire_all env ~after_s:101.);
  (match Worm.read env.store sn2 with
  | Proof.Proof_deleted _ -> ()
  | r -> Alcotest.fail (Proof.describe r));
  (* after compaction the base bound covers everything *)
  ignore (Worm.compact_windows env.store);
  match Worm.read env.store sn2 with
  | Proof.Proof_below_base bound -> Alcotest.(check int64) "base" 4L (Serial.to_int64 bound.Firmware.sn)
  | r -> Alcotest.fail (Proof.describe r)

let test_expire_due_shreds_data () =
  let env = fresh_env () in
  let sn = write env ~blocks:[ "sensitive" ] () in
  let rdl =
    match Vrdt.find (Worm.vrdt env.store) sn with
    | Some (Vrdt.Active vrd) -> vrd.Vrd.rdl
    | _ -> Alcotest.fail "vrd missing"
  in
  ignore (expire_all env ~after_s:101.);
  List.iter
    (fun rd ->
      Alcotest.(check bool) "block gone" false (Disk.Raw.exists env.disk rd);
      match Disk.Raw.residue env.disk rd with
      | Some residue -> Alcotest.(check bool) "no plaintext residue" false (String.equal residue "sensitive")
      | None -> Alcotest.fail "no residue info")
    rdl

let test_rm_respects_order_and_reschedules () =
  let env = fresh_env () in
  let sn_long = write env ~policy:(short_policy ~retention_s:500. ()) () in
  let sn_short = write env ~policy:(short_policy ~retention_s:50. ()) () in
  (* RM alarm = first instant after the earliest expiry *)
  (match Worm.next_rm_wakeup env.store with
  | Some t -> Alcotest.(check int64) "alarm" (Int64.succ (Clock.ns_of_sec 50.)) t
  | None -> Alcotest.fail "no wakeup");
  let outcomes = expire_all env ~after_s:60. in
  Alcotest.(check (list int64)) "only short expired" [ Serial.to_int64 sn_short ]
    (List.map (fun (sn, _) -> Serial.to_int64 sn) outcomes);
  check_verdict "short deleted" "properly-deleted" env sn_short;
  check_verdict "long still valid" "valid-data" env sn_long

let test_rm_expiry_boundary () =
  (* A record is deletable strictly after its expiry, and the Retention
     Monitor agrees: at the expiry instant the entry is neither popped
     nor refused (no wasted delete attempt), the alarm names the next
     instant, and deletion succeeds there. *)
  let env = fresh_env () in
  let sn = write env ~policy:(short_policy ~retention_s:50. ()) () in
  let expiry =
    match Vrdt.find (Worm.vrdt env.store) sn with
    | Some (Vrdt.Active vrd) -> Attr.expiry vrd.Vrd.attr
    | _ -> Alcotest.fail "record missing"
  in
  Clock.advance_to env.clock expiry;
  Alcotest.(check int) "nothing popped at the expiry instant" 0 (List.length (Worm.expire_due env.store));
  (match Worm.next_rm_wakeup env.store with
  | Some t -> Alcotest.(check int64) "alarm at the next instant" (Int64.succ expiry) t
  | None -> Alcotest.fail "alarm lost");
  Clock.advance_to env.clock (Int64.succ expiry);
  (match Worm.expire_due env.store with
  | [ (sn', Ok ()) ] -> Alcotest.(check int64) "deleted at the next instant" (Serial.to_int64 sn) (Serial.to_int64 sn')
  | outcomes -> Alcotest.failf "expected one deletion, got %d outcome(s)" (List.length outcomes));
  check_verdict "deletion proven" "properly-deleted" env sn

let test_deferred_queue_and_strengthen () =
  let env = fresh_env () in
  let sns = write_n env ~witness:Firmware.Weak_deferred 5 in
  Alcotest.(check int) "queued" 5 (List.length (Worm.deferred_backlog env.store));
  Alcotest.(check int) "none overdue yet" 0 (List.length (Worm.deferred_overdue env.store ~now:(Clock.now env.clock)));
  let n = Worm.strengthen_pending env.store ~max:2 () in
  Alcotest.(check int) "partial drain" 2 n;
  Alcotest.(check int) "three left" 3 (List.length (Worm.deferred_backlog env.store));
  let n = Worm.strengthen_pending env.store () in
  Alcotest.(check int) "rest drained" 3 n;
  List.iter
    (fun sn ->
      match Vrdt.find (Worm.vrdt env.store) sn with
      | Some (Vrdt.Active vrd) ->
          Alcotest.(check string) "strong now" "strong" (Witness.strength_name (Vrd.weakest_strength vrd))
      | _ -> Alcotest.fail "missing")
    sns

let test_host_hash_mode_audit_flow () =
  let config = { Worm.default_config with datasig_mode = Worm.Host_hash } in
  let env = fresh_env ~config () in
  let sn = write env ~blocks:[ "data" ] () in
  Alcotest.(check (list int64)) "audit queued" [ Serial.to_int64 sn ]
    (List.map Serial.to_int64 (Worm.audit_backlog env.store));
  Alcotest.(check bool) "host did hashing work" true (Worm.host_busy_ns env.store > 0L);
  let outcome = Worm.run_audits env.store () in
  Alcotest.(check int) "audited" 1 outcome.Worm.audited;
  Alcotest.(check int) "no mismatches" 0 (List.length outcome.Worm.mismatches);
  Alcotest.(check int) "queue empty" 0 (List.length (Worm.audit_backlog env.store));
  check_verdict "verifies end to end" "valid-data" env sn

let test_host_hash_weak_strengthen_runs_audit () =
  let config = { Worm.default_config with datasig_mode = Worm.Host_hash } in
  let env = fresh_env ~config () in
  let sn = write env ~witness:Firmware.Weak_deferred ~blocks:[ "data" ] () in
  ignore (Worm.strengthen_pending env.store ());
  Alcotest.(check int) "audit satisfied during strengthening" 0 (List.length (Worm.audit_backlog env.store));
  check_verdict "valid" "valid-data" env sn

let test_compaction_creates_windows () =
  let env = fresh_env () in
  (* write 8; keep sn1 and sn8 alive so base cannot swallow the run *)
  let long = short_policy ~retention_s:10_000. () in
  let sn1 = Worm.write env.store ~policy:long ~blocks:[ "keep" ] in
  let middle = write_n env ~retention_s:50. 6 in
  let sn8 = Worm.write env.store ~policy:long ~blocks:[ "keep" ] in
  ignore (expire_all env ~after_s:60.);
  let expelled = Worm.compact_windows env.store in
  Alcotest.(check int) "six entries expelled" 6 expelled;
  Alcotest.(check int) "one window" 1 (List.length (Worm.deletion_windows env.store));
  let w = List.hd (Worm.deletion_windows env.store) in
  Alcotest.(check (pair int64 int64)) "window bounds" (2L, 7L)
    (Serial.to_int64 w.Firmware.lo, Serial.to_int64 w.Firmware.hi);
  (* reads inside the window serve the window proof and clients accept *)
  List.iter (fun sn -> check_verdict "window proof ok" "properly-deleted" env sn) middle;
  check_verdict "live record before window fine" "valid-data" env sn1;
  check_verdict "live record after window fine" "valid-data" env sn8;
  (* VRDT shrank *)
  Alcotest.(check int) "only live entries remain" 2 (Vrdt.entry_count (Worm.vrdt env.store))

let test_compaction_skips_short_runs () =
  let env = fresh_env () in
  let long = short_policy ~retention_s:10_000. () in
  ignore (Worm.write env.store ~policy:long ~blocks:[ "a" ]);
  let d1 = write_n env ~retention_s:50. 2 in
  ignore (Worm.write env.store ~policy:long ~blocks:[ "b" ]);
  ignore (expire_all env ~after_s:60.);
  let expelled = Worm.compact_windows env.store in
  Alcotest.(check int) "run of 2 not collapsed" 0 expelled;
  List.iter (fun sn -> check_verdict "individual proofs still served" "properly-deleted" env sn) d1

let test_vexp_overflow_backlog_refeed () =
  let config = { Worm.default_config with vexp_capacity = 4 } in
  let env = fresh_env ~config () in
  (* Ascending retentions: the later writes expire later and are shed. *)
  let sns = List.init 10 (fun i -> write env ~policy:(short_policy ~retention_s:(50. +. float_of_int i) ()) ()) in
  Alcotest.(check bool) "backlog nonempty" true (List.length (Worm.deferred_backlog env.store) = 0);
  let backlog_after = Worm.refeed_vexp env.store in
  Alcotest.(check bool) "vexp capacity still binds" true (backlog_after >= 10 - 4);
  (* advance far enough for everything; deletion drains in waves *)
  Clock.advance env.clock (Clock.ns_of_sec 200.);
  let rec drain rounds deleted =
    if rounds = 0 then deleted
    else begin
      let n = List.length (Worm.expire_due env.store) in
      ignore (Worm.refeed_vexp env.store);
      drain (rounds - 1) (deleted + n)
    end
  in
  let total = drain 5 0 in
  Alcotest.(check int) "all eventually deleted" 10 total;
  List.iter (fun sn -> check_verdict "deleted" "properly-deleted" env sn) sns

let test_idle_tick_converges () =
  let config = { Worm.default_config with datasig_mode = Worm.Host_hash } in
  let env = fresh_env ~config () in
  let sns = write_n env ~witness:Firmware.Mac_deferred 10 in
  Worm.idle_tick env.store;
  Alcotest.(check int) "deferred drained" 0 (List.length (Worm.deferred_backlog env.store));
  Alcotest.(check int) "audits drained" 0 (List.length (Worm.audit_backlog env.store));
  List.iter (fun sn -> check_verdict "all verifiable" "valid-data" env sn) sns

let test_heartbeat_refreshes_bound () =
  let env = fresh_env () in
  ignore (write_n env 2);
  Worm.heartbeat env.store;
  let b1 = Worm.cached_current_bound env.store in
  Alcotest.(check int64) "covers writes" 2L (Serial.to_int64 b1.Firmware.sn);
  (* within the heartbeat interval the cache is served as-is *)
  Clock.advance env.clock (Clock.ns_of_sec 10.);
  let b2 = Worm.cached_current_bound env.store in
  Alcotest.(check int64) "same timestamp" b1.Firmware.timestamp b2.Firmware.timestamp;
  (* after the interval it refreshes *)
  Clock.advance env.clock (Clock.ns_of_sec 61.);
  let b3 = Worm.cached_current_bound env.store in
  Alcotest.(check bool) "timestamp advanced" true (b3.Firmware.timestamp > b1.Firmware.timestamp);
  (* the interval is 60 s: a bound exactly that old is served as-is, one
     nanosecond older and it is re-signed *)
  let age_to ns = Clock.advance env.clock (Int64.sub (Int64.add b3.Firmware.timestamp ns) (Clock.now env.clock)) in
  age_to (Clock.ns_of_sec 60.);
  let b4 = Worm.cached_current_bound env.store in
  Alcotest.(check int64) "served at exactly 60 s" b3.Firmware.timestamp b4.Firmware.timestamp;
  age_to (Int64.add (Clock.ns_of_sec 60.) 1L);
  let b5 = Worm.cached_current_bound env.store in
  Alcotest.(check bool) "re-signed at 60 s + 1 ns" true (b5.Firmware.timestamp > b3.Firmware.timestamp)

let test_litigation_via_store () =
  let env = fresh_env () in
  let authority = fresh_authority env in
  let sn = write env () in
  let timeout = Int64.add (Clock.now env.clock) (Clock.ns_of_days 365.) in
  (match Authority.place_hold authority ~store:env.store ~sn ~lit_id:"case-1" ~timeout with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Firmware.error_to_string e));
  (* the hold is visible to clients through the VRD *)
  (match Worm.read env.store sn with
  | Proof.Found { vrd; _ } ->
      Alcotest.(check bool) "attr shows hold" true (Attr.on_hold vrd.Vrd.attr ~now:(Clock.now env.clock))
  | r -> Alcotest.fail (Proof.describe r));
  (* expiry does not delete a held record *)
  let outcomes = expire_all env ~after_s:200. in
  Alcotest.(check bool) "hold blocked deletion" true
    (List.for_all (fun (_, r) -> r <> Ok ()) outcomes);
  check_verdict "still readable" "valid-data" env sn;
  (* release via store; RM needs a re-feed because the schedule moved *)
  (match Authority.release_hold authority ~store:env.store ~sn with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Firmware.error_to_string e));
  ignore (Worm.expire_due env.store);
  check_verdict "deleted after release" "properly-deleted" env sn

let test_hold_timeout_allows_deletion () =
  let env = fresh_env () in
  let authority = fresh_authority env in
  let sn = write env () in
  let timeout = Int64.add (Clock.now env.clock) (Clock.ns_of_sec 300.) in
  (match Authority.place_hold authority ~store:env.store ~sn ~lit_id:"case-2" ~timeout with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Firmware.error_to_string e));
  ignore (expire_all env ~after_s:150.);
  check_verdict "held" "valid-data" env sn;
  ignore (expire_all env ~after_s:200.);
  check_verdict "hold lapsed, deleted" "properly-deleted" env sn

let test_double_write_distinct_serials () =
  let env = fresh_env () in
  let sn1 = write env ~blocks:[ "same" ] () in
  let sn2 = write env ~blocks:[ "same" ] () in
  Alcotest.(check bool) "distinct" false (Serial.equal sn1 sn2);
  check_verdict "first fine" "valid-data" env sn1;
  check_verdict "second fine" "valid-data" env sn2

let test_empty_and_large_records () =
  let env = fresh_env () in
  let sn_empty = write env ~blocks:[ "" ] () in
  check_verdict "empty block round-trips" "valid-data" env sn_empty;
  let big = String.make 100_000 'B' in
  let sn_big = write env ~blocks:[ big; big ] () in
  match Worm.read env.store sn_big with
  | Proof.Found { blocks; _ } -> Alcotest.(check int) "200KB back" 200_000 (List.fold_left (fun a b -> a + String.length b) 0 blocks)
  | r -> Alcotest.fail (Proof.describe r)

let test_metrics_snapshot () =
  let env = fresh_env () in
  (* long-lived anchor first so the deleted run stays above the base *)
  ignore (write env ~policy:(short_policy ~retention_s:10_000. ()) ());
  ignore (write_n env ~retention_s:10. 3);
  ignore (expire_all env ~after_s:20.);
  let m = Worm.metrics env.store in
  Alcotest.(check int) "active" 1 m.Worm.m_active;
  Alcotest.(check int) "deletion proofs" 3 m.Worm.m_deleted_entries;
  Alcotest.(check int64) "current" 4L (Serial.to_int64 m.Worm.m_sn_current);
  Alcotest.(check int) "disk holds only live data" 1 m.Worm.m_disk_records;
  Alcotest.(check bool) "pp renders" true (String.length (Format.asprintf "%a" Worm.pp_metrics m) > 0);
  ignore (Worm.compact_windows env.store);
  let m' = Worm.metrics env.store in
  Alcotest.(check int) "window counted" 1 m'.Worm.m_windows;
  Alcotest.(check bool) "table shrank" true (m'.Worm.m_vrdt_bytes < m.Worm.m_vrdt_bytes)

let suite =
  [
    ("metrics snapshot", `Quick, test_metrics_snapshot);
    ("write/read lifecycle", `Quick, test_write_read_lifecycle);
    ("read responses by state", `Quick, test_read_responses_by_state);
    ("expiry shreds data", `Quick, test_expire_due_shreds_data);
    ("RM order and rescheduling", `Quick, test_rm_respects_order_and_reschedules);
    ("RM expiry boundary", `Quick, test_rm_expiry_boundary);
    ("deferred queue drains", `Quick, test_deferred_queue_and_strengthen);
    ("host-hash audit flow", `Quick, test_host_hash_mode_audit_flow);
    ("strengthen runs audits", `Quick, test_host_hash_weak_strengthen_runs_audit);
    ("compaction creates windows", `Quick, test_compaction_creates_windows);
    ("compaction skips short runs", `Quick, test_compaction_skips_short_runs);
    ("vexp overflow refeed", `Quick, test_vexp_overflow_backlog_refeed);
    ("idle tick converges", `Quick, test_idle_tick_converges);
    ("heartbeat refreshes bound", `Quick, test_heartbeat_refreshes_bound);
    ("litigation via store", `Quick, test_litigation_via_store);
    ("hold timeout allows deletion", `Quick, test_hold_timeout_allows_deletion);
    ("distinct serials for identical data", `Quick, test_double_write_distinct_serials);
    ("empty and large records", `Quick, test_empty_and_large_records);
  ]

let () = Alcotest.run "worm_store" [ ("worm", suite) ]
