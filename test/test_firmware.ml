(* Trusted firmware entry points, exercised directly: serial issuance,
   witnessing modes, deletion enforcement, bounds, deletion windows,
   litigation holds, host-hash audits, VEXP interplay. *)

open Worm_core
open Worm_testkit.Testkit
module Device = Worm_scpu.Device
module Clock = Worm_simclock.Clock
module Rsa = Worm_crypto.Rsa
module Cert = Worm_crypto.Cert
module Chained_hash = Worm_crypto.Chained_hash

let fw env = Worm.firmware env.store

let fw_write ?(mode = Firmware.Strong_now) env blocks =
  let attr = Attr.make ~created_at:0L ~policy:(short_policy ()) () in
  Firmware.write (fw env) ~attr ~rdl:[] ~data:(Firmware.Blocks blocks) ~mode

let test_serial_issuance_consecutive () =
  let env = fresh_env () in
  Alcotest.(check int64) "starts at zero" 0L (Serial.to_int64 (Firmware.sn_current (fw env)));
  let r1 = fw_write env [ "a" ] in
  let r2 = fw_write env [ "b" ] in
  let r3 = fw_write env [ "c" ] in
  Alcotest.(check (list int64)) "consecutive" [ 1L; 2L; 3L ]
    (List.map (fun r -> Serial.to_int64 r.Firmware.vrd.Vrd.sn) [ r1; r2; r3 ]);
  Alcotest.(check int64) "base stays at first" 1L (Serial.to_int64 (Firmware.sn_base (fw env)))

let test_created_at_stamped_by_firmware () =
  let env = fresh_env () in
  Clock.advance env.clock 123456L;
  let attr = Attr.make ~created_at:999_999_999L (* lying host *) ~policy:(short_policy ()) () in
  let r = Firmware.write (fw env) ~attr ~rdl:[] ~data:(Firmware.Blocks [ "x" ]) ~mode:Firmware.Strong_now in
  Alcotest.(check int64) "firmware clock wins" 123456L r.Firmware.vrd.Vrd.attr.Attr.created_at

let test_witness_modes_shape () =
  let env = fresh_env () in
  let strong = (fw_write ~mode:Firmware.Strong_now env [ "a" ]).Firmware.vrd in
  let weak = (fw_write ~mode:Firmware.Weak_deferred env [ "b" ]).Firmware.vrd in
  let mac = (fw_write ~mode:Firmware.Mac_deferred env [ "c" ]).Firmware.vrd in
  Alcotest.(check string) "strong" "strong" (Witness.strength_name (Vrd.weakest_strength strong));
  Alcotest.(check string) "weak" "weak" (Witness.strength_name (Vrd.weakest_strength weak));
  Alcotest.(check string) "mac" "mac" (Witness.strength_name (Vrd.weakest_strength mac))

let test_delete_before_expiry_refused () =
  let env = fresh_env () in
  let r = fw_write env [ "keep" ] in
  match Firmware.delete (fw env) ~vrd_bytes:(Vrd.to_bytes r.Firmware.vrd) with
  | Error (Firmware.Not_expired t) ->
      Alcotest.(check int64) "reports real expiry" (Attr.expiry r.Firmware.vrd.Vrd.attr) t
  | Ok _ -> Alcotest.fail "premature delete allowed"
  | Error e -> Alcotest.fail (Firmware.error_to_string e)

let test_delete_after_expiry_produces_proof () =
  let env = fresh_env () in
  let r = fw_write env [ "old" ] in
  Clock.advance env.clock (Clock.ns_of_sec 101.);
  match Firmware.delete (fw env) ~vrd_bytes:(Vrd.to_bytes r.Firmware.vrd) with
  | Ok proof ->
      let dcert = Firmware.deletion_cert (fw env) in
      let msg = Wire.deletion_msg ~store_id:(Firmware.store_id (fw env)) ~sn:r.Firmware.vrd.Vrd.sn in
      Alcotest.(check bool) "proof verifies under d" true (Rsa.verify dcert.Cert.key ~msg ~signature:proof);
      Alcotest.(check int64) "base advanced" 2L (Serial.to_int64 (Firmware.sn_base (fw env)));
      (* double delete refused *)
      (match Firmware.delete (fw env) ~vrd_bytes:(Vrd.to_bytes r.Firmware.vrd) with
      | Error Firmware.Already_deleted -> ()
      | _ -> Alcotest.fail "double delete not refused")
  | Error e -> Alcotest.fail (Firmware.error_to_string e)

let test_delete_rejects_forged_vrd () =
  let env = fresh_env () in
  let r = fw_write env [ "target" ] in
  Clock.advance env.clock (Clock.ns_of_sec 101.);
  (* host shortens the retention inside the VRD it presents *)
  let vrd = r.Firmware.vrd in
  let forged_attr =
    { vrd.Vrd.attr with Attr.policy = Policy.custom ~name:"fake" ~retention_ns:1L ~shred_passes:1 }
  in
  let forged = { vrd with Vrd.attr = forged_attr } in
  (match Firmware.delete (fw env) ~vrd_bytes:(Vrd.to_bytes forged) with
  | Error Firmware.Bad_witness -> ()
  | _ -> Alcotest.fail "forged attr accepted");
  (* garbage VRD *)
  match Firmware.delete (fw env) ~vrd_bytes:"garbage" with
  | Error Firmware.Malformed_vrd -> ()
  | _ -> Alcotest.fail "garbage accepted"

let test_base_advance_skips_gaps () =
  let env = fresh_env () in
  let rs = List.map (fun i -> (fw_write env [ string_of_int i ]).Firmware.vrd) [ 1; 2; 3; 4 ] in
  Clock.advance env.clock (Clock.ns_of_sec 101.);
  let del i = Firmware.delete (fw env) ~vrd_bytes:(Vrd.to_bytes (List.nth rs i)) in
  (* delete sn2 first: base must not move *)
  (match del 1 with Ok _ -> () | Error e -> Alcotest.fail (Firmware.error_to_string e));
  Alcotest.(check int64) "base unmoved" 1L (Serial.to_int64 (Firmware.sn_base (fw env)));
  Alcotest.(check int) "deleted-set holds the gap" 1 (Firmware.deleted_set_size (fw env));
  (* delete sn1: base jumps over the already-deleted sn2 to sn3 *)
  (match del 0 with Ok _ -> () | Error e -> Alcotest.fail (Firmware.error_to_string e));
  Alcotest.(check int64) "base jumps to 3" 3L (Serial.to_int64 (Firmware.sn_base (fw env)));
  Alcotest.(check int) "gap absorbed" 0 (Firmware.deleted_set_size (fw env))

let test_bounds_verify () =
  let env = fresh_env () in
  ignore (fw_write env [ "a" ]);
  let scert = Firmware.signing_cert (fw env) in
  let store_id = Firmware.store_id (fw env) in
  let cb = Firmware.current_bound (fw env) in
  Alcotest.(check int64) "current = 1" 1L (Serial.to_int64 cb.Firmware.sn);
  let cmsg = Wire.current_bound_msg ~store_id ~sn:cb.Firmware.sn ~timestamp:cb.Firmware.timestamp in
  Alcotest.(check bool) "current bound verifies" true
    (Rsa.verify scert.Cert.key ~msg:cmsg ~signature:cb.Firmware.signature);
  let bb = Firmware.base_bound (fw env) in
  let bmsg = Wire.base_bound_msg ~store_id ~sn:bb.Firmware.sn ~expires_at:bb.Firmware.expires_at in
  Alcotest.(check bool) "base bound verifies" true
    (Rsa.verify scert.Cert.key ~msg:bmsg ~signature:bb.Firmware.signature);
  Alcotest.(check bool) "base bound has future expiry" true
    (bb.Firmware.expires_at > Device.now env.device)

let delete_range env rs los his =
  List.iter
    (fun i ->
      match Firmware.delete (fw env) ~vrd_bytes:(Vrd.to_bytes (List.nth rs i)) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "delete %d: %s" i (Firmware.error_to_string e))
    (List.init (his - los + 1) (fun k -> los + k))

let test_deletion_window_requires_fully_deleted_run () =
  let env = fresh_env () in
  let rs = List.map (fun i -> (fw_write env [ string_of_int i ]).Firmware.vrd) [ 1; 2; 3; 4; 5; 6 ] in
  Clock.advance env.clock (Clock.ns_of_sec 101.);
  (* delete sn2..sn4 but keep sn5 live; sn1 kept live so base stays *)
  delete_range env rs 1 3;
  (* too small *)
  (match Firmware.collapse_window (fw env) ~lo:(Serial.of_int 2) ~hi:(Serial.of_int 3) with
  | Error Firmware.Window_too_small -> ()
  | _ -> Alcotest.fail "2-record window accepted");
  (* contains live record *)
  (match Firmware.collapse_window (fw env) ~lo:(Serial.of_int 2) ~hi:(Serial.of_int 5) with
  | Error (Firmware.Not_fully_deleted live) -> Alcotest.(check int64) "names the live sn" 5L (Serial.to_int64 live)
  | _ -> Alcotest.fail "window over live record accepted");
  (* correct window *)
  match Firmware.collapse_window (fw env) ~lo:(Serial.of_int 2) ~hi:(Serial.of_int 4) with
  | Ok w ->
      let scert = Firmware.signing_cert (fw env) in
      let store_id = Firmware.store_id (fw env) in
      Alcotest.(check bool) "lo sig verifies" true
        (Rsa.verify scert.Cert.key
           ~msg:(Wire.deletion_window_lo_msg ~store_id ~window_id:w.Firmware.window_id ~sn:w.Firmware.lo)
           ~signature:w.Firmware.sig_lo);
      Alcotest.(check bool) "hi sig verifies" true
        (Rsa.verify scert.Cert.key
           ~msg:(Wire.deletion_window_hi_msg ~store_id ~window_id:w.Firmware.window_id ~sn:w.Firmware.hi)
           ~signature:w.Firmware.sig_hi);
      Alcotest.(check int) "window id is 16 bytes" 16 (String.length w.Firmware.window_id)
  | Error e -> Alcotest.fail (Firmware.error_to_string e)

let test_window_ids_unique () =
  let env = fresh_env () in
  let rs = List.map (fun i -> (fw_write env [ string_of_int i ]).Firmware.vrd) [ 1; 2; 3; 4; 5; 6; 7 ] in
  Clock.advance env.clock (Clock.ns_of_sec 101.);
  delete_range env rs 1 6;
  let w1 =
    match Firmware.collapse_window (fw env) ~lo:(Serial.of_int 2) ~hi:(Serial.of_int 4) with
    | Ok w -> w
    | Error e -> Alcotest.fail (Firmware.error_to_string e)
  in
  let w2 =
    match Firmware.collapse_window (fw env) ~lo:(Serial.of_int 5) ~hi:(Serial.of_int 7) with
    | Ok w -> w
    | Error e -> Alcotest.fail (Firmware.error_to_string e)
  in
  Alcotest.(check bool) "window ids differ" false (String.equal w1.Firmware.window_id w2.Firmware.window_id)

let test_strengthen_upgrades_and_respects_lifetime () =
  let env = fresh_env () in
  let r = fw_write ~mode:Firmware.Weak_deferred env [ "burst" ] in
  (* within lifetime: upgrade works *)
  (match Firmware.strengthen (fw env) ~vrd_bytes:(Vrd.to_bytes r.Firmware.vrd) ~data:(Firmware.Blocks [ "burst" ]) with
  | Ok vrd' -> Alcotest.(check string) "now strong" "strong" (Witness.strength_name (Vrd.weakest_strength vrd'))
  | Error e -> Alcotest.fail (Firmware.error_to_string e));
  (* past lifetime: weak witnesses are no longer honored *)
  let r2 = fw_write ~mode:Firmware.Weak_deferred env [ "late" ] in
  Clock.advance env.clock (Int64.add (Device.config env.device).Device.weak_lifetime_ns (Clock.ns_of_sec 1.));
  match Firmware.strengthen (fw env) ~vrd_bytes:(Vrd.to_bytes r2.Firmware.vrd) ~data:(Firmware.Blocks [ "late" ]) with
  | Error Firmware.Bad_witness -> ()
  | Ok _ -> Alcotest.fail "lapsed weak witness honored"
  | Error e -> Alcotest.fail (Firmware.error_to_string e)

let test_mac_strengthen () =
  let env = fresh_env () in
  let r = fw_write ~mode:Firmware.Mac_deferred env [ "mac" ] in
  match Firmware.strengthen (fw env) ~vrd_bytes:(Vrd.to_bytes r.Firmware.vrd) ~data:(Firmware.Blocks [ "mac" ]) with
  | Ok vrd' -> Alcotest.(check string) "strong" "strong" (Witness.strength_name (Vrd.weakest_strength vrd'))
  | Error e -> Alcotest.fail (Firmware.error_to_string e)

let test_host_hash_audit () =
  let env = fresh_env () in
  let blocks = [ "block-one"; "block-two" ] in
  let honest_hash = Chained_hash.value (Chained_hash.of_blocks blocks) in
  let attr = Attr.make ~created_at:0L ~policy:(short_policy ()) () in
  let r =
    Firmware.write (fw env) ~attr ~rdl:[] ~data:(Firmware.Claimed_hash (honest_hash, 18)) ~mode:Firmware.Strong_now
  in
  Alcotest.(check (list int64)) "pending audit recorded" [ Serial.to_int64 r.Firmware.vrd.Vrd.sn ]
    (List.map Serial.to_int64 (Firmware.pending_audit (fw env)));
  (* audit with wrong data: mismatch *)
  (match Firmware.audit (fw env) ~vrd_bytes:(Vrd.to_bytes r.Firmware.vrd) ~blocks:[ "forged" ] with
  | Error Firmware.Audit_mismatch -> ()
  | _ -> Alcotest.fail "forged data passed audit");
  Alcotest.(check int) "still pending after failed audit" 1 (List.length (Firmware.pending_audit (fw env)));
  (* honest audit clears *)
  (match Firmware.audit (fw env) ~vrd_bytes:(Vrd.to_bytes r.Firmware.vrd) ~blocks with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Firmware.error_to_string e));
  Alcotest.(check int) "cleared" 0 (List.length (Firmware.pending_audit (fw env)))

let test_host_hash_lie_caught_at_strengthen () =
  let env = fresh_env () in
  let lie = String.make 32 'L' in
  let attr = Attr.make ~created_at:0L ~policy:(short_policy ()) () in
  let r =
    Firmware.write (fw env) ~attr ~rdl:[] ~data:(Firmware.Claimed_hash (lie, 4)) ~mode:Firmware.Weak_deferred
  in
  (* strengthening demands the data when an audit is pending *)
  (match
     Firmware.strengthen (fw env) ~vrd_bytes:(Vrd.to_bytes r.Firmware.vrd) ~data:(Firmware.Claimed_hash (lie, 4))
   with
  | Error Firmware.Data_required -> ()
  | _ -> Alcotest.fail "audit skipped at strengthen");
  match Firmware.strengthen (fw env) ~vrd_bytes:(Vrd.to_bytes r.Firmware.vrd) ~data:(Firmware.Blocks [ "real" ]) with
  | Error Firmware.Audit_mismatch -> ()
  | _ -> Alcotest.fail "hash lie survived strengthening"

let test_lit_hold_and_release () =
  let env = fresh_env () in
  let authority = fresh_authority env in
  let r = fw_write env [ "sued" ] in
  let sn = r.Firmware.vrd.Vrd.sn in
  let store_id = Firmware.store_id (fw env) in
  let timeout = Int64.add (Clock.now env.clock) (Clock.ns_of_days 30.) in
  let cred = Authority.hold_credential authority ~store_id ~sn ~lit_id:"case-9" in
  let held =
    match
      Firmware.lit_hold (fw env) ~vrd_bytes:(Vrd.to_bytes r.Firmware.vrd) ~authority:(Authority.cert authority)
        ~credential:cred ~lit_id:"case-9" ~timestamp:(Authority.now authority) ~timeout
    with
    | Ok vrd -> vrd
    | Error e -> Alcotest.fail (Firmware.error_to_string e)
  in
  Alcotest.(check bool) "attr carries hold" true (Attr.on_hold held.Vrd.attr ~now:(Clock.now env.clock));
  (* expired but held: delete refused *)
  Clock.advance env.clock (Clock.ns_of_sec 200.);
  (match Firmware.delete (fw env) ~vrd_bytes:(Vrd.to_bytes held) with
  | Error (Firmware.On_litigation_hold "case-9") -> ()
  | _ -> Alcotest.fail "hold not enforced");
  (* replaying the PRE-hold VRD must not unlock deletion *)
  (match Firmware.delete (fw env) ~vrd_bytes:(Vrd.to_bytes r.Firmware.vrd) with
  | Error (Firmware.On_litigation_hold _) -> ()
  | _ -> Alcotest.fail "pre-hold VRD replay unlocked deletion");
  (* release, then delete works *)
  let rcred = Authority.release_credential authority ~store_id ~sn ~lit_id:"case-9" in
  let released =
    match
      Firmware.lit_release (fw env) ~vrd_bytes:(Vrd.to_bytes held) ~authority:(Authority.cert authority)
        ~credential:rcred ~timestamp:(Authority.now authority)
    with
    | Ok vrd -> vrd
    | Error e -> Alcotest.fail (Firmware.error_to_string e)
  in
  match Firmware.delete (fw env) ~vrd_bytes:(Vrd.to_bytes released) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Firmware.error_to_string e)

let test_lit_hold_bad_credentials () =
  let env = fresh_env () in
  let authority = fresh_authority env in
  let imposter = fresh_authority env in
  let r = fw_write env [ "sued" ] in
  let sn = r.Firmware.vrd.Vrd.sn in
  let store_id = Firmware.store_id (fw env) in
  let timeout = Int64.add (Clock.now env.clock) (Clock.ns_of_days 30.) in
  let vrd_bytes = Vrd.to_bytes r.Firmware.vrd in
  (* credential signed by a different authority than the presented cert *)
  let cred = Authority.hold_credential imposter ~store_id ~sn ~lit_id:"case-9" in
  (match
     Firmware.lit_hold (fw env) ~vrd_bytes ~authority:(Authority.cert authority) ~credential:cred
       ~lit_id:"case-9" ~timestamp:(Authority.now authority) ~timeout
   with
  | Error Firmware.Bad_credential -> ()
  | _ -> Alcotest.fail "mismatched credential accepted");
  (* stale credential *)
  let old_cred = Authority.hold_credential authority ~store_id ~sn ~lit_id:"case-9" in
  let old_now = Authority.now authority in
  Clock.advance env.clock (Clock.ns_of_min 30.);
  (match
     Firmware.lit_hold (fw env) ~vrd_bytes ~authority:(Authority.cert authority) ~credential:old_cred
       ~lit_id:"case-9" ~timestamp:old_now ~timeout
   with
  | Error Firmware.Bad_credential -> ()
  | _ -> Alcotest.fail "stale credential accepted");
  (* release by a different authority than the holder *)
  let cred = Authority.hold_credential authority ~store_id ~sn ~lit_id:"case-9" in
  (match
     Firmware.lit_hold (fw env) ~vrd_bytes ~authority:(Authority.cert authority) ~credential:cred
       ~lit_id:"case-9" ~timestamp:(Authority.now authority) ~timeout
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Firmware.error_to_string e));
  let rogue_release = Authority.release_credential imposter ~store_id ~sn ~lit_id:"case-9" in
  match
    Firmware.lit_release (fw env) ~vrd_bytes ~authority:(Authority.cert imposter) ~credential:rogue_release
      ~timestamp:(Authority.now imposter)
  with
  | Error Firmware.Bad_credential -> ()
  | _ -> Alcotest.fail "foreign authority released the hold"

let test_rm_scheduling () =
  let env = fresh_env () in
  let attr retention = Attr.make ~created_at:0L ~policy:(short_policy ~retention_s:retention ()) () in
  let w retention =
    (Firmware.write (fw env) ~attr:(attr retention) ~rdl:[] ~data:(Firmware.Blocks [ "x" ])
       ~mode:Firmware.Strong_now)
      .Firmware.vrd
  in
  let _r300 = w 300. in
  let r100 = w 100. in
  (* the RM alarm targets the EARLIEST expiry even though it was written
     later, firing at the first instant strictly after it *)
  (match Firmware.next_rm_wakeup (fw env) with
  | Some t -> Alcotest.(check int64) "alarm just after 100s" (Int64.succ (Clock.ns_of_sec 100.)) t
  | None -> Alcotest.fail "no alarm");
  Clock.advance env.clock (Clock.ns_of_sec 150.);
  let due = Firmware.rm_pop_due (fw env) in
  Alcotest.(check (list int64)) "only the earlier record due" [ Serial.to_int64 r100.Vrd.sn ]
    (List.map (fun (_, s) -> Serial.to_int64 s) due);
  match Firmware.next_rm_wakeup (fw env) with
  | Some t -> Alcotest.(check int64) "next alarm just after 300s" (Int64.succ (Clock.ns_of_sec 300.)) t
  | None -> Alcotest.fail "second alarm missing"

let test_vexp_feed_rejects_deleted () =
  let env = fresh_env () in
  let r = fw_write env [ "x" ] in
  Clock.advance env.clock (Clock.ns_of_sec 101.);
  (match Firmware.delete (fw env) ~vrd_bytes:(Vrd.to_bytes r.Firmware.vrd) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Firmware.error_to_string e));
  let shed = Firmware.vexp_feed (fw env) [ (0L, r.Firmware.vrd.Vrd.sn) ] in
  Alcotest.(check int) "no shed" 0 (List.length shed);
  (* deleted SN is simply dropped, not rescheduled *)
  Alcotest.(check int) "vexp still empty of it" 0 (Firmware.vexp_length (fw env))

let test_import_rejects_weak_and_cross_store_replay () =
  let env1 = fresh_env () in
  let env2 = fresh_env () in
  let weak = (fw_write ~mode:Firmware.Weak_deferred env1 [ "w" ]).Firmware.vrd in
  let cert1 = Firmware.signing_cert (fw env1) in
  (match
     Firmware.import (fw env2) ~source_signing_cert:cert1 ~source_store_id:(Firmware.store_id (fw env1))
       ~vrd_bytes:(Vrd.to_bytes weak) ~blocks:[ "w" ]
   with
  | Error Firmware.Bad_witness -> ()
  | _ -> Alcotest.fail "weak-witnessed import accepted");
  let strong = (fw_write ~mode:Firmware.Strong_now env1 [ "s" ]).Firmware.vrd in
  (* wrong source store id: the witnesses bind the true store *)
  (match
     Firmware.import (fw env2) ~source_signing_cert:cert1 ~source_store_id:"some-other-store"
       ~vrd_bytes:(Vrd.to_bytes strong) ~blocks:[ "s" ]
   with
  | Error Firmware.Bad_witness -> ()
  | _ -> Alcotest.fail "cross-store replay accepted");
  (* data substitution during migration *)
  (match
     Firmware.import (fw env2) ~source_signing_cert:cert1 ~source_store_id:(Firmware.store_id (fw env1))
       ~vrd_bytes:(Vrd.to_bytes strong) ~blocks:[ "forged" ]
   with
  | Error Firmware.Audit_mismatch -> ()
  | _ -> Alcotest.fail "substituted data accepted");
  (* honest import works and preserves attributes *)
  match
    Firmware.import (fw env2) ~source_signing_cert:cert1 ~source_store_id:(Firmware.store_id (fw env1))
      ~vrd_bytes:(Vrd.to_bytes strong) ~blocks:[ "s" ]
  with
  | Ok { Firmware.vrd; _ } ->
      Alcotest.(check int64) "created_at preserved" strong.Vrd.attr.Attr.created_at vrd.Vrd.attr.Attr.created_at
  | Error e -> Alcotest.fail (Firmware.error_to_string e)

let test_read_path_touches_no_scpu () =
  let env = fresh_env () in
  let sns = write_n env 5 in
  Worm.heartbeat env.store;
  Device.reset_busy env.device;
  let before = Device.stats env.device in
  List.iter (fun sn -> ignore (Worm.read env.store sn)) sns;
  let after = Device.stats env.device in
  Alcotest.(check int64) "no SCPU time on reads" 0L (Device.busy_ns env.device);
  Alcotest.(check int) "no signatures on reads" before.Device.strong_signs after.Device.strong_signs

(* Total robustness: every firmware entry point must reject arbitrary
   host-supplied bytes with a typed error, never an exception — a
   crashing SCPU is a denial-of-service lever for Mallory. *)
let fuzz_env = lazy (fresh_env ())

let prop_firmware_total_on_garbage =
  QCheck.Test.make ~name:"firmware total on garbage vrd bytes" ~count:150 QCheck.string (fun junk ->
      let env = Lazy.force fuzz_env in
      let f = fw env in
      let ok = function
        | Ok _ | Error _ -> true
      in
      ok (Firmware.delete f ~vrd_bytes:junk)
      && ok (Firmware.strengthen f ~vrd_bytes:junk ~data:(Firmware.Blocks [ junk ]))
      && ok (Firmware.audit f ~vrd_bytes:junk ~blocks:[ junk ])
      && ok (Firmware.extend_retention f ~vrd_bytes:junk ~new_retention_ns:1L)
      && ok
           (Firmware.import f
              ~source_signing_cert:(Firmware.signing_cert f)
              ~source_store_id:junk ~vrd_bytes:junk ~blocks:[ junk ]))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_firmware_total_on_garbage;
    ("serials consecutive", `Quick, test_serial_issuance_consecutive);
    ("created_at stamped by firmware", `Quick, test_created_at_stamped_by_firmware);
    ("witness modes", `Quick, test_witness_modes_shape);
    ("premature delete refused", `Quick, test_delete_before_expiry_refused);
    ("expiry delete yields proof", `Quick, test_delete_after_expiry_produces_proof);
    ("forged VRD rejected", `Quick, test_delete_rejects_forged_vrd);
    ("base advance skips gaps", `Quick, test_base_advance_skips_gaps);
    ("bounds verify", `Quick, test_bounds_verify);
    ("deletion window rules", `Quick, test_deletion_window_requires_fully_deleted_run);
    ("window ids unique", `Quick, test_window_ids_unique);
    ("strengthen within lifetime", `Quick, test_strengthen_upgrades_and_respects_lifetime);
    ("mac strengthen", `Quick, test_mac_strengthen);
    ("host-hash audit", `Quick, test_host_hash_audit);
    ("hash lie caught at strengthen", `Quick, test_host_hash_lie_caught_at_strengthen);
    ("litigation hold/release", `Quick, test_lit_hold_and_release);
    ("litigation bad credentials", `Quick, test_lit_hold_bad_credentials);
    ("RM scheduling", `Quick, test_rm_scheduling);
    ("vexp feed drops deleted", `Quick, test_vexp_feed_rejects_deleted);
    ("migration import checks", `Quick, test_import_rejects_weak_and_cross_store_replay);
    ("reads touch no SCPU", `Quick, test_read_path_touches_no_scpu);
  ]

let () = Alcotest.run "worm_firmware" [ ("firmware", suite) ]
