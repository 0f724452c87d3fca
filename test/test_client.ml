(* Client-side verification: connect-time certificate validation,
   verdict mapping, bound freshness, and migration attestation. *)

open Worm_core
open Worm_testkit.Testkit
module Clock = Worm_simclock.Clock
module Cert = Worm_crypto.Cert
module Rsa = Worm_crypto.Rsa
module Drbg = Worm_crypto.Drbg

let test_connect_validates_certs () =
  let env = fresh_env () in
  let fw = Worm.firmware env.store in
  let signing_cert = Firmware.signing_cert fw in
  let deletion_cert = Firmware.deletion_cert fw in
  let store_id = Worm.store_id env.store in
  (* happy path *)
  (match Client.connect ~ca:(ca_pub ()) ~clock:env.clock ~signing_cert ~deletion_cert ~store_id () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* wrong CA *)
  let bogus_ca = Rsa.public_of (Rsa.generate rng ~bits:512) in
  (match Client.connect ~ca:bogus_ca ~clock:env.clock ~signing_cert ~deletion_cert ~store_id () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign CA accepted");
  (* swapped roles *)
  (match
     Client.connect ~ca:(ca_pub ()) ~clock:env.clock ~signing_cert:deletion_cert ~deletion_cert:signing_cert
       ~store_id ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "role swap accepted");
  (* tampered cert *)
  let forged = { signing_cert with Cert.subject = "evil" } in
  match Client.connect ~ca:(ca_pub ()) ~clock:env.clock ~signing_cert:forged ~deletion_cert ~store_id () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered cert accepted"

let test_verdicts_happy_paths () =
  let env = fresh_env () in
  let sn = write env () in
  check_verdict "valid data" "valid-data" env sn;
  check_verdict "never written" "never-written" env (Serial.of_int 999);
  ignore (expire_all env ~after_s:101.);
  check_verdict "properly deleted" "properly-deleted" env sn

let test_refusal_is_violation () =
  let env = fresh_env () in
  let sn = write env () in
  match Client.verify_read env.client ~sn (Proof.Refused "disk on fire") with
  | Client.Violation [ Client.Absence_unproven ] -> ()
  | v -> Alcotest.fail (Client.verdict_name v)

let test_wrong_serial_detected () =
  let env = fresh_env () in
  let sn1 = write env () in
  let sn2 = write env () in
  (* host answers the sn2 query with sn1's perfectly valid record *)
  let response = Worm.read env.store sn1 in
  match Client.verify_read env.client ~sn:sn2 response with
  | Client.Violation vs -> Alcotest.(check bool) "wrong serial flagged" true (List.mem Client.Wrong_serial vs)
  | v -> Alcotest.fail (Client.verdict_name v)

let test_deletion_proof_for_other_record_rejected () =
  let env = fresh_env () in
  let sn1 = write env ~policy:(short_policy ~retention_s:10. ()) () in
  let sn2 = write env ~policy:(short_policy ~retention_s:10_000. ()) () in
  ignore (expire_all env ~after_s:20.);
  (* serve sn1's genuine deletion proof for live sn2 *)
  match Worm.read env.store sn1 with
  | Proof.Proof_deleted { proof; _ } -> begin
      match Client.verify_read env.client ~sn:sn2 (Proof.Proof_deleted { sn = sn2; proof }) with
      | Client.Violation [ Client.Deletion_proof_invalid ] -> ()
      | v -> Alcotest.fail (Client.verdict_name v)
    end
  | r -> Alcotest.fail (Proof.describe r)

let test_stale_current_bound_rejected () =
  let env = fresh_env () in
  ignore (write env ());
  Worm.heartbeat env.store;
  let stale = Worm.cached_current_bound env.store in
  Clock.advance env.clock (Clock.ns_of_min 6.) (* past the 5 min default *);
  match Client.verify_read env.client ~sn:(Serial.of_int 50) (Proof.Proof_unallocated stale) with
  | Client.Violation [ Client.Stale_current_bound ] -> ()
  | v -> Alcotest.fail (Client.verdict_name v)

let test_unallocated_claim_for_allocated_sn () =
  let env = fresh_env () in
  let sn = write env () in
  Worm.heartbeat env.store;
  let fresh = Worm.cached_current_bound env.store in
  (* bound is genuine and fresh, but sn <= bound: the claim proves nothing *)
  match Client.verify_read env.client ~sn (Proof.Proof_unallocated fresh) with
  | Client.Violation [ Client.Absence_unproven ] -> ()
  | v -> Alcotest.fail (Client.verdict_name v)

let test_expired_base_bound_rejected () =
  let env = fresh_env () in
  let sn = write env ~policy:(short_policy ~retention_s:10. ()) () in
  ignore (expire_all env ~after_s:20.);
  ignore (Worm.compact_windows env.store);
  let bound = Worm.cached_base_bound env.store in
  Clock.advance env.clock (Clock.ns_of_hours 2.) (* base bounds carry 1h expiry *);
  match Client.verify_read env.client ~sn (Proof.Proof_below_base bound) with
  | Client.Violation [ Client.Base_bound_expired ] -> ()
  | v -> Alcotest.fail (Client.verdict_name v)

let test_base_bound_not_covering_rejected () =
  let env = fresh_env () in
  let sn1 = write env ~policy:(short_policy ~retention_s:10. ()) () in
  let sn2 = write env () in
  ignore (expire_all env ~after_s:20.);
  ignore (Worm.compact_windows env.store);
  let bound = Worm.cached_base_bound env.store in
  Alcotest.(check int64) "base is sn2" (Serial.to_int64 sn2) (Serial.to_int64 bound.Firmware.sn);
  ignore sn1;
  (* claiming the still-live sn2 is below base *)
  match Client.verify_read env.client ~sn:sn2 (Proof.Proof_below_base bound) with
  | Client.Violation [ Client.Base_does_not_cover ] -> ()
  | v -> Alcotest.fail (Client.verdict_name v)

let test_window_not_covering_rejected () =
  let env = fresh_env () in
  let long = short_policy ~retention_s:10_000. () in
  ignore (Worm.write env.store ~policy:long ~blocks:[ "keep" ]);
  ignore (write_n env ~retention_s:10. 3);
  let victim = Worm.write env.store ~policy:long ~blocks:[ "victim" ] in
  ignore (expire_all env ~after_s:20.);
  ignore (Worm.compact_windows env.store);
  let w = List.hd (Worm.deletion_windows env.store) in
  (* genuine window [2,4] presented for live sn5 *)
  match Client.verify_read env.client ~sn:victim (Proof.Proof_in_window w) with
  | Client.Violation [ Client.Window_does_not_cover ] -> ()
  | v -> Alcotest.fail (Client.verdict_name v)

let test_lapsed_weak_witness_rejected () =
  (* a dishonest host never strengthened a burst record; once the weak
     key's lifetime passes, clients refuse the witness *)
  let env = fresh_env () in
  let sn = write env ~witness:Firmware.Weak_deferred () in
  check_verdict "weak verifies within lifetime" "valid-data" env sn;
  let lifetime = (Worm_scpu.Device.config env.device).Worm_scpu.Device.weak_lifetime_ns in
  Clock.advance env.clock (Int64.add lifetime (Clock.ns_of_sec 1.));
  match verdict env sn with
  | Client.Violation vs ->
      Alcotest.(check bool) "meta witness flagged" true (List.mem Client.Meta_witness_invalid vs)
  | v -> Alcotest.fail (Client.verdict_name v)

let test_weak_cert_verified_once () =
  (* every record a short-term key witnessed carries the same
     certificate: its CA signature is checked once, later reads hit the
     memo, and the validity window is still checked on every read *)
  let env = fresh_env () in
  let sn1 = write env ~witness:Firmware.Weak_deferred () in
  let sn2 = write env ~witness:Firmware.Weak_deferred () in
  let stats () =
    match Client.verify_cache_stats env.client with
    | Some s -> (s.Client.cache_hits, s.Client.cache_misses)
    | None -> Alcotest.fail "client has no verify memo"
  in
  let hits0, misses0 = stats () in
  check_verdict "first weak read" "valid-data" env sn1;
  check_verdict "second weak read" "valid-data" env sn2;
  let hits1, misses1 = stats () in
  Alcotest.(check int) "certificate signature verified once" 1 (misses1 - misses0);
  Alcotest.(check int) "other three certificate checks hit the memo" 3 (hits1 - hits0);
  match Worm.read env.store sn1 with
  | Proof.Found { vrd; blocks } -> (
      let widen = function
        | Witness.Weak { cert; signature } ->
            Witness.Weak { cert = { cert with Cert.not_after = Int64.max_int }; signature }
        | w -> Alcotest.fail ("expected a weak witness, got " ^ Witness.strength_name (Witness.strength w))
      in
      let vrd = { vrd with Vrd.metasig = widen vrd.Vrd.metasig } in
      match Client.verify_read env.client ~sn:sn1 (Proof.Found { vrd; blocks }) with
      | Client.Violation vs ->
          Alcotest.(check bool) "widened certificate rejected" true (List.mem Client.Meta_witness_invalid vs)
      | v -> Alcotest.fail (Client.verdict_name v))
  | _ -> Alcotest.fail "record not found"

let test_fanned_read_memo_deterministic () =
  (* a Strong-meta / Weak-data read fans out on two domains; only its
     data side looks up the memo, so ten reads miss exactly once *)
  let env = fresh_env () in
  let sn = write_held_weak env in
  let response = Worm.read env.store sn in
  (match response with
  | Proof.Found { vrd; _ } ->
      Alcotest.(check (pair string string)) "witness strengths" ("strong", "weak")
        (Witness.strength_name (Witness.strength vrd.Vrd.metasig), Witness.strength_name (Witness.strength vrd.Vrd.datasig))
  | _ -> Alcotest.fail "record not found");
  let stats () =
    match Client.verify_cache_stats env.client with
    | Some s -> (s.Client.cache_hits, s.Client.cache_misses)
    | None -> Alcotest.fail "client has no verify memo"
  in
  let domains () = (Worm_util.Codec.pool_stats ()).Worm_util.Codec.pool_domains in
  let hits0, misses0 = stats () and domains0 = domains () in
  Worm_util.Pool.with_pool ~domains:2 (fun pool ->
      for _ = 1 to 10 do
        match Client.verify_read_many ~pool env.client [ (sn, response) ] with
        | [ (_, v) ] -> Alcotest.(check string) "fanned read verifies" "valid-data" (Client.verdict_name v)
        | _ -> Alcotest.fail "one verdict per item"
      done);
  let hits1, misses1 = stats () in
  Alcotest.(check int) "certificate signature verified once" 1 (misses1 - misses0);
  Alcotest.(check int) "other nine certificate checks hit the memo" 9 (hits1 - hits0);
  (* the weak side encodes memo keys; it stays on this domain, whose
     encoders are warm, so the worker domain never builds one *)
  Alcotest.(check int) "no encoder built on the worker domain" domains0 (domains ())

let test_direct_scpu_freshness_ignores_timestamps () =
  (* under option (i) even an ancient served bound is fine — the client
     substitutes its own direct query *)
  let env = fresh_env () in
  ignore (write env ());
  Worm.heartbeat env.store;
  let old_bound = Worm.cached_current_bound env.store in
  Clock.advance env.clock (Clock.ns_of_hours 3.);
  let fw = Worm.firmware env.store in
  let client_i =
    Client.for_store ~ca:(ca_pub ()) ~clock:env.clock
      ~freshness:(Client.Direct_scpu (fun () -> Firmware.current_bound fw))
      env.store
  in
  match Client.verify_read client_i ~sn:(Serial.of_int 50) (Proof.Proof_unallocated old_bound) with
  | Client.Never_written -> ()
  | v -> Alcotest.fail (Client.verdict_name v)

let test_migration_attestation_check () =
  let env = fresh_env () in
  ignore (write env ());
  let fake_hash = String.make 32 'h' in
  let manifest =
    Firmware.attest_migration (Worm.firmware env.store) ~target_store_id:"target-1" ~content_hash:fake_hash
  in
  Alcotest.(check bool) "genuine manifest verifies" true
    (Client.verify_migration env.client ~target_store_id:"target-1"
       ~base:(Firmware.sn_base (Worm.firmware env.store))
       ~current:(Firmware.sn_current (Worm.firmware env.store))
       ~content_hash:fake_hash ~manifest_sig:manifest);
  Alcotest.(check bool) "different target rejected" false
    (Client.verify_migration env.client ~target_store_id:"target-2"
       ~base:(Firmware.sn_base (Worm.firmware env.store))
       ~current:(Firmware.sn_current (Worm.firmware env.store))
       ~content_hash:fake_hash ~manifest_sig:manifest);
  Alcotest.(check bool) "different window rejected" false
    (Client.verify_migration env.client ~target_store_id:"target-1" ~base:(Serial.of_int 0)
       ~current:(Firmware.sn_current (Worm.firmware env.store))
       ~content_hash:fake_hash ~manifest_sig:manifest)

let test_client_of_other_store_rejects () =
  (* statements are bound to the store identity: a verdict formed against
     store A's responses cannot be validated by store B's client *)
  let env_a = fresh_env () in
  let env_b = fresh_env () in
  let sn = write env_a () in
  let response = Worm.read env_a.store sn in
  match Client.verify_read env_b.client ~sn response with
  | Client.Violation _ -> ()
  | v -> Alcotest.fail (Client.verdict_name v)

let suite =
  [
    ("connect validates certs", `Quick, test_connect_validates_certs);
    ("happy-path verdicts", `Quick, test_verdicts_happy_paths);
    ("refusal is violation", `Quick, test_refusal_is_violation);
    ("wrong serial detected", `Quick, test_wrong_serial_detected);
    ("replayed deletion proof rejected", `Quick, test_deletion_proof_for_other_record_rejected);
    ("stale current bound rejected", `Quick, test_stale_current_bound_rejected);
    ("unallocated claim for live sn", `Quick, test_unallocated_claim_for_allocated_sn);
    ("expired base bound rejected", `Quick, test_expired_base_bound_rejected);
    ("base not covering rejected", `Quick, test_base_bound_not_covering_rejected);
    ("window not covering rejected", `Quick, test_window_not_covering_rejected);
    ("lapsed weak witness rejected", `Quick, test_lapsed_weak_witness_rejected);
    ("weak certificate verified once", `Quick, test_weak_cert_verified_once);
    ("fanned strong-meta weak-data read misses the memo once", `Quick, test_fanned_read_memo_deterministic);
    ("direct-SCPU freshness (option i)", `Quick, test_direct_scpu_freshness_ignores_timestamps);
    ("migration attestation", `Quick, test_migration_attestation_check);
    ("cross-store responses rejected", `Quick, test_client_of_other_store_rejects);
  ]

let () = Alcotest.run "worm_client" [ ("client", suite) ]
