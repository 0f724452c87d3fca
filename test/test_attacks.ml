(* The paper's threat model, executed: every attack Mallory (a super-user
   insider with physical access, §2.1) can mount with the powers the
   paper grants her, asserted DETECTED by verifying clients.

   Theorem 1: committed records cannot be altered or removed undetected.
   Theorem 2: insiders cannot hide active records by claiming they
   expired or were never stored. *)

open Worm_core
open Worm_testkit.Testkit
module Clock = Worm_simclock.Clock
module Disk = Worm_simdisk.Disk

let expect_violation name env sn =
  match verdict env sn with
  | Client.Violation _ -> ()
  | v -> Alcotest.failf "%s: expected violation, got %s" name (Client.verdict_name v)

let expect_violation_response name env sn response =
  match Client.verify_read env.client ~sn response with
  | Client.Violation _ -> ()
  | v -> Alcotest.failf "%s: expected violation, got %s" name (Client.verdict_name v)

(* ---------- Theorem 1: alteration ---------- *)

let test_data_tamper_detected () =
  let env = fresh_env () in
  let sn = write env ~blocks:[ "the original record" ] () in
  let mallory = Adversary.create env.store in
  Alcotest.(check bool) "tampered" true (Adversary.tamper_record_data mallory sn);
  expect_violation "bit flip on platter" env sn

let test_data_substitution_detected () =
  (* Mallory rewrites the data AND the VRDT's cached hash field; only the
     signatures resist her. *)
  let env = fresh_env () in
  let sn = write env ~blocks:[ "incriminating ledger" ] () in
  let mallory = Adversary.create env.store in
  Alcotest.(check bool) "substituted" true (Adversary.substitute_record_data mallory sn "sanitized ledger");
  (match verdict env sn with
  | Client.Violation vs ->
      Alcotest.(check bool) "datasig flagged" true (List.mem Client.Data_witness_invalid vs)
  | v -> Alcotest.failf "substitution: %s" (Client.verdict_name v))

let test_retention_shortening_detected_by_client () =
  let env = fresh_env () in
  let sn = write env ~policy:(short_policy ~retention_s:10_000. ()) () in
  let mallory = Adversary.create env.store in
  Alcotest.(check bool) "attr rewritten" true
    (Adversary.tamper_attr_retention mallory sn ~new_retention_ns:1L);
  (match verdict env sn with
  | Client.Violation vs ->
      Alcotest.(check bool) "metasig flagged" true (List.mem Client.Meta_witness_invalid vs)
  | v -> Alcotest.failf "retention tamper: %s" (Client.verdict_name v))

let test_retention_shortening_cannot_trigger_deletion () =
  (* Even if no client ever reads the record, the SCPU refuses to issue a
     deletion proof for the falsified attributes. *)
  let env = fresh_env () in
  let sn = write env ~policy:(short_policy ~retention_s:10_000. ()) () in
  let mallory = Adversary.create env.store in
  ignore (Adversary.tamper_attr_retention mallory sn ~new_retention_ns:1L);
  Clock.advance env.clock (Clock.ns_of_sec 100.);
  match Vrdt.find (Worm.vrdt env.store) sn with
  | Some (Vrdt.Active forged) -> begin
      match Firmware.delete (Worm.firmware env.store) ~vrd_bytes:(Vrd.to_bytes forged) with
      | Error Firmware.Bad_witness -> ()
      | Ok _ -> Alcotest.fail "SCPU deleted on forged attributes"
      | Error e -> Alcotest.failf "unexpected: %s" (Firmware.error_to_string e)
    end
  | _ -> Alcotest.fail "record vanished"

let test_premature_destruction_detected () =
  let env = fresh_env () in
  let sn = write env ~blocks:[ "evidence" ] () in
  let mallory = Adversary.create env.store in
  Alcotest.(check bool) "destroyed" true (Adversary.premature_destroy mallory sn);
  expect_violation "data destroyed, VRDT intact" env sn

let test_fake_deletion_proof_detected () =
  let env = fresh_env () in
  let sn = write env () in
  let mallory = Adversary.create env.store in
  Adversary.forge_deletion_proof mallory sn;
  expect_violation "fabricated deletion proof" env sn

let test_replayed_deletion_proof_detected () =
  let env = fresh_env () in
  let donor = write env ~policy:(short_policy ~retention_s:10. ()) () in
  let victim = write env ~policy:(short_policy ~retention_s:10_000. ()) () in
  ignore (expire_all env ~after_s:20.);
  let mallory = Adversary.create env.store in
  Alcotest.(check bool) "replayed" true (Adversary.replay_deletion_proof mallory ~victim ~donor);
  expect_violation "donor proof replayed for victim" env victim

let test_rollback_detected () =
  (* The replication attack of §1: copy the whole store, add a record,
     then restore the old image. The new record must not vanish
     silently. *)
  let env = fresh_env () in
  ignore (write env ~blocks:[ "before snapshot" ] ());
  Worm.heartbeat env.store;
  let mallory = Adversary.create env.store in
  Adversary.capture mallory;
  let sn_new = write env ~blocks:[ "after snapshot — the regretted record" ] () in
  Alcotest.(check bool) "rolled back" true (Adversary.rollback mallory);
  (* Time passes; the read path refreshes its bound from the SCPU, whose
     monotonic serial counter SURVIVED the media rollback — the reverted
     host has no consistent story left to tell. *)
  Clock.advance env.clock (Clock.ns_of_min 6.);
  let response = Worm.read env.store sn_new in
  expect_violation_response "rollback hides the record" env sn_new response

(* ---------- Theorem 2: hiding ---------- *)

let test_hiding_with_fresh_bound_impossible () =
  (* If Mallory hides the record but serves a FRESH current bound, the
     bound covers the record's SN and proves nothing. *)
  let env = fresh_env () in
  let sn = write env ~blocks:[ "hide me" ] () in
  let mallory = Adversary.create env.store in
  Alcotest.(check bool) "hidden" true (Adversary.hide_record mallory sn);
  (* past the heartbeat, the served bound covers sn: nothing to hide behind *)
  Clock.advance env.clock (Clock.ns_of_min 6.);
  expect_violation "hidden record, honest read path" env sn

let test_staleness_window_limitation () =
  (* Documented limitation of §4.2.1 option (ii): a record hidden within
     the bound-staleness tolerance of its write CAN transiently appear
     never-written, because a genuinely fresh bound predating the write
     still verifies. The paper's answer is the tolerance itself (a few
     minutes) or option (i), querying the SCPU directly. *)
  let env = fresh_env () in
  ignore (write env ());
  Worm.heartbeat env.store;
  let mallory = Adversary.create env.store in
  Adversary.capture mallory;
  let sn = write env ~blocks:[ "just written" ] () in
  ignore (Adversary.hide_record mallory sn);
  (match Adversary.read_with_stale_current mallory sn with
  | Some response -> begin
      match Client.verify_read env.client ~sn response with
      | Client.Never_written -> () (* the transient lie succeeds... *)
      | v -> Alcotest.failf "expected transient success, got %s" (Client.verdict_name v)
    end
  | None -> Alcotest.fail "no captured bound");
  (* ...but only within the tolerance: minutes later the same lie fails *)
  Clock.advance env.clock (Clock.ns_of_min 6.);
  match Adversary.read_with_stale_current mallory sn with
  | Some response -> expect_violation_response "lie expires with the bound" env sn response
  | None -> Alcotest.fail "no captured bound"

let test_option_i_closes_staleness_window () =
  (* §4.2.1 option (i): clients who query the SCPU directly for the
     current bound have NO hiding window, even transiently. *)
  let env = fresh_env () in
  let fw = Worm.firmware env.store in
  let direct = Client.Direct_scpu (fun () -> Firmware.current_bound fw) in
  let client_i = Client.for_store ~ca:(ca_pub ()) ~clock:env.clock ~freshness:direct env.store in
  ignore (write env ());
  Worm.heartbeat env.store;
  let mallory = Adversary.create env.store in
  Adversary.capture mallory;
  let sn = write env ~blocks:[ "just written" ] () in
  ignore (Adversary.hide_record mallory sn);
  (* zero time has passed; the captured bound is "fresh" by timestamp,
     but the direct query exposes the lie immediately *)
  match Adversary.read_with_stale_current mallory sn with
  | Some response -> begin
      match Client.verify_read client_i ~sn response with
      | Client.Violation _ -> ()
      | v -> Alcotest.failf "option (i) failed to close the window: %s" (Client.verdict_name v)
    end
  | None -> Alcotest.fail "no captured bound"

let test_hiding_with_stale_bound_detected () =
  (* ...and if she serves the CAPTURED pre-write bound instead, the
     client rejects it as stale (§4.2.1 option ii). *)
  let env = fresh_env () in
  ignore (write env ());
  Worm.heartbeat env.store;
  let mallory = Adversary.create env.store in
  Adversary.capture mallory;
  (* the regretted record is written after the capture *)
  let sn = write env ~blocks:[ "regretted" ] () in
  ignore (Adversary.hide_record mallory sn);
  (* client reads are not instantaneous: enough time passes for the
     captured bound to age out *)
  Clock.advance env.clock (Clock.ns_of_min 6.);
  match Adversary.read_with_stale_current mallory sn with
  | Some response -> expect_violation_response "stale bound replay" env sn response
  | None -> Alcotest.fail "no stale bound available"

let test_hidden_past_signed_bound_flagged_over_the_wire () =
  (* The honest server no longer re-signs SN_current before every
     request, so the cached bound routinely predates the newest writes.
     A record hidden in that gap, inside the staleness tolerance, must
     still be flagged — on a point read (the store answers from the
     SCPU counter, not the cached bound) and by the remote audit (the
     slice carries SN_current, so it re-signs and walks the gap). *)
  let module Remote_client = Worm_proto.Remote_client in
  let env = fresh_env () in
  ignore (write_n env ~retention_s:10_000. 2);
  Worm.heartbeat env.store;
  let sn = write env ~blocks:[ "written after the last bound" ] () in
  let tail = write env ~blocks:[ "bystander" ] () in
  let mallory = Adversary.create env.store in
  Alcotest.(check bool) "hidden" true (Adversary.hide_record mallory sn);
  let server = Worm_proto.Server.create env.store in
  let rc =
    match Remote_client.connect ~ca:(ca_pub ()) ~clock:env.clock (Worm_proto.Server.handle_bytes server) with
    | Ok rc -> rc
    | Error e -> Alcotest.fail e
  in
  (match Remote_client.read rc sn with
  | Client.Violation _ -> ()
  | v -> Alcotest.failf "point read: expected violation, got %s" (Client.verdict_name v));
  let audit = Remote_client.run_remote_audit rc in
  Alcotest.(check int) "audit walks every allocated serial" (Serial.to_int tail) audit.Remote_client.scanned;
  Alcotest.(check (list int64)) "only the hidden record flagged" [ Serial.to_int64 sn ]
    (List.map (fun (s, _) -> Serial.to_int64 s) audit.Remote_client.violations)

let test_stale_base_bound_replay_detected () =
  let env = fresh_env () in
  (* delete everything so the base moves, and capture the old base *)
  let sn1 = write env ~policy:(short_policy ~retention_s:10. ()) () in
  ignore (Worm.read env.store sn1);
  let mallory = Adversary.create env.store in
  Adversary.capture mallory;
  Clock.advance env.clock (Clock.ns_of_hours 2.);
  (* the captured base bound has expired; replaying it fails *)
  match Adversary.stale_base_response mallory with
  | Some response -> expect_violation_response "expired base bound" env sn1 response
  | None -> Alcotest.fail "no captured base"

let test_window_mix_and_match_detected () =
  (* Combine the lower bound of window A with the upper bound of window B
     to cover the live record between them — exactly what correlated
     window IDs prevent (§4.2.1). *)
  let env = fresh_env () in
  let long = short_policy ~retention_s:100_000. () in
  ignore (Worm.write env.store ~policy:long ~blocks:[ "anchor" ]);
  ignore (write_n env ~retention_s:10. 3) (* sns 2-4: window A *);
  let victim = Worm.write env.store ~policy:long ~blocks:[ "victim" ] (* sn 5 *) in
  ignore (write_n env ~retention_s:10. 3) (* sns 6-8: window B *);
  ignore (Worm.write env.store ~policy:long ~blocks:[ "anchor" ]);
  ignore (expire_all env ~after_s:20.);
  ignore (Worm.compact_windows env.store);
  let windows =
    List.sort (fun a b -> Serial.compare a.Firmware.lo b.Firmware.lo) (Worm.deletion_windows env.store)
  in
  match windows with
  | [ wa; wb ] ->
      let forged = Adversary.forge_window ~lo_from:wa ~hi_from:wb in
      (match Client.verify_read env.client ~sn:victim forged with
      | Client.Violation vs ->
          Alcotest.(check bool) "window bound mismatch flagged" true (List.mem Client.Window_bound_invalid vs)
      | v -> Alcotest.failf "mix-and-match: %s" (Client.verdict_name v));
      (* sanity: each genuine window alone does not cover the victim *)
      expect_violation_response "window A alone" env victim (Proof.Proof_in_window wa)
  | ws -> Alcotest.failf "expected 2 windows, got %d" (List.length ws)

let test_denying_server_always_caught () =
  (* A fully dishonest read server using its best available lie for every
     query about a live record is detected on every single one. *)
  let env = fresh_env () in
  Worm.heartbeat env.store;
  let mallory = Adversary.create env.store in
  Adversary.capture mallory;
  let sns = write_n env 8 in
  Clock.advance env.clock (Clock.ns_of_min 6.);
  List.iter
    (fun sn ->
      let response = Adversary.read_denying mallory sn in
      expect_violation_response "denial" env sn response)
    sns

let test_refusal_flagged_end_to_end () =
  (* A refusal is never a legitimate answer (Theorem 2): clients treat it
     as a violation, and the continuous scrubber classifies WHICH lie it
     is — destroyed data behind a live descriptor vs. a flat absence
     claim with no proof. *)
  let env = fresh_env () in
  Worm.heartbeat env.store;
  let destroyed = write env ~blocks:[ "destroy me" ] () in
  let hidden = write env ~blocks:[ "hide me" ] () in
  let bystander = write env ~blocks:[ "bystander" ] () in
  let mallory = Adversary.create env.store in
  Alcotest.(check bool) "destroyed" true (Adversary.premature_destroy mallory destroyed);
  Alcotest.(check bool) "hidden" true (Adversary.hide_record mallory hidden);
  (* past the staleness tolerance the refreshed bound covers the hidden
     serial, so the honest read path has nothing left but a refusal *)
  Clock.advance env.clock (Clock.ns_of_min 6.);
  (* both reads now come back Refused; no client accepts that *)
  expect_violation "destroyed data refused" env destroyed;
  expect_violation "hidden record refused" env hidden;
  (* the scrubber turns the same refusals into classified findings *)
  let module Scrubber = Worm_audit.Scrubber in
  let module Finding = Worm_audit.Finding in
  let s = Scrubber.create ~store:env.store ~client:env.client () in
  let report = Scrubber.run_pass s in
  let cls_of sn =
    match
      List.find_opt (fun f -> f.Finding.subject = Finding.Record sn) report.Worm_audit.Report.findings
    with
    | Some f -> Finding.cls_name f.Finding.cls
    | None -> Alcotest.failf "scrubber missed %s" (Serial.to_string sn)
  in
  Alcotest.(check string) "live descriptor, gone data" "unreadable" (cls_of destroyed);
  Alcotest.(check string) "no descriptor, no proof" "missing-proof" (cls_of hidden);
  Alcotest.(check int) "nothing else flagged" 2 (List.length report.Worm_audit.Report.findings);
  check_verdict "bystander untouched" "valid-data" env bystander

let test_cross_store_deletion_proof_rejected () =
  (* A deletion proof minted by ANOTHER Strong WORM store (same CA!) must
     not transplant: statements bind the store identity. *)
  let env_a = fresh_env () in
  let env_b = fresh_env () in
  let sn_b = write env_b ~policy:(short_policy ~retention_s:10. ()) () in
  ignore (expire_all env_b ~after_s:20.);
  let proof_b =
    match Worm.read env_b.store sn_b with
    | Proof.Proof_deleted { proof; _ } -> proof
    | r -> Alcotest.fail (Proof.describe r)
  in
  (* same SN exists and is live in store A *)
  let sn_a = write env_a () in
  Alcotest.(check int64) "same serial number" (Serial.to_int64 sn_b) (Serial.to_int64 sn_a);
  expect_violation_response "foreign deletion proof" env_a sn_a
    (Proof.Proof_deleted { sn = sn_a; proof = proof_b })

(* ---------- tamper response ---------- *)

let test_physical_attack_zeroizes () =
  let env = fresh_env () in
  let sn = write env () in
  (* reads continue to work from the host side *)
  Worm_scpu.Device.tamper_respond env.device;
  check_verdict "existing records still verifiable" "valid-data" env sn;
  (* but no new records can be witnessed *)
  match write env () with
  | exception Worm_scpu.Device.Tamper_detected -> ()
  | _ -> Alcotest.fail "zeroized SCPU still witnessing"

(* ---------- secure deletion (§1 requirement) ---------- *)

let test_secure_deletion_leaves_no_hints () =
  let env = fresh_env () in
  let sn = write env ~blocks:[ "top secret payload" ] ~policy:(short_policy ~retention_s:10. ()) () in
  let rdl =
    match Vrdt.find (Worm.vrdt env.store) sn with
    | Some (Vrdt.Active vrd) -> vrd.Vrd.rdl
    | _ -> Alcotest.fail "missing"
  in
  ignore (expire_all env ~after_s:20.);
  (* forensic media access recovers only overwrite patterns *)
  List.iter
    (fun rd ->
      match Disk.Raw.residue env.disk rd with
      | Some residue ->
          Alcotest.(check bool) "no plaintext" false (String.equal residue "top secret payload")
      | None -> Alcotest.fail "no residue record")
    rdl;
  (* and the VRDT entry is a deletion proof, not a ghost of the record *)
  match Vrdt.find (Worm.vrdt env.store) sn with
  | Some (Vrdt.Deleted _) -> ()
  | _ -> Alcotest.fail "VRDT still hints at the record"

let suite =
  [
    ("T1: data tamper detected", `Quick, test_data_tamper_detected);
    ("T1: data substitution detected", `Quick, test_data_substitution_detected);
    ("T1: retention shortening detected", `Quick, test_retention_shortening_detected_by_client);
    ("T1: forged attrs cannot trigger deletion", `Quick, test_retention_shortening_cannot_trigger_deletion);
    ("T1: premature destruction detected", `Quick, test_premature_destruction_detected);
    ("T1: fake deletion proof detected", `Quick, test_fake_deletion_proof_detected);
    ("T1: replayed deletion proof detected", `Quick, test_replayed_deletion_proof_detected);
    ("T1: rollback/replication detected", `Quick, test_rollback_detected);
    ("T2: hiding with fresh bound impossible", `Quick, test_hiding_with_fresh_bound_impossible);
    ("T2: staleness-window limitation documented", `Quick, test_staleness_window_limitation);
    ("T2: option (i) closes the staleness window", `Quick, test_option_i_closes_staleness_window);
    ("T2: hiding with stale bound detected", `Quick, test_hiding_with_stale_bound_detected);
    ("T2: hidden past the signed bound, over the wire", `Quick, test_hidden_past_signed_bound_flagged_over_the_wire);
    ("T2: stale base bound replay detected", `Quick, test_stale_base_bound_replay_detected);
    ("T2: window mix-and-match detected", `Quick, test_window_mix_and_match_detected);
    ("T2: denying server always caught", `Quick, test_denying_server_always_caught);
    ("T2: refusal flagged end to end", `Quick, test_refusal_flagged_end_to_end);
    ("T2: cross-store proof transplant rejected", `Quick, test_cross_store_deletion_proof_rejected);
    ("physical attack zeroizes", `Quick, test_physical_attack_zeroizes);
    ("secure deletion leaves no hints", `Quick, test_secure_deletion_leaves_no_hints);
  ]

let () = Alcotest.run "worm_attacks" [ ("attacks", suite) ]
