(* Client/server protocol: codec roundtrips, remote verified reads, and
   man-in-the-middle resistance (an untrusted transport adds nothing to
   the untrusted host's powers). *)

open Worm_core
open Worm_testkit.Testkit
module Message = Worm_proto.Message
module Server = Worm_proto.Server
module Remote_client = Worm_proto.Remote_client
module Clock = Worm_simclock.Clock
module Codec = Worm_util.Codec

let remote_env () =
  let env = fresh_env () in
  let server = Server.create env.store in
  let transport = Server.handle_bytes server in
  (env, server, transport)

let connect_exn ?retry ?netsim env transport =
  match Remote_client.connect ~ca:(ca_pub ()) ~clock:env.clock ?retry ?netsim transport with
  | Ok rc -> rc
  | Error e -> Alcotest.fail e

(* ---------- codecs ---------- *)

let test_request_codec () =
  let cases =
    [
      Message.Hello;
      Message.Read (Serial.of_int 42);
      Message.Read_many [ Serial.of_int 1; Serial.of_int 2 ];
      Message.Audit_slice { cursor = Serial.of_int 9; max = 64 };
      Message.Write { policy = short_policy (); tenant = ""; blocks = [ "payload"; "" ] };
    ]
  in
  List.iter
    (fun r ->
      let bytes = Message.encode_request r in
      Alcotest.(check int) "wire length" (String.length bytes) (Message.request_wire_length r);
      match Message.decode_request bytes with
      | Ok r' ->
          Alcotest.(check bool) "roundtrip" true (r = r');
          Alcotest.(check string) "canonical re-encoding" bytes (Message.encode_request r')
      | Error e -> Alcotest.fail e)
    cases;
  match Message.decode_request "\xff" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage request decoded"

let test_response_codec_all_proof_shapes () =
  (* produce one live response of every shape from a real store *)
  let env = fresh_env () in
  let long = short_policy ~retention_s:10_000. () in
  ignore (Worm.write env.store ~policy:long ~blocks:[ "anchor" ]);
  let deleted = write_n env ~retention_s:10. 4 in
  ignore (Worm.write env.store ~policy:long ~blocks:[ "anchor2" ]);
  let live = Worm.write env.store ~policy:long ~blocks:[ "alpha"; "beta" ] in
  ignore (expire_all env ~after_s:20.);
  ignore (Worm.compact_windows env.store);
  let shapes =
    [
      Worm.read env.store live (* Found *);
      Worm.read env.store (List.hd deleted) (* window or below-base or deleted *);
      Worm.read env.store (Serial.of_int 999) (* unallocated *);
      Proof.Refused "test excuse";
    ]
  in
  List.iter
    (fun response ->
      let encoded = Codec.encode Message.encode_read_response response in
      match Codec.decode Message.decode_read_response encoded with
      | Ok response' ->
          (* re-encoding must be stable (canonical) *)
          Alcotest.(check string)
            ("stable: " ^ Proof.describe response)
            encoded
            (Codec.encode Message.encode_read_response response')
      | Error e -> Alcotest.fail e)
    shapes

let test_verdict_survives_serialization () =
  (* verifying a decoded response gives the same verdict as the local one *)
  let env = fresh_env () in
  let sn = write env ~blocks:[ "payload" ] () in
  let local = Worm.read env.store sn in
  let remote =
    match Codec.decode Message.decode_read_response (Codec.encode Message.encode_read_response local) with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "same verdict"
    (Client.verdict_name (Client.verify_read env.client ~sn local))
    (Client.verdict_name (Client.verify_read env.client ~sn remote))

let test_audit_slice_reply_codec () =
  let env, _server, transport = remote_env () in
  ignore (write_n env 3);
  let raw = transport (Message.encode_request (Message.Audit_slice { cursor = Serial.first; max = 8 })) in
  match Message.decode_response raw with
  | Ok (Message.Audit_slice_reply { replies; next; _ } as resp) ->
      Alcotest.(check int) "one reply per record" 3 (List.length replies);
      Alcotest.(check bool) "terminal slice" true (next = None);
      (* re-encoding must be stable (canonical) *)
      Alcotest.(check string) "stable" raw (Message.encode_response resp)
  | Ok _ -> Alcotest.fail "expected an audit-slice reply"
  | Error e -> Alcotest.fail e

(* ---------- the protocol ---------- *)

let test_handshake_and_read () =
  let env, _server, transport = remote_env () in
  let sn = write env ~blocks:[ "remote payload" ] () in
  let rc = connect_exn env transport in
  Alcotest.(check string) "store id" (Worm.store_id env.store) (Remote_client.store_id rc);
  (match Remote_client.read rc sn with
  | Client.Valid_data { blocks; _ } -> Alcotest.(check (list string)) "data" [ "remote payload" ] blocks
  | v -> Alcotest.fail (Client.verdict_name v));
  match Remote_client.read rc (Serial.of_int 50) with
  | Client.Never_written -> ()
  | v -> Alcotest.fail (Client.verdict_name v)

let test_audit_sweep () =
  let env, _server, transport = remote_env () in
  let sns = write_n env ~retention_s:10. 3 in
  let keep = write env ~policy:(short_policy ~retention_s:10_000. ()) () in
  ignore (expire_all env ~after_s:20.);
  let rc = connect_exn env transport in
  let results = Remote_client.audit_sweep rc ~lo:Serial.first ~hi:(Serial.of_int 4) in
  Alcotest.(check int) "four rows" 4 (List.length results);
  List.iter
    (fun sn ->
      match List.assoc sn results with
      | Client.Properly_deleted -> ()
      | v -> Alcotest.fail (Client.verdict_name v))
    sns;
  (match List.assoc keep results with
  | Client.Valid_data _ -> ()
  | v -> Alcotest.fail (Client.verdict_name v));
  Alcotest.(check bool) "bytes accounted" true
    (Remote_client.bytes_sent rc > 0 && Remote_client.bytes_received rc > 0)

let test_remote_full_audit_honest () =
  let env, _server, transport = remote_env () in
  (* a deleted bottom region advances the SCPU base; the audit must skip
     it wholesale (one representative probe), not read it per-record *)
  ignore (write_n env ~retention_s:10. 4);
  ignore (expire_all env ~after_s:20.);
  Worm.idle_tick env.store;
  ignore (write_n env ~retention_s:10_000. 3);
  let rc = connect_exn env transport in
  let audit = Remote_client.run_remote_audit rc in
  Alcotest.(check int) "no violations" 0 (List.length audit.Remote_client.violations);
  Alcotest.(check int) "live region scanned" 3 audit.Remote_client.scanned;
  Alcotest.(check int64) "below-base region skipped" 4L audit.Remote_client.skipped_below_base;
  Alcotest.(check bool) "batched, not per-record" true (audit.Remote_client.round_trips <= 4);
  (* the same audit through the simulated network, run to completion *)
  let net = Worm_proto.Netsim.create () in
  let rc = connect_exn ~netsim:net env (Worm_proto.Netsim.wrap net transport) in
  let audit = Remote_client.run_remote_audit_to_completion rc in
  Alcotest.(check bool) "complete over netsim" true (audit.Remote_client.resume = None);
  Alcotest.(check int) "clean over netsim" 0 (List.length audit.Remote_client.violations)

let test_remote_audit_covers_writes_past_bound () =
  (* Theorem 2 under the request-scoped refresh: reads of live records
     no longer re-sign SN_current, so the bound predates the newest
     writes when the audit starts — the slice must re-sign it and walk
     every allocated serial, not stop at the stale bound. *)
  let env, _server, transport = remote_env () in
  ignore (write_n env ~retention_s:10_000. 3);
  Worm.heartbeat env.store;
  let late = write_n env ~retention_s:10_000. 4 in
  let rc = connect_exn env transport in
  List.iter
    (fun sn ->
      match Remote_client.read rc sn with
      | Client.Valid_data _ -> ()
      | v -> Alcotest.fail (Client.verdict_name v))
    late;
  Alcotest.(check int64) "reads left the bound behind" 3L (Serial.to_int64 (Worm.peek_current_bound env.store).Firmware.sn);
  let audit = Remote_client.run_remote_audit rc in
  Alcotest.(check int) "no violations" 0 (List.length audit.Remote_client.violations);
  Alcotest.(check int) "every allocated serial scanned" 7 audit.Remote_client.scanned

let refuse_slices transport req =
  (* a dishonest dispatcher serves audit slices but refuses every record *)
  match Message.decode_request req with
  | Ok (Message.Audit_slice _) -> begin
      match Message.decode_response (transport req) with
      | Ok (Message.Audit_slice_reply { replies; next; base; current }) ->
          let replies = List.map (fun (sn, _) -> (sn, Proof.Refused "none of your business")) replies in
          Message.encode_response (Message.Audit_slice_reply { replies; next; base; current })
      | _ -> transport req
    end
  | _ -> transport req

let test_remote_audit_catches_refusing_dispatcher () =
  let env, _server, transport = remote_env () in
  let sns = write_n env 5 in
  (* without confirming re-reads, every refused slice row is flagged *)
  let rc = connect_exn ~retry:Remote_client.no_retry env (refuse_slices transport) in
  let audit = Remote_client.run_remote_audit rc in
  Alcotest.(check int) "every refusal flagged" (List.length sns)
    (List.length audit.Remote_client.violations)

let test_refused_slices_heal_by_record_fallback () =
  (* With confirming re-reads enabled, a server lying only in its audit
     slices merely degrades the audit to per-record reads — the honest
     individual replies carry the proofs, so nothing is flagged and the
     lie costs the server extra traffic, not the auditor a false alarm. *)
  let env, _server, transport = remote_env () in
  ignore (write_n env 5);
  let rc = connect_exn env (refuse_slices transport) in
  let audit = Remote_client.run_remote_audit rc in
  Alcotest.(check int) "slice refusals healed by re-reads" 0 (List.length audit.Remote_client.violations);
  Alcotest.(check bool) "re-reads actually happened" true
    ((Remote_client.transport_stats rc).Remote_client.reverifications > 0);
  (* a dispatcher that refuses individual reads too has nowhere to hide *)
  let refuse_everything req =
    match Message.decode_request req with
    | Ok (Message.Read sn) ->
        Message.encode_response (Message.Read_reply { sn; response = Proof.Refused "go away" })
    | _ -> refuse_slices transport req
  in
  let rc2 = connect_exn env refuse_everything in
  let audit2 = Remote_client.run_remote_audit rc2 in
  Alcotest.(check int) "refusing everything is flagged per record" 5
    (List.length audit2.Remote_client.violations)

let test_remote_audit_catches_stalling_cursor () =
  let env, _server, transport = remote_env () in
  ignore (write_n env 3);
  (* a server steering the resume cursor backwards is stalling the walk *)
  let evil req =
    match Message.decode_request req with
    | Ok (Message.Audit_slice _) -> begin
        match Message.decode_response (transport req) with
        | Ok (Message.Audit_slice_reply { replies; next = _; base; current }) ->
            Message.encode_response
              (Message.Audit_slice_reply { replies; next = Some Serial.first; base; current })
        | _ -> transport req
      end
    | _ -> transport req
  in
  let rc = connect_exn env evil in
  let audit = Remote_client.run_remote_audit rc in
  Alcotest.(check bool) "stall flagged as a violation" true (audit.Remote_client.violations <> [])

let test_handshake_against_wrong_ca () =
  let env, _server, transport = remote_env () in
  ignore env;
  let other_ca = Worm_crypto.Rsa.public_of (Worm_crypto.Rsa.generate rng ~bits:512) in
  match Remote_client.connect ~ca:other_ca ~clock:env.clock transport with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign CA accepted over the wire"

(* ---------- adversarial transports ---------- *)

let flip_byte i s =
  if String.length s <= i then s
  else begin
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Bytes.to_string b
  end

let test_mitm_bitflip_detected () =
  let env, _server, transport = remote_env () in
  let sn = write env ~blocks:[ "sensitive" ] () in
  let rc = connect_exn env transport in
  (* sanity: clean read works *)
  (match Remote_client.read rc sn with
  | Client.Valid_data _ -> ()
  | v -> Alcotest.fail (Client.verdict_name v));
  (* now flip a byte somewhere in every read response (the handshake is
     left alone so the connection establishes) *)
  let evil_transport req =
    match Message.decode_request req with
    | Ok Message.Hello -> transport req
    | _ -> flip_byte 40 (transport req)
  in
  let rc_evil = connect_exn env evil_transport in
  match Remote_client.read rc_evil sn with
  | Client.Violation _ -> ()
  | v -> Alcotest.fail ("bitflip accepted: " ^ Client.verdict_name v)

let test_mitm_response_substitution_detected () =
  let env, _server, transport = remote_env () in
  let sn_a = write env ~blocks:[ "record A" ] () in
  let sn_b = write env ~blocks:[ "record B" ] () in
  let rc_evil =
    connect_exn env (fun req ->
        (* answer every read with record A's (valid!) reply *)
        match Message.decode_request req with
        | Ok (Message.Read _) -> transport (Message.encode_request (Message.Read sn_a))
        | _ -> transport req)
  in
  match Remote_client.read rc_evil sn_b with
  | Client.Violation _ -> () (* either wrong-serial inside the verdict or reply-sn mismatch *)
  | v -> Alcotest.fail ("substitution accepted: " ^ Client.verdict_name v)

let test_mitm_garbage_and_drop () =
  let env, _server, transport = remote_env () in
  let sn = write env () in
  let rc = connect_exn env transport in
  ignore rc;
  let rc_garbage = connect_exn env (fun req -> if String.length req > 2 then "garbage" else transport req) in
  (match Remote_client.read rc_garbage sn with
  | Client.Violation [ Client.Absence_unproven ] -> ()
  | v -> Alcotest.fail ("garbage accepted: " ^ Client.verdict_name v));
  (* protocol errors likewise prove nothing *)
  let rc_err =
    connect_exn env (fun req ->
        match Message.decode_request req with
        | Ok Message.Hello -> transport req
        | _ -> Message.encode_response (Message.Protocol_error "server on fire"))
  in
  match Remote_client.read rc_err sn with
  | Client.Violation [ Client.Absence_unproven ] -> ()
  | v -> Alcotest.fail ("error reply accepted: " ^ Client.verdict_name v)

(* ---------- exception safety & retries ---------- *)

exception Boom

(* A transport that works until the [n]-th call (1-based), then raises
   on every call from there on. *)
let raising_after n transport =
  let calls = ref 0 in
  fun req ->
    incr calls;
    if !calls >= n then raise Boom else transport req

let test_raising_transport_never_escapes () =
  let env, _server, transport = remote_env () in
  let sn = write env ~blocks:[ "survives" ] () in
  (* the handshake survives; every later call raises; no retry budget *)
  let rc = connect_exn ~retry:Remote_client.no_retry env (raising_after 2 transport) in
  (match Remote_client.read rc sn with
  | Client.Violation [ Client.Absence_unproven ] -> ()
  | v -> Alcotest.fail ("raising transport leaked a verdict: " ^ Client.verdict_name v)
  | exception e -> Alcotest.fail ("exception escaped roundtrip: " ^ Printexc.to_string e));
  (match Remote_client.audit_sweep rc ~lo:sn ~hi:sn with
  | [ (_, Client.Violation [ Client.Absence_unproven ]) ] -> ()
  | _ -> Alcotest.fail "sweep over a raising transport"
  | exception e -> Alcotest.fail ("exception escaped audit_sweep: " ^ Printexc.to_string e));
  let stats = Remote_client.transport_stats rc in
  Alcotest.(check bool) "faults counted" true (stats.Remote_client.faults >= 2);
  (* a transport that raises during the handshake yields Error, not an
     exception *)
  match Remote_client.connect ~ca:(ca_pub ()) ~clock:env.clock (raising_after 1 transport) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "connect over a dead transport succeeded"
  | exception e -> Alcotest.fail ("exception escaped connect: " ^ Printexc.to_string e)

let test_transient_fault_retried () =
  let env, _server, transport = remote_env () in
  let sn = write env ~blocks:[ "flaky" ] () in
  (* raise on exactly one mid-stream call: the default retry rides it out *)
  let calls = ref 0 in
  let flaky req =
    incr calls;
    if !calls = 3 then raise Boom else transport req
  in
  let rc = connect_exn env flaky in
  (match Remote_client.read rc sn with
  | Client.Valid_data _ -> ()
  | v -> Alcotest.fail ("one fault defeated the retry policy: " ^ Client.verdict_name v));
  (match Remote_client.read rc sn with
  | Client.Valid_data _ -> ()
  | v -> Alcotest.fail (Client.verdict_name v));
  let stats = Remote_client.transport_stats rc in
  Alcotest.(check int) "one retry" 1 stats.Remote_client.retries;
  Alcotest.(check int) "one fault" 1 stats.Remote_client.faults;
  Alcotest.(check bool) "virtual wait charged, not slept" true
    (Int64.compare stats.Remote_client.waited_ns 0L > 0)

let test_handshake_bytes_accounted () =
  let env, _server, transport = remote_env () in
  ignore (write env ());
  let net = Worm_proto.Netsim.create () in
  let rc = connect_exn ~netsim:net env (Worm_proto.Netsim.wrap net transport) in
  (* regression: the Hello reply used to be dropped from bytes_received *)
  Alcotest.(check bool) "handshake reply counted" true (Remote_client.bytes_received rc > 0);
  Alcotest.(check int) "client ledger matches the wire after the handshake"
    (Worm_proto.Netsim.bytes_transferred net)
    (Remote_client.bytes_sent rc + Remote_client.bytes_received rc);
  ignore (Remote_client.read rc (Serial.of_int 1));
  ignore (Remote_client.audit_sweep rc ~lo:Serial.first ~hi:(Serial.of_int 1));
  Alcotest.(check int) "ledgers still agree after traffic"
    (Worm_proto.Netsim.bytes_transferred net)
    (Remote_client.bytes_sent rc + Remote_client.bytes_received rc)

let test_netsim_charges_on_raise () =
  let net = Worm_proto.Netsim.create ~rtt_ns:1_000_000L () in
  let wrapped = Worm_proto.Netsim.wrap net (fun _ -> raise Boom) in
  (match wrapped "a request crossing the wire" with
  | _ -> Alcotest.fail "raising transport returned"
  | exception Boom -> ());
  (* regression: a raising transport used to charge nothing *)
  Alcotest.(check int) "request counted" 1 (Worm_proto.Netsim.requests net);
  Alcotest.(check int) "request bytes billed" (String.length "a request crossing the wire")
    (Worm_proto.Netsim.bytes_transferred net);
  Alcotest.(check bool) "RTT billed" true
    (Int64.compare (Worm_proto.Netsim.elapsed_ns net) 1_000_000L >= 0)

let test_duplicate_sns_in_reply_detected () =
  let env, _server, transport = remote_env () in
  let sn_a = write env ~blocks:[ "A" ] () in
  let sn_b = write env ~blocks:[ "B" ] () in
  (* a malicious reply answers sn_b twice: once honestly, then with a
     conflicting refusal appended — List.assoc reassembly would have
     trusted whichever came first *)
  let evil req =
    match Message.decode_request req with
    | Ok (Message.Read_many _) -> begin
        match Message.decode_response (transport req) with
        | Ok (Message.Read_many_reply replies) ->
            let dup = (sn_b, Proof.Refused "second opinion") in
            Message.encode_response (Message.Read_many_reply (replies @ [ dup ]))
        | _ -> transport req
      end
    | _ -> transport req
  in
  let rc = connect_exn ~retry:Remote_client.no_retry env evil in
  let results = Remote_client.audit_sweep rc ~lo:sn_a ~hi:sn_b in
  (match List.assoc sn_a results with
  | Client.Valid_data _ -> ()
  | v -> Alcotest.fail ("clean row damaged: " ^ Client.verdict_name v));
  (match List.assoc sn_b results with
  | Client.Violation [ Client.Absence_unproven ] -> ()
  | v -> Alcotest.fail ("duplicated SN trusted: " ^ Client.verdict_name v));
  (* with confirming re-reads, the honest per-record path heals the row *)
  let rc2 = connect_exn env evil in
  match List.assoc sn_b (Remote_client.audit_sweep rc2 ~lo:sn_a ~hi:sn_b) with
  | Client.Valid_data _ -> ()
  | v -> Alcotest.fail ("re-read did not heal the duplicate: " ^ Client.verdict_name v)

(* ---------- network accounting ---------- *)

let test_batching_amortizes_round_trips () =
  let env, _server, transport = remote_env () in
  let sns = write_n env 20 in
  let lo = List.hd sns and hi = List.nth sns 19 in
  (* one-by-one *)
  let net1 = Worm_proto.Netsim.create ~rtt_ns:1_000_000L () in
  let rc1 = connect_exn env (Worm_proto.Netsim.wrap net1 transport) in
  List.iter (fun sn -> ignore (Remote_client.read rc1 sn)) sns;
  (* batched *)
  let net2 = Worm_proto.Netsim.create ~rtt_ns:1_000_000L () in
  let rc2 = connect_exn env (Worm_proto.Netsim.wrap net2 transport) in
  ignore (Remote_client.audit_sweep rc2 ~lo ~hi);
  Alcotest.(check int) "per-record: 21 round trips" 21 (Worm_proto.Netsim.requests net1);
  Alcotest.(check int) "batched: 2 round trips" 2 (Worm_proto.Netsim.requests net2);
  Alcotest.(check bool) "batching wins on wire time" true
    (Worm_proto.Netsim.elapsed_ns net2 < Worm_proto.Netsim.elapsed_ns net1);
  (* the payload bytes are about the same either way *)
  let b1 = Worm_proto.Netsim.bytes_transferred net1 and b2 = Worm_proto.Netsim.bytes_transferred net2 in
  Alcotest.(check bool) "similar byte volume" true (float_of_int b2 /. float_of_int b1 > 0.8)

let prop_request_codec_total =
  QCheck.Test.make ~name:"request decoder total on random bytes" ~count:300 QCheck.string (fun s ->
      match Message.decode_request s with
      | Ok _ | Error _ -> true)

let prop_response_codec_total =
  QCheck.Test.make ~name:"response decoder total on random bytes" ~count:300 QCheck.string (fun s ->
      match Message.decode_response s with
      | Ok _ | Error _ -> true)

(* ---------- encode-once memo ---------- *)

let decode_response_exn raw =
  match Message.decode_response raw with Ok r -> r | Error e -> Alcotest.fail e

(* The memo must be an optimization, never an oracle of its own: warm
   bytes must equal cold bytes, and once the store moves — a write
   advances the bound, a heartbeat re-signs it — the memoised encoding
   of the old artifact must never be served again. An attacker who could
   pin the server on a stale cached bound would shrink the audited
   region. *)
let test_encode_memo_identity_and_invalidation () =
  let env, server, transport = remote_env () in
  ignore (write_n env 3);
  let probe = Serial.of_int 4 (* one past the allocated region *) in
  let req = Message.encode_request (Message.Read probe) in
  let cold = transport req in
  let warm = transport req in
  Alcotest.(check string) "warm bytes = cold bytes" cold warm;
  let stale_bound =
    match decode_response_exn cold with
    | Message.Read_reply { response = Proof.Proof_unallocated b; _ } -> b
    | _ -> Alcotest.fail "expected an unallocated proof"
  in
  Alcotest.(check int64) "bound covers the 3 writes" 3L (Serial.to_int64 stale_bound.Firmware.sn);
  (* verifier agrees with the locally-served proof, through the memo *)
  (match decode_response_exn warm with
  | Message.Read_reply { sn; response } ->
      Alcotest.(check string) "verdict through memo"
        (Client.verdict_name (Client.verify_read env.client ~sn (Worm.read env.store probe)))
        (Client.verdict_name (Client.verify_read env.client ~sn response))
  | _ -> Alcotest.fail "expected a read reply");
  (* the attack: allocate [probe], then ask again — the reply must be
     the record, not the memoised absence proof *)
  let sn = write env ~blocks:[ "now it exists" ] () in
  Alcotest.(check int64) "probe got allocated" (Serial.to_int64 probe) (Serial.to_int64 sn);
  (match decode_response_exn (transport req) with
  | Message.Read_reply { sn; response = Proof.Found _ as response } -> begin
      match Client.verify_read env.client ~sn response with
      | Client.Valid_data { blocks; _ } ->
          Alcotest.(check (list string)) "served the new record" [ "now it exists" ] blocks
      | v -> Alcotest.fail ("served record does not verify: " ^ Client.verdict_name v)
    end
  | _ -> Alcotest.fail "stale absence proof served for an allocated serial");
  (* a re-signed bound (heartbeat after clock advance) must also flush
     the memo: the next unallocated proof carries the fresh signature *)
  let probe' = Serial.of_int 99 in
  let req' = Message.encode_request (Message.Read probe') in
  let b1 =
    match decode_response_exn (transport req') with
    | Message.Read_reply { response = Proof.Proof_unallocated b; _ } -> b
    | _ -> Alcotest.fail "expected an unallocated proof"
  in
  Clock.advance env.clock (Clock.ns_of_sec 3600.);
  Worm.heartbeat env.store;
  ignore server;
  let b2 =
    match decode_response_exn (transport req') with
    | Message.Read_reply { response = Proof.Proof_unallocated b; _ } -> b
    | _ -> Alcotest.fail "expected an unallocated proof"
  in
  Alcotest.(check bool) "re-signed bound is served, not the cached one" true
    (Int64.compare b2.Firmware.timestamp b1.Firmware.timestamp > 0);
  (* every reply class, memo cold then warm, equals the memo-free bytes *)
  let env = fresh_env () in
  let server = Server.create env.store in
  let live = write env ~policy:(short_policy ~retention_s:10_000. ()) () in
  let gone = write_n env ~retention_s:10. 3 in
  ignore (expire_all env ~after_s:20.);
  Worm.idle_tick env.store;
  Server.refresh server;
  List.iter
    (fun request ->
      let name = Message.describe_request request in
      let response = Server.handle server request in
      let plain = Message.encode_response response in
      Alcotest.(check string) (name ^ ": memo cold") plain (Server.encode_response server response);
      Alcotest.(check string) (name ^ ": memo warm") plain (Server.encode_response server response);
      Alcotest.(check int) (name ^ ": wire length") (String.length plain) (Server.response_wire_length server response);
      Alcotest.(check string) (name ^ ": canonical") plain (Message.encode_response (decode_response_exn plain)))
    [
      Message.Hello;
      Message.Read live;
      Message.Read (List.hd gone);
      Message.Read (Serial.of_int 50);
      Message.Read_many (Serial.range Serial.first (Serial.of_int 5));
      Message.Audit_slice { cursor = Serial.first; max = 64 };
    ]

let suite =
  [
    ("request codec", `Quick, test_request_codec);
    ("response codec, all proof shapes", `Quick, test_response_codec_all_proof_shapes);
    ("verdict survives serialization", `Quick, test_verdict_survives_serialization);
    ("audit-slice reply codec", `Quick, test_audit_slice_reply_codec);
    ("handshake and read", `Quick, test_handshake_and_read);
    ("audit sweep", `Quick, test_audit_sweep);
    ("remote full audit, honest server", `Quick, test_remote_full_audit_honest);
    ("remote audit covers writes past the bound", `Quick, test_remote_audit_covers_writes_past_bound);
    ("remote audit catches refusing dispatcher", `Quick, test_remote_audit_catches_refusing_dispatcher);
    ("refused slices heal by per-record fallback", `Quick, test_refused_slices_heal_by_record_fallback);
    ("raising transport never escapes", `Quick, test_raising_transport_never_escapes);
    ("transient fault retried", `Quick, test_transient_fault_retried);
    ("handshake bytes accounted", `Quick, test_handshake_bytes_accounted);
    ("netsim charges on raise", `Quick, test_netsim_charges_on_raise);
    ("duplicate SNs in reply detected", `Quick, test_duplicate_sns_in_reply_detected);
    ("remote audit catches stalling cursor", `Quick, test_remote_audit_catches_stalling_cursor);
    ("wrong CA over the wire", `Quick, test_handshake_against_wrong_ca);
    ("MITM bitflip detected", `Quick, test_mitm_bitflip_detected);
    ("MITM substitution detected", `Quick, test_mitm_response_substitution_detected);
    ("MITM garbage/drop yields no proof", `Quick, test_mitm_garbage_and_drop);
    ("batching amortizes round trips", `Quick, test_batching_amortizes_round_trips);
    ("encode memo: identity and invalidation", `Quick, test_encode_memo_identity_and_invalidation);
    QCheck_alcotest.to_alcotest prop_request_codec_total;
    QCheck_alcotest.to_alcotest prop_response_codec_total;
  ]

let () = Alcotest.run "worm_proto" [ ("proto", suite) ]
