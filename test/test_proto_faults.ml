(* The transport fault model: every Faulty mode swept against read,
   audit_sweep, and run_remote_audit must yield verdicts identical to a
   clean transport once retries succeed, degrade to unproven absence
   (never an exception) once they exhaust, and resume a mid-sweep audit
   from the last good cursor after a crash. Plus server totality and
   idempotence under adversarial and replayed requests. *)

open Worm_core
open Worm_testkit.Testkit
module Message = Worm_proto.Message
module Server = Worm_proto.Server
module Faulty = Worm_proto.Faulty
module Netsim = Worm_proto.Netsim
module Remote_client = Worm_proto.Remote_client

(* A store exercising every proof shape: a deleted below-base region, a
   collapsed window behind a live anchor, live records, and the open
   region above the current bound. *)
let proof_shape_env () =
  let env = fresh_env () in
  ignore (write_n env ~retention_s:10. 3);
  let anchor = write env ~policy:(short_policy ~retention_s:10_000. ()) ~blocks:[ "anchor" ] () in
  ignore (write_n env ~retention_s:10. 3);
  let live = List.init 3 (fun i -> write env ~policy:(short_policy ~retention_s:10_000. ()) ~blocks:[ Printf.sprintf "live-%d" i ] ()) in
  ignore (expire_all env ~after_s:20.);
  Worm.idle_tick env.store;
  ignore (Worm.compact_windows env.store);
  Worm.heartbeat env.store;
  let server = Server.create env.store in
  (env, Server.handle_bytes server, anchor, List.nth live 2)

let connect_exn ?retry ?netsim env transport =
  match Remote_client.connect ~ca:(ca_pub ()) ~clock:env.clock ?retry ?netsim transport with
  | Ok rc -> rc
  | Error e -> Alcotest.fail e

let verdict_names results = List.map (fun (sn, v) -> (sn, Client.verdict_name v)) results

let audit_fingerprint (a : Remote_client.remote_audit) =
  ( a.Remote_client.scanned,
    a.Remote_client.skipped_below_base,
    verdict_names a.Remote_client.violations,
    a.Remote_client.resume )

(* ---------- the fault matrix ---------- *)

let matrix_modes =
  [
    ("drop", [ Faulty.Drop 0.25 ]);
    ("garble", [ Faulty.Garble 0.25 ]);
    ("truncate", [ Faulty.Truncate 0.25 ]);
    ("duplicate", [ Faulty.Duplicate 0.25 ]);
    ("delay", [ Faulty.Delay { p = 0.25; ns = 2_000_000L } ]);
    ("raise", [ Faulty.Raise 0.25 ]);
    ("crash", [ Faulty.Crash { after = 5; down_for = 2 } ]);
    ("storm", [ Faulty.Drop 0.1; Faulty.Garble 0.1; Faulty.Truncate 0.1; Faulty.Duplicate 0.1 ]);
  ]

(* Deep enough that no deterministic schedule at these rates outlasts
   it; the DRBG seeds make each matrix run exactly reproducible. *)
let generous = { Remote_client.default_retry with attempts = 8; verify_retries = 6 }

let test_fault_matrix () =
  let env, honest, anchor, top = proof_shape_env () in
  let clean = connect_exn env honest in
  let clean_read = Client.verdict_name (Remote_client.read clean anchor) in
  let clean_sweep = verdict_names (Remote_client.audit_sweep clean ~lo:Serial.first ~hi:top) in
  let clean_audit = audit_fingerprint (Remote_client.run_remote_audit_to_completion ~batch:4 clean) in
  List.iter
    (fun (name, faults) ->
      let faulty = Faulty.create ~seed:("matrix|" ^ name) ~faults honest in
      let rc = connect_exn ~retry:generous env (Faulty.transport faulty) in
      (match Remote_client.read rc anchor with
      | v -> Alcotest.(check string) (name ^ ": read verdict") clean_read (Client.verdict_name v)
      | exception e -> Alcotest.fail (name ^ ": read raised " ^ Printexc.to_string e));
      (match Remote_client.audit_sweep rc ~lo:Serial.first ~hi:top with
      | results ->
          Alcotest.(check bool) (name ^ ": sweep verdicts") true (verdict_names results = clean_sweep)
      | exception e -> Alcotest.fail (name ^ ": sweep raised " ^ Printexc.to_string e));
      (match Remote_client.run_remote_audit_to_completion ~batch:4 rc with
      | audit ->
          Alcotest.(check bool) (name ^ ": full audit") true (audit_fingerprint audit = clean_audit)
      | exception e -> Alcotest.fail (name ^ ": audit raised " ^ Printexc.to_string e)))
    matrix_modes

let test_exhausted_retries_degrade_to_verdict () =
  let env, honest, anchor, top = proof_shape_env () in
  (* the handshake passes, then every reply is swallowed: retries
     exhaust and every path must answer with unproven absence *)
  let calls = ref 0 in
  let dies_after_hello req =
    incr calls;
    if !calls <= 1 then honest req else raise (Faulty.Injected "wire gone")
  in
  let rc = connect_exn env dies_after_hello in
  (match Remote_client.read rc anchor with
  | Client.Violation [ Client.Absence_unproven ] -> ()
  | v -> Alcotest.fail ("read: " ^ Client.verdict_name v)
  | exception e -> Alcotest.fail ("read raised: " ^ Printexc.to_string e));
  (match Remote_client.audit_sweep rc ~lo:Serial.first ~hi:top with
  | results ->
      List.iter
        (fun (_, v) ->
          match v with
          | Client.Violation [ Client.Absence_unproven ] -> ()
          | v -> Alcotest.fail ("sweep row: " ^ Client.verdict_name v))
        results
  | exception e -> Alcotest.fail ("sweep raised: " ^ Printexc.to_string e));
  (match Remote_client.run_remote_audit rc with
  | a ->
      Alcotest.(check bool) "audit: resumable from the start, nothing flagged" true
        (a.Remote_client.resume = Some Serial.first && a.Remote_client.violations = [])
  | exception e -> Alcotest.fail ("audit raised: " ^ Printexc.to_string e));
  let stats = Remote_client.transport_stats rc in
  Alcotest.(check bool) "every retry actually attempted" true
    (stats.Remote_client.attempts > stats.Remote_client.requests);
  Alcotest.(check bool) "timeout + backoff wait charged" true
    (Int64.compare stats.Remote_client.waited_ns 0L > 0);
  (* a wire that swallows everything, handshake included *)
  let dead = Faulty.create ~seed:"exhausted|dead" ~faults:[ Faulty.Drop 1.0 ] honest in
  match Remote_client.connect ~ca:(ca_pub ()) ~clock:env.clock (Faulty.transport dead) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "connected over a dead wire"
  | exception e -> Alcotest.fail ("connect raised: " ^ Printexc.to_string e)

let test_backoff_grows_and_is_virtual () =
  let env, honest, _, _ = proof_shape_env () in
  let net = Netsim.create () in
  let dead _ = raise (Faulty.Injected "down") in
  let retry =
    { Remote_client.default_retry with attempts = 5; attempt_timeout_ns = 0L; jitter = 0. }
  in
  (match Remote_client.connect ~ca:(ca_pub ()) ~clock:env.clock ~retry ~netsim:net dead with
  | Ok _ -> Alcotest.fail "connected over a dead wire"
  | Error _ -> ());
  (* 4 waits of 1, 2, 4, 8 ms between the 5 attempts *)
  Alcotest.(check int64) "exponential backoff charged to the netsim ledger" 15_000_000L
    (Netsim.elapsed_ns net);
  ignore honest

(* ---------- resumable audits ---------- *)

let test_crash_resumes_from_cursor () =
  let env, honest, _, _ = proof_shape_env () in
  let clean = connect_exn env honest in
  let reference = Remote_client.run_remote_audit ~batch:4 clean in
  Alcotest.(check bool) "reference run is complete and clean" true
    (reference.Remote_client.resume = None && reference.Remote_client.violations = []);
  (* an outage longer than one roundtrip's retry budget *)
  let faulty = Faulty.create ~seed:"resume|crash" ~faults:[ Faulty.Crash { after = 3; down_for = 10 } ] honest in
  let rc =
    connect_exn ~retry:{ Remote_client.default_retry with attempts = 2 } env (Faulty.transport faulty)
  in
  let first = Remote_client.run_remote_audit ~batch:4 rc in
  let cursor =
    match first.Remote_client.resume with
    | Some c -> c
    | None -> Alcotest.fail "outage did not interrupt the sweep"
  in
  Alcotest.(check bool) "interrupted past the first slice" true (Serial.( > ) cursor Serial.first);
  Alcotest.(check int) "a dropped slice is not a violation" 0 (List.length first.Remote_client.violations);
  (* resume from the handed-back cursor (transport recovers mid-way) *)
  let rec resume cursor scanned skipped trips =
    let r = Remote_client.run_remote_audit ~batch:4 ~cursor rc in
    let scanned = scanned + r.Remote_client.scanned in
    let skipped = Int64.add skipped r.Remote_client.skipped_below_base in
    let trips = trips + r.Remote_client.round_trips in
    match r.Remote_client.resume with
    | Some c ->
        Alcotest.(check bool) "no false flags while down" true (r.Remote_client.violations = []);
        resume c scanned skipped trips
    | None -> (r, scanned, skipped, trips)
  in
  let last, scanned, skipped, _ = resume cursor first.Remote_client.scanned first.Remote_client.skipped_below_base 0 in
  Alcotest.(check int) "combined runs scanned the whole space" reference.Remote_client.scanned scanned;
  Alcotest.(check int64) "below-base region not re-walked" reference.Remote_client.skipped_below_base skipped;
  Alcotest.(check int) "clean at the end" 0 (List.length last.Remote_client.violations)

let test_to_completion_merges_runs () =
  let env, honest, _, _ = proof_shape_env () in
  let clean = connect_exn env honest in
  let reference = Remote_client.run_remote_audit_to_completion ~batch:4 clean in
  let faulty = Faulty.create ~seed:"resume|auto" ~faults:[ Faulty.Crash { after = 4; down_for = 6 } ] honest in
  let rc =
    connect_exn ~retry:{ Remote_client.default_retry with attempts = 3 } env (Faulty.transport faulty)
  in
  let merged = Remote_client.run_remote_audit_to_completion ~batch:4 rc in
  Alcotest.(check bool) "merged audit completes" true (merged.Remote_client.resume = None);
  Alcotest.(check int) "same coverage" reference.Remote_client.scanned merged.Remote_client.scanned;
  Alcotest.(check int) "no false flags" 0 (List.length merged.Remote_client.violations);
  (* a wire that dies right after the handshake and never comes back:
     bounded stalls, cursor handed back *)
  let calls = ref 0 in
  let dies_after_hello req =
    incr calls;
    if !calls <= 1 then honest req else raise (Faulty.Injected "gone")
  in
  let dead_rc = connect_exn ~retry:Remote_client.no_retry env dies_after_hello in
  let stalled = Remote_client.run_remote_audit_to_completion ~max_stalls:1 dead_rc in
  Alcotest.(check bool) "dead wire: incomplete, resumable, nothing flagged" true
    (stalled.Remote_client.resume = Some Serial.first && stalled.Remote_client.violations = [])

(* ---------- server totality & idempotence ---------- *)

let test_server_idempotent_under_replay () =
  let env, honest, anchor, top = proof_shape_env () in
  ignore env;
  let requests =
    [
      Message.Hello;
      Message.Read anchor;
      Message.Read (Serial.of_int 999);
      Message.Read_many (Serial.range Serial.first top);
      Message.Audit_slice { cursor = Serial.first; max = 4 };
      Message.Audit_slice { cursor = top; max = 4 };
    ]
  in
  List.iter
    (fun r ->
      let bytes = Message.encode_request r in
      let first = honest bytes in
      let replay = honest bytes in
      Alcotest.(check string) ("replay identical: " ^ Message.describe_request r) first replay)
    requests

(* The heartbeat hoist: Audit_slice dispatch no longer mutates the
   store behind the caller's back. handle_bytes heals staleness once in
   refresh, then replays are byte-identical even across a clock
   advance, with zero further SCPU signatures. *)
let test_audit_slice_replay_signs_once () =
  let env, honest, _, _ = proof_shape_env () in
  let bytes = Message.encode_request (Message.Audit_slice { cursor = Serial.first; max = 4 }) in
  let first = honest bytes in
  let signed = (Device.stats env.device).Device.sign_calls in
  Clock.advance env.clock (Clock.ns_of_sec 1.);
  Alcotest.(check string) "replay identical across clock advance" first (honest bytes);
  Alcotest.(check string) "and again" first (honest bytes);
  Alcotest.(check int) "replays consumed no SCPU signatures" signed
    (Device.stats env.device).Device.sign_calls

let test_server_total_on_adversarial_bytes () =
  let env, honest, _, _ = proof_shape_env () in
  ignore env;
  (* hand-picked nasties: truncations and mutations of a valid request *)
  let valid = Message.encode_request (Message.Audit_slice { cursor = Serial.first; max = 4 }) in
  let nasties =
    [ ""; "\xff"; "\x03"; String.sub valid 0 (String.length valid - 1); valid ^ "\x00"; String.map (fun _ -> '\xff') valid ]
  in
  List.iter
    (fun bytes ->
      match honest bytes with
      | reply -> begin
          match Message.decode_response reply with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("server emitted undecodable bytes: " ^ e)
        end
      | exception e -> Alcotest.fail ("server raised on adversarial input: " ^ Printexc.to_string e))
    nasties

(* One shared fixture: 200 random strings against the same live server,
   which also exercises idempotence across interleaved garbage. *)
let prop_server_total =
  let honest = lazy (let _, h, _, _ = proof_shape_env () in h) in
  QCheck.Test.make ~name:"handle_bytes total and idempotent on random bytes" ~count:200 QCheck.string
    (fun s ->
      let honest = Lazy.force honest in
      match honest s with
      | r1 -> r1 = honest s
      | exception _ -> false)

(* ---------- the Faulty wrapper itself ---------- *)

let test_faulty_deterministic () =
  let echo req = req ^ "-reply" in
  let run () =
    let f = Faulty.create ~seed:"det" ~faults:[ Faulty.Drop 0.3; Faulty.Garble 0.3 ] echo in
    let out =
      List.init 40 (fun i ->
          match Faulty.transport f (Printf.sprintf "req-%d" i) with
          | reply -> reply
          | exception Faulty.Injected _ -> "<dropped>")
    in
    (out, Faulty.stats f)
  in
  let out1, stats1 = run () in
  let out2, stats2 = run () in
  Alcotest.(check bool) "same seed, same schedule" true (out1 = out2 && stats1 = stats2);
  Alcotest.(check bool) "faults actually fired" true (stats1.Faulty.dropped > 0 && stats1.Faulty.garbled > 0);
  Alcotest.(check int) "every call accounted" 40 stats1.Faulty.calls

let test_faulty_crash_window () =
  let echo req = req in
  let f = Faulty.create ~faults:[ Faulty.Crash { after = 2; down_for = 3 } ] echo in
  let results =
    List.init 8 (fun i ->
        match Faulty.transport f (string_of_int i) with
        | _ -> `Up
        | exception Faulty.Injected _ -> `Down)
  in
  Alcotest.(check bool) "calls 3-5 down, others up" true
    (results = [ `Up; `Up; `Down; `Down; `Down; `Up; `Up; `Up ]);
  let f2 = Faulty.create ~faults:[ Faulty.Delay { p = 1.0; ns = 7L } ] echo in
  ignore (Faulty.transport f2 "x");
  ignore (Faulty.transport f2 "y");
  Alcotest.(check int64) "delay accumulates" 14L (Faulty.injected_delay_ns f2);
  Alcotest.check_raises "bad probability rejected" (Invalid_argument "Faulty.create: probability outside [0, 1]")
    (fun () -> ignore (Faulty.create ~faults:[ Faulty.Drop 1.5 ] echo))

let suite =
  [
    ("fault matrix: verdicts identical under retries", `Quick, test_fault_matrix);
    ("exhausted retries degrade to a verdict", `Quick, test_exhausted_retries_degrade_to_verdict);
    ("backoff grows exponentially, charged virtually", `Quick, test_backoff_grows_and_is_virtual);
    ("crash resumes from last good cursor", `Quick, test_crash_resumes_from_cursor);
    ("to-completion merges resumed runs", `Quick, test_to_completion_merges_runs);
    ("server idempotent under replay", `Quick, test_server_idempotent_under_replay);
    ("audit-slice replay signs nothing", `Quick, test_audit_slice_replay_signs_once);
    ("server total on adversarial bytes", `Quick, test_server_total_on_adversarial_bytes);
    QCheck_alcotest.to_alcotest prop_server_total;
    ("faulty wrapper deterministic", `Quick, test_faulty_deterministic);
    ("faulty crash window and delay ledger", `Quick, test_faulty_crash_window);
  ]

let () = Alcotest.run "worm_proto_faults" [ ("proto-faults", suite) ]
