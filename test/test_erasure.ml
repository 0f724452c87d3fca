(* Per-tenant key hierarchy and O(1) crypto-erasure: sealed tenant
   records, SCPU-signed erasure certificates, the provable [Erased]
   read outcome, wire/protocol behaviour, scrubber compliance, restart
   survival, and erasure x cluster failover. *)

open Worm_core
open Worm_testkit.Testkit
module Clock = Worm_simclock.Clock
module Device = Worm_scpu.Device
module Disk = Worm_simdisk.Disk
module Scrubber = Worm_audit.Scrubber
module Report = Worm_audit.Report
module Router = Worm_cluster.Shard_router
module Cluster_proof = Worm_cluster.Cluster_proof
module Message = Worm_proto.Message
module Server = Worm_proto.Server
module Cluster_server = Worm_proto.Cluster_server
module Remote_client = Worm_proto.Remote_client

let policy () = short_policy ~retention_s:10_000. ()

let write_tenant env ~tenant blocks =
  Worm.write env.store ~tenant ~policy:(policy ()) ~blocks

let cert_exn = function
  | Some cert -> cert
  | None -> Alcotest.fail "expected an erasure certificate"

(* ---------- sealing ---------- *)

let test_tenant_roundtrip () =
  let env = fresh_env () in
  let secret = "alice's diagnosis: entirely treatable" in
  let sn = write_tenant env ~tenant:"alice" [ secret ] in
  let plain = Worm.write env.store ~policy:(policy ()) ~blocks:[ "public notice" ] in
  (* normal reads serve and verify plaintext *)
  (match Worm.read env.store sn with
  | Proof.Found { blocks; vrd } ->
      Alcotest.(check (list string)) "plaintext served" [ secret ] blocks;
      Alcotest.(check string) "attr carries the tenant" "alice" vrd.Vrd.attr.Attr.tenant
  | r -> Alcotest.fail (Proof.describe r));
  check_verdict "client accepts" "valid-data" env sn;
  (* but the platter holds only ciphertext under the per-record key *)
  let rd =
    match Vrdt.find (Worm.vrdt env.store) sn with
    | Some (Vrdt.Active vrd) -> List.hd vrd.Vrd.rdl
    | _ -> Alcotest.fail "vrd missing"
  in
  (match Disk.Raw.residue env.disk rd with
  | Some on_platter ->
      Alcotest.(check bool) "no plaintext on media" false (String.equal on_platter secret);
      Alcotest.(check int) "same length (CTR)" (String.length secret) (String.length on_platter)
  | None -> Alcotest.fail "block unreadable");
  (* untenanted records are stored as before *)
  check_verdict "untenanted still valid" "valid-data" env plain;
  (* the host-side tenant index knows who owns what *)
  Alcotest.(check (list int)) "tenant serials" [ Serial.to_int sn ]
    (List.map Serial.to_int (Worm.tenant_serials env.store "alice"));
  Alcotest.(check int) "tenant record count" 1 (Worm.tenant_record_count env.store "alice");
  Alcotest.(check (list string)) "live tenants" [ "alice" ] (Worm.live_tenants env.store)

let test_per_record_keys_separate () =
  (* Same plaintext, same tenant, different serials: different bytes on
     the platter — per-record keys, not one tenant-wide stream. *)
  let env = fresh_env () in
  let sn1 = write_tenant env ~tenant:"t" [ "identical plaintext" ] in
  let sn2 = write_tenant env ~tenant:"t" [ "identical plaintext" ] in
  let platter sn =
    match Vrdt.find (Worm.vrdt env.store) sn with
    | Some (Vrdt.Active vrd) -> (
        match Disk.Raw.residue env.disk (List.hd vrd.Vrd.rdl) with
        | Some bytes -> bytes
        | None -> Alcotest.fail "block unreadable")
    | _ -> Alcotest.fail "vrd missing"
  in
  Alcotest.(check bool) "serials separate ciphertext" false (String.equal (platter sn1) (platter sn2))

(* ---------- erasure ---------- *)

let test_erasure_certified_and_provable () =
  let env = fresh_env () in
  let a1 = write_tenant env ~tenant:"alice" [ "a1" ] in
  let b1 = write_tenant env ~tenant:"bob" [ "b1" ] in
  let a2 = write_tenant env ~tenant:"alice" [ "a2" ] in
  let plain = Worm.write env.store ~policy:(policy ()) ~blocks:[ "keeper" ] in
  let cert = Worm.erase_tenant env.store ~tenant:"alice" in
  (* the receipt verifies under the CA-rooted deletion certificate *)
  (match Client.verify_erasure_cert env.client cert with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check string) "cert names the tenant" "alice" cert.Firmware.tenant;
  Alcotest.(check bool) "cert covers both records" true Serial.(a2 <= cert.Firmware.upto);
  (* erased reads are the provable Erased outcome, served without disk IO *)
  List.iter
    (fun sn ->
      (match Worm.read env.store sn with
      | Proof.Erased { vrd; cert = served } ->
          Alcotest.(check bool) "serial preserved" true (Serial.equal vrd.Vrd.sn sn);
          Alcotest.(check string) "served cert tenant" "alice" served.Firmware.tenant
      | r -> Alcotest.fail (Proof.describe r));
      check_verdict "verdict is properly-erased" "properly-erased" env sn)
    [ a1; a2 ];
  (* everyone else is untouched *)
  check_verdict "bob unaffected" "valid-data" env b1;
  check_verdict "untenanted unaffected" "valid-data" env plain;
  (* bookkeeping *)
  Alcotest.(check bool) "tenant_is_erased" true (Worm.tenant_is_erased env.store "alice");
  Alcotest.(check bool) "bob not erased" false (Worm.tenant_is_erased env.store "bob");
  ignore (cert_exn (Worm.erasure_cert_of env.store "alice"));
  Alcotest.(check int) "one erased tenant" 1 (List.length (Worm.erased_tenants env.store));
  Alcotest.(check (list string)) "alice no longer live" [ "bob" ] (Worm.live_tenants env.store);
  (* idempotent: re-erasing returns the original certificate *)
  let cert' = Worm.erase_tenant env.store ~tenant:"alice" in
  Alcotest.(check string) "same signature" cert.Firmware.signature cert'.Firmware.signature;
  Alcotest.(check int64) "same timestamp" cert.Firmware.erased_at cert'.Firmware.erased_at

let test_forged_cert_rejected () =
  let env = fresh_env () in
  ignore (write_tenant env ~tenant:"alice" [ "a" ]);
  let cert = Worm.erase_tenant env.store ~tenant:"alice" in
  (* a cert transplanted onto a different tenant must not verify *)
  (match Client.verify_erasure_cert env.client { cert with Firmware.tenant = "bob" } with
  | Ok () -> Alcotest.fail "transplanted cert verified"
  | Error _ -> ());
  (* nor one whose coverage bound was widened *)
  match
    Client.verify_erasure_cert env.client { cert with Firmware.upto = Serial.next cert.Firmware.upto }
  with
  | Ok () -> Alcotest.fail "widened cert verified"
  | Error _ -> ()

let test_erased_writes_refused () =
  let env = fresh_env () in
  ignore (write_tenant env ~tenant:"gone" [ "x" ]);
  ignore (Worm.erase_tenant env.store ~tenant:"gone");
  (* the store itself refuses before allocating a serial *)
  let before = Firmware.sn_current (Worm.firmware env.store) in
  (try
     ignore (write_tenant env ~tenant:"gone" [ "y" ]);
     Alcotest.fail "write for an erased tenant was admitted"
   with Invalid_argument _ -> ());
  Alcotest.(check bool) "no serial burned" true
    (Serial.equal before (Firmware.sn_current (Worm.firmware env.store)))

(* ---------- wire path ---------- *)

let test_erasure_over_the_wire () =
  let env = fresh_env () in
  let server = Server.create env.store in
  let ask request = Message.decode_response (Server.handle_bytes server (Message.encode_request request)) in
  let sn = write_tenant env ~tenant:"alice" [ "wire secret" ] in
  (* erase through the protocol; the reply carries the certificate *)
  let cert =
    match ask (Message.Erase_tenant "alice") with
    | Ok (Message.Erasure_cert_reply (Some cert)) -> cert
    | Ok r -> Alcotest.fail (Message.describe_response r)
    | Error e -> Alcotest.fail e
  in
  (match Client.verify_erasure_cert env.client cert with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* the Erased read response survives the codec roundtrip and verifies *)
  (match ask (Message.Read sn) with
  | Ok (Message.Read_reply { sn = sn'; response }) ->
      Alcotest.(check bool) "sn echoed" true (Serial.equal sn sn');
      (match response with
      | Proof.Erased _ -> ()
      | r -> Alcotest.fail (Proof.describe r));
      Alcotest.(check string) "decoded response verifies" "properly-erased"
        (Client.verdict_name (Client.verify_read env.client ~sn response))
  | Ok r -> Alcotest.fail (Message.describe_response r)
  | Error e -> Alcotest.fail e);
  (* cert fetch, and None for a never-erased tenant *)
  (match ask (Message.Erasure_cert_get "alice") with
  | Ok (Message.Erasure_cert_reply (Some _)) -> ()
  | Ok r -> Alcotest.fail (Message.describe_response r)
  | Error e -> Alcotest.fail e);
  (match ask (Message.Erasure_cert_get "bob") with
  | Ok (Message.Erasure_cert_reply None) -> ()
  | Ok r -> Alcotest.fail (Message.describe_response r)
  | Error e -> Alcotest.fail e);
  (* writes for the erased tenant are refused at the protocol layer,
     totally — a protocol error, not a dead dispatcher *)
  (match ask (Message.Write { policy = policy (); tenant = "alice"; blocks = [ "z" ] }) with
  | Ok (Message.Protocol_error _) -> ()
  | Ok r -> Alcotest.fail (Message.describe_response r)
  | Error e -> Alcotest.fail e);
  (* and empty tenant ids are named, not crashed on *)
  match ask (Message.Erase_tenant "") with
  | Ok (Message.Protocol_error _) -> ()
  | Ok r -> Alcotest.fail (Message.describe_response r)
  | Error e -> Alcotest.fail e

let test_remote_client_erasure () =
  let env = fresh_env () in
  ignore (write_tenant env ~tenant:"alice" [ "remote secret" ]);
  let transport = Server.handle_bytes (Server.create env.store) in
  let connect transport =
    match Remote_client.connect ~ca:(ca_pub ()) ~clock:env.clock transport with
    | Ok rc -> rc
    | Error e -> Alcotest.fail e
  in
  let rc = connect transport in
  (match Remote_client.erasure_cert rc "alice" with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "certificate served before erasure"
  | Error e -> Alcotest.fail e);
  let cert = match Remote_client.erase_tenant rc "alice" with Ok c -> c | Error e -> Alcotest.fail e in
  Alcotest.(check bool) "the store's own certificate" true (Worm.erasure_cert_of env.store "alice" = Some cert);
  (match Remote_client.erase_tenant rc "alice" with
  | Ok again -> Alcotest.(check bool) "re-erasing returns the original" true (again = cert)
  | Error e -> Alcotest.fail e);
  (* a transport that re-encodes the served certificate with a widened
     [upto] or another tenant gets an error, never a receipt *)
  let rewriting forge request =
    let reply = transport request in
    match Message.decode_response reply with
    | Ok (Message.Erasure_cert_reply (Some c)) -> Message.encode_response (Message.Erasure_cert_reply (Some (forge c)))
    | _ -> reply
  in
  List.iter
    (fun (name, forge) ->
      let rc' = connect (rewriting forge) in
      (match Remote_client.erase_tenant rc' "alice" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (name ^ ": forged erase receipt accepted"));
      match Remote_client.erasure_cert rc' "alice" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (name ^ ": forged certificate accepted"))
    [
      ("widened upto", fun (c : Firmware.erasure_cert) -> { c with upto = Serial.next c.upto });
      ("other tenant", fun (c : Firmware.erasure_cert) -> { c with tenant = "bob" });
    ];
  (match Remote_client.erase_tenant rc "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty tenant erased");
  match Remote_client.erasure_cert rc "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty tenant answered"

(* ---------- maintenance and audits ---------- *)

let test_scrubber_erased_compliant () =
  let env = fresh_env () in
  ignore (write_tenant env ~tenant:"alice" [ "a1" ]);
  ignore (write_tenant env ~tenant:"alice" [ "a2" ]);
  ignore (write_tenant env ~tenant:"bob" [ "b1" ]);
  ignore (Worm.erase_tenant env.store ~tenant:"alice");
  let s = Scrubber.create ~store:env.store ~client:env.client () in
  let report = Scrubber.run_pass s in
  Alcotest.(check bool) "erased tenant scrubs clean" true (Report.clean report)

let test_deferred_audit_discharged () =
  (* Host-hash records of an erased tenant cannot be re-audited (their
     plaintext is gone by design); the pending audit is discharged as
     compliant, not reported as a finding. *)
  let config = { Worm.default_config with Worm.datasig_mode = Worm.Host_hash } in
  let env = fresh_env ~config () in
  ignore (Worm.write env.store ~tenant:"alice" ~policy:(policy ()) ~blocks:[ "h1" ]);
  ignore (Worm.write env.store ~tenant:"alice" ~policy:(policy ()) ~blocks:[ "h2" ]);
  Alcotest.(check bool) "audits queued" true (Worm.audit_backlog env.store <> []);
  ignore (Worm.erase_tenant env.store ~tenant:"alice");
  let outcome = Worm.run_audits env.store () in
  Alcotest.(check (list string)) "no mismatches" []
    (List.map (fun (_, e) -> Firmware.error_to_string e) outcome.Worm.mismatches);
  Alcotest.(check (list string)) "no findings" []
    (List.map (fun (_, e) -> Firmware.error_to_string e) (Worm.drain_audit_findings env.store));
  Alcotest.(check bool) "backlog drained" true (Worm.audit_backlog env.store = [])

let test_erasure_survives_restart () =
  let env = fresh_env () in
  let a = write_tenant env ~tenant:"alice" [ "gone" ] in
  let b = write_tenant env ~tenant:"bob" [ "kept" ] in
  ignore (Worm.erase_tenant env.store ~tenant:"alice");
  let blob = Worm.save_host_state env.store in
  match Worm.restore ~firmware:(Worm.firmware env.store) ~disk:env.disk ~host_state:blob () with
  | Error e -> Alcotest.fail e
  | Ok store' ->
      (match Worm.read store' a with
      | Proof.Erased _ -> ()
      | r -> Alcotest.fail (Proof.describe r));
      Alcotest.(check bool) "tombstone survives" true (Worm.tenant_is_erased store' "alice");
      (* the tenant index is derivable state: rebuilt from the VRDT *)
      Alcotest.(check (list int)) "bob's index rebuilt" [ Serial.to_int b ]
        (List.map Serial.to_int (Worm.tenant_serials store' "bob"));
      Alcotest.(check string) "bob still readable" "valid-data"
        (Client.verdict_name (Client.verify_read env.client ~sn:b (Worm.read store' b)))

(* ---------- cluster: fenced-shard totality (bugfix regression) ---------- *)

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
  let seed =
    Printf.sprintf "erasure-cluster-%d"
      (incr counter;
       !counter)
  in
  (Router.create ~config ~seed ~ca:(Lazy.force ca) ~clock (), clock)

let test_fenced_shard_wire_total () =
  (* Regression: a request routed at a shard with no serving store used
     to [failwith] out of the dispatcher. It must answer — a protocol
     refusal through the wire path — because a request arriving
     mid-failover is routine, not a crash. *)
  let router, _clock = fresh_router ~shards:2 ~mirrored:false () in
  let front = Cluster_server.create router in
  let write_exn blocks =
    match Router.write router ~policy:(policy ()) ~blocks with
    | Ok sn -> sn
    | Error e -> Alcotest.fail e
  in
  let g1 = write_exn [ "r1" ] in
  (* land a second record on shard 1 so the interleave's NEXT stripe is
     the shard we are about to fence *)
  ignore (write_exn [ "r2" ]);
  Router.kill router 0;
  (match Router.fence router 0 with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "shard 0 has no serving store" true (Router.serving_store router 0 = None);
  (match Cluster_server.shard_server front 0 with
  | None -> ()
  | Some _ -> Alcotest.fail "fenced shard yielded a dispatcher");
  (* every cluster request still answers in decodable bytes *)
  List.iter
    (fun request ->
      match Message.decode_response (Cluster_server.handle_bytes front (Message.encode_request request)) with
      | Ok (Message.Protocol_error _) -> ()
      | Ok (Message.Cluster_read_reply { response = Proof.Refused _; _ }) -> ()
      | Ok r -> Alcotest.failf "%s: unexpected %s" (Message.describe_request request) (Message.describe_response r)
      | Error e -> Alcotest.fail e)
    [
      Message.Cluster_hello;
      Message.Cluster_read g1;
      Message.Cluster_proof_get;
      Message.Write { policy = policy (); tenant = ""; blocks = [ "w" ] };
      Message.Erase_tenant "alice";
    ];
  (* verifiers stay total too: the fenced slot is None, and responses
     claiming to come from it are unverifiable, not exceptions *)
  let verifiers = Router.verifiers router in
  Alcotest.(check bool) "fenced slot is None" true (verifiers.(0) = None);
  match Router.verify_read router verifiers g1 (Router.read router g1) with
  | Client.Violation [ Client.Absence_unproven ] -> ()
  | v -> Alcotest.fail (Client.verdict_name v)

(* ---------- cluster: erasure x failover ---------- *)

let test_erasure_survives_failover () =
  let router, _clock = fresh_router ~shards:2 ~mirrored:true () in
  (* spread two tenants' records across both stripes *)
  let write ~tenant tag =
    match Router.write router ~tenant ~policy:(policy ()) ~blocks:[ tag ] with
    | Ok sn -> sn
    | Error e -> Alcotest.fail e
  in
  let alice = List.init 4 (fun i -> write ~tenant:"alice" (Printf.sprintf "a%d" i)) in
  let bob = List.init 4 (fun i -> write ~tenant:"bob" (Printf.sprintf "b%d" i)) in
  let certs =
    match Router.erase_tenant router ~tenant:"alice" with
    | Ok certs -> certs
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "every shard attests" 2 (List.length certs);
  (* the cluster-level claim: one cert per shard, each under its own
     shard's deletion key, checked against the aggregated proof *)
  let proof = match Router.freshness_proof router with Ok p -> p | Error e -> Alcotest.fail e in
  let now = Clock.now _clock in
  (match Cluster_proof.verify_erasure ~ca:(ca_pub ()) ~now proof ~tenant:"alice" certs with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* a shard that has not attested fails the whole claim *)
  (match Cluster_proof.verify_erasure ~ca:(ca_pub ()) ~now proof ~tenant:"alice" [ List.hd certs ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "partial erasure claim accepted");
  (* and a transplanted tenant name fails every shard *)
  (match Cluster_proof.verify_erasure ~ca:(ca_pub ()) ~now proof ~tenant:"bob" certs with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "erasure claim accepted for the wrong tenant");
  let check_certs () =
    let verifiers = Router.verifiers router in
    List.iter
      (fun (shard, _store_id, cert) ->
        match verifiers.(shard) with
        | None -> Alcotest.failf "shard %d has no verifier" shard
        | Some client -> (
            match Client.verify_erasure_cert client cert with
            | Ok () -> ()
            | Error e -> Alcotest.failf "shard %d cert: %s" shard e))
      (Router.erasure_certs router ~tenant:"alice")
  in
  let check_reads () =
    let verifiers = Router.verifiers router in
    List.iter
      (fun g ->
        Alcotest.(check string)
          (Printf.sprintf "global %d erased" (Serial.to_int g))
          "properly-erased"
          (Client.verdict_name (Router.verify_read router verifiers g (Router.read router g))))
      alice;
    List.iter
      (fun g ->
        Alcotest.(check string)
          (Printf.sprintf "global %d intact" (Serial.to_int g))
          "valid-data"
          (Client.verdict_name (Router.verify_read router verifiers g (Router.read router g))))
      bob
  in
  check_certs ();
  check_reads ();
  (* kill the primary of shard 0: the lockstep mirror serves, and it was
     erased too, so alice stays forgotten while fenced... *)
  Router.kill router 0;
  (match Router.fence router 0 with Ok () -> () | Error e -> Alcotest.fail e);
  check_certs ();
  check_reads ();
  (* ...and after full failover (promotion + fresh mirror resync), the
     promoted store's certificate still verifies and the fresh mirror
     inherited the tombstone rather than the plaintext *)
  (match Router.recover router 0 with Ok _ -> () | Error e -> Alcotest.fail e);
  check_certs ();
  check_reads ();
  Alcotest.(check bool) "cluster still refuses alice" true (Router.tenant_is_erased router "alice");
  match Router.write router ~tenant:"alice" ~policy:(policy ()) ~blocks:[ "back?" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "erased tenant re-admitted after failover"

let suite =
  [
    ("tenant roundtrip", `Quick, test_tenant_roundtrip);
    ("per-record keys separate", `Quick, test_per_record_keys_separate);
    ("erasure certified and provable", `Quick, test_erasure_certified_and_provable);
    ("forged cert rejected", `Quick, test_forged_cert_rejected);
    ("erased writes refused", `Quick, test_erased_writes_refused);
    ("erasure over the wire", `Quick, test_erasure_over_the_wire);
    ("remote client erasure", `Quick, test_remote_client_erasure);
    ("scrubber: erased is compliant", `Quick, test_scrubber_erased_compliant);
    ("deferred audit discharged", `Quick, test_deferred_audit_discharged);
    ("erasure survives restart", `Quick, test_erasure_survives_restart);
    ("fenced shard: wire path total", `Quick, test_fenced_shard_wire_total);
    ("erasure survives failover", `Quick, test_erasure_survives_failover);
  ]

let () = Alcotest.run "worm_erasure" [ ("erasure", suite) ]
