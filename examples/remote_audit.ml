(* A federal investigator audits a broker-dealer's WORM store over the
   wire. The investigator trusts only the CA key and a synchronized
   clock: certificates arrive over the (untrusted) transport, every
   reply is verified locally, and the host's attempts to lie — including
   a man-in-the-middle rewriting responses — are all caught.

   The firm's documents are plain write-once records: an amended
   document is a new record, and the original stays readable.

   Run with: dune exec examples/remote_audit.exe *)

open Worm_core
module Device = Worm_scpu.Device
module Clock = Worm_simclock.Clock
module Rsa = Worm_crypto.Rsa
module Drbg = Worm_crypto.Drbg
module Message = Worm_proto.Message
module Server = Worm_proto.Server
module Remote_client = Worm_proto.Remote_client

let () =
  Printf.printf "=== Remote audit over the WORM protocol ===\n\n";
  let rng = Drbg.create ~seed:"remote-audit" in
  let ca = Rsa.generate rng ~bits:1024 in
  let clock = Clock.create () in
  let device = Device.provision ~seed:"firm-scpu" ~clock ~ca ~name:"scpu-firm" () in
  let store = Worm.create ~device ~ca:(Rsa.public_of ca) () in

  (* --- The firm's side: documents as WORM records --- *)
  let policy = Policy.of_regulation Policy.Sox in
  let store_doc body = Worm.write store ~policy ~blocks:[ body ] in
  ignore (store_doc "10-K 2025: annual report, as filed");
  ignore (store_doc "board minutes 2026-03: approved the acquisition");
  let v1 = store_doc "board minutes 2026-06: discussed the writedown" in
  (* an amendment is a NEW record; the original stays *)
  let v2 = store_doc "board minutes 2026-06: discussed the writedown (amended)" in
  Printf.printf "Firm stored %d records; the June minutes are record %s, amended as record %s\n"
    (Serial.to_int (Firmware.sn_current (Worm.firmware store)))
    (Serial.to_string v1) (Serial.to_string v2);

  (* --- The wire --- *)
  let server = Server.create store in
  let transport = Server.handle_bytes server in

  (* --- The investigator connects knowing only the CA --- *)
  Printf.printf "\nInvestigator connects...\n";
  let rc =
    match Remote_client.connect ~ca:(Rsa.public_of ca) ~clock transport with
    | Ok rc -> rc
    | Error e -> failwith e
  in
  Printf.printf "  certificates validated; store %s\n" (Worm_util.Hex.encode (Remote_client.store_id rc));

  (* --- Full audit sweep over every serial number ever issued --- *)
  let current = Firmware.sn_current (Worm.firmware store) in
  let results = Remote_client.audit_sweep rc ~lo:Serial.first ~hi:current in
  Printf.printf "\nAudit sweep over %s..%s:\n" (Serial.to_string Serial.first) (Serial.to_string current);
  List.iter
    (fun (sn, verdict) -> Printf.printf "  %s -> %s\n" (Serial.to_string sn) (Client.verdict_name verdict))
    results;
  Printf.printf "  (%d bytes sent, %d received)\n" (Remote_client.bytes_sent rc)
    (Remote_client.bytes_received rc);

  (* --- The original of the amended minutes is still retrievable --- *)
  (match Remote_client.read rc v1 with
  | Client.Valid_data { blocks; _ } ->
      Printf.printf "\nOriginal June minutes (over the wire): %S\n" (String.concat "" blocks)
  | v -> Printf.printf "v1: %s\n" (Client.verdict_name v));

  (* --- A man in the middle rewrites responses --- *)
  Printf.printf "\nA middlebox starts rewriting read responses...\n";
  let mitm req =
    match Message.decode_request req with
    | Ok (Message.Read _) ->
        let reply = transport req in
        let b = Bytes.of_string reply in
        (* rewrite a byte of the record data at the tail of the reply *)
        let i = Bytes.length b - 3 in
        if i > 0 then Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
        Bytes.to_string b
    | _ -> transport req
  in
  let rc_mitm =
    match Remote_client.connect ~ca:(Rsa.public_of ca) ~clock mitm with
    | Ok rc -> rc
    | Error e -> failwith e
  in
  (match Remote_client.read rc_mitm v1 with
  | Client.Violation vs ->
      Printf.printf "  tampered reply -> VIOLATION: %s\n"
        (String.concat "; " (List.map Client.violation_to_string vs))
  | v -> Printf.printf "  unexpected: %s\n" (Client.verdict_name v));

  Printf.printf "\nThe transport added nothing to the insider's powers. Done.\n"
