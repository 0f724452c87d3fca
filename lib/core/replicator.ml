module Disk = Worm_simdisk.Disk
module Chained_hash = Worm_crypto.Chained_hash
module Rsa = Worm_crypto.Rsa
module Cert = Worm_crypto.Cert

type t = {
  primary : Worm.t;
  mirror : Worm.t;
  pairs : (Serial.t, Serial.t) Hashtbl.t;
  (* Off-store copies of the primary's signed VRD bytes, keyed by primary
     SN. These are untrusted host state like everything else here — what
     makes them usable for repair is that the witnesses inside are
     self-certifying under the primary SCPU's certificates, so a healed
     VRDT entry carries exactly the signatures the SCPU once issued. *)
  vrd_backups : (Serial.t, string) Hashtbl.t;
}

(* Verify a backup witness under the primary SCPU's signing certificate.
   Mirrors the client-side check: strong = long-term key s; weak = a
   short-term cert chained under s and still within its validity at the
   device's current time. MACs are opaque to the host, so a MAC backup
   never verifies (it is refreshed once strengthening lands). *)
let witness_verifies t msg witness =
  let signing = (Firmware.signing_cert (Worm.firmware t.primary)).Cert.key in
  let now = Worm_scpu.Device.now (Firmware.device (Worm.firmware t.primary)) in
  match witness with
  | Witness.Strong signature -> Rsa.verify signing ~msg ~signature
  | Witness.Weak { cert; signature } ->
      Cert.verify ~ca:signing ~now cert
      && cert.Cert.role = Cert.Scpu_short_term
      && Rsa.verify cert.Cert.key ~msg ~signature
  | Witness.Mac _ -> false

let vrd_verifies t (vrd : Vrd.t) =
  let store_id = Worm.store_id t.primary in
  let meta_msg = Wire.metasig_msg ~store_id ~sn:vrd.Vrd.sn ~attr_bytes:(Attr.to_bytes vrd.Vrd.attr) in
  let data_msg = Wire.datasig_msg ~store_id ~sn:vrd.Vrd.sn ~data_hash:vrd.Vrd.data_hash in
  witness_verifies t meta_msg vrd.Vrd.metasig && witness_verifies t data_msg vrd.Vrd.datasig

let backup_vrd t sn =
  match Vrdt.find (Worm.vrdt t.primary) sn with
  | Some (Vrdt.Active vrd) -> Hashtbl.replace t.vrd_backups sn (Vrd.to_bytes vrd)
  | Some (Vrdt.Deleted _) | None -> ()

(* Refresh backups whose live VRD now carries verifiably better
   witnesses (e.g. strengthening upgraded a weak/MAC pair). Only
   verified bytes may displace a backup — a corrupted live entry must
   never overwrite the good copy it would later be healed from. *)
let refresh_backups t =
  Hashtbl.iter
    (fun sn bytes ->
      match Vrdt.find (Worm.vrdt t.primary) sn with
      | Some (Vrdt.Active vrd) when Vrd.to_bytes vrd <> bytes && vrd_verifies t vrd ->
          Hashtbl.replace t.vrd_backups sn (Vrd.to_bytes vrd)
      | Some (Vrdt.Deleted _) | None -> Hashtbl.remove t.vrd_backups sn
      | Some (Vrdt.Active _) -> ())
    (Hashtbl.copy t.vrd_backups)

let create ~primary ~mirror = { primary; mirror; pairs = Hashtbl.create 256; vrd_backups = Hashtbl.create 256 }
let mirror t = t.mirror

let write ?witness ?tenant t ~policy ~blocks =
  (* Each store seals tenanted blocks under its own SCPU's key
     hierarchy — the key tables are independent device state, so an
     erasure must reach both sides ([Shard_router.erase_tenant]). *)
  let p = Worm.write ?witness ?tenant t.primary ~policy ~blocks in
  let m = Worm.write ?witness ?tenant t.mirror ~policy ~blocks in
  Hashtbl.replace t.pairs p m;
  backup_vrd t p;
  (p, m)

let mirror_sn t sn = Hashtbl.find_opt t.pairs sn

let count_deletions outcomes = List.length (List.filter (fun (_, r) -> r = Ok ()) outcomes)

let expire_due t = (count_deletions (Worm.expire_due t.primary), count_deletions (Worm.expire_due t.mirror))

let idle_tick t =
  Worm.idle_tick t.primary;
  Worm.idle_tick t.mirror;
  refresh_backups t

type divergence = {
  primary_sn : Serial.t;
  mirror_sn_ : Serial.t;
  primary_verdict : string;
  mirror_verdict : string;
}

(* Digest-identical to hashing [String.concat "\x00" blocks], but fed
   part-by-part. *)
let rec sep_parts = function
  | [] -> []
  | [ b ] -> [ b ]
  | b :: rest -> b :: "\x00" :: sep_parts rest

let verdict_fingerprint client store sn =
  match Client.verify_read client ~sn (Worm.read store sn) with
  | Client.Valid_data { blocks; _ } ->
      ( "valid:" ^ Worm_util.Hex.encode (Worm_crypto.Sha256.digest_parts (sep_parts blocks)),
        "valid-data" )
  | v ->
      let name = Client.verdict_name v in
      (name, name)

let divergence_audit t ~primary_client ~mirror_client =
  Hashtbl.fold
    (fun p m acc ->
      let p_fp, p_name = verdict_fingerprint primary_client t.primary p in
      let m_fp, m_name = verdict_fingerprint mirror_client t.mirror m in
      if String.equal p_fp m_fp then acc
      else { primary_sn = p; mirror_sn_ = m; primary_verdict = p_name; mirror_verdict = m_name } :: acc)
    t.pairs []
  |> List.sort (fun a b -> Serial.compare a.primary_sn b.primary_sn)

let ( let* ) = Result.bind

let mirror_blocks t msn =
  match Worm.read t.mirror msn with
  | Proof.Found { blocks; _ } -> Ok blocks
  | r -> Error ("mirror copy unreadable: " ^ Proof.describe r)

let heal_data t ~sn =
  let* msn =
    match mirror_sn t sn with
    | Some m -> Ok m
    | None -> Error "no mirror pairing for this serial"
  in
  let* vrd =
    match Vrdt.find (Worm.vrdt t.primary) sn with
    | Some (Vrdt.Active vrd) -> Ok vrd
    | Some (Vrdt.Deleted _) -> Error "record is deleted on the primary"
    | None -> Error "primary VRDT entry missing (use heal_missing)"
  in
  let* blocks = mirror_blocks t msn in
  (* The primary's own datasig arbitrates: only bytes hashing to the
     committed value may be written back. *)
  let actual = Chained_hash.value (Chained_hash.of_blocks blocks) in
  if not (Worm_util.Ct.equal actual vrd.Vrd.data_hash) then
    Error "mirror bytes do not match the primary datasig (mirror also damaged?)"
  else if List.length blocks <> List.length vrd.Vrd.rdl then Error "block count mismatch"
  else begin
    let disk = Worm.disk t.primary in
    (* overwrite corrupted blocks in place; re-allocate destroyed ones
       (the rdl is unsigned host plumbing, so updating it is fine) *)
    let rdl' =
      List.map2
        (fun rd block -> if Disk.Raw.tamper disk rd ~f:(fun _ -> block) then rd else Disk.write disk block)
        vrd.Vrd.rdl blocks
    in
    if rdl' <> vrd.Vrd.rdl then Vrdt.set_active (Worm.vrdt t.primary) { vrd with Vrd.rdl = rdl' };
    Ok ()
  end

let heal_witness t ~sn =
  let* bytes =
    match Hashtbl.find_opt t.vrd_backups sn with
    | Some b -> Ok b
    | None -> Error "no VRD backup for this serial"
  in
  let* backup = Vrd.of_bytes bytes in
  let* live =
    match Vrdt.find (Worm.vrdt t.primary) sn with
    | Some (Vrdt.Active vrd) -> Ok vrd
    | Some (Vrdt.Deleted _) -> Error "record is deleted on the primary"
    | None -> Error "primary VRDT entry missing (use heal_missing)"
  in
  if not (vrd_verifies t backup) then Error "backup witnesses do not verify (backup also damaged?)"
  else begin
    (* Keep the live rdl: physical placement is unsigned host plumbing
       and may legitimately have moved since the backup was taken. *)
    Vrdt.set_active (Worm.vrdt t.primary) { backup with Vrd.rdl = live.Vrd.rdl };
    Ok ()
  end

let resync_mirror t =
  (* Strengthen first: the import path refuses weak/MAC witnesses, and a
     mirror rebuilt from them would anyway inherit evidence the source
     SCPU is about to replace. *)
  let rec drain () = if Worm.strengthen_pending t.primary ~max:256 () > 0 then drain () in
  drain ();
  (* Propagate erasures before walking records: a tenant forgotten on
     the primary must be forgotten on the rebuilt mirror too, and the
     walk below will (rightly) find no plaintext to replicate for it. *)
  List.iter
    (fun (cert : Firmware.erasure_cert) ->
      ignore (Worm.erase_tenant t.mirror ~tenant:cert.Firmware.tenant : Firmware.erasure_cert))
    (Worm.erased_tenants t.primary);
  let source_cert = Firmware.signing_cert (Worm.firmware t.primary) in
  let source_store_id = Worm.store_id t.primary in
  let sns = List.sort Serial.compare (Vrdt.active_sns (Worm.vrdt t.primary)) in
  let rec go n = function
    | [] -> Ok n
    | sn :: rest when Hashtbl.mem t.pairs sn -> go n rest
    | sn :: rest -> begin
        match Worm.read t.primary sn with
        | Proof.Erased _ ->
            (* Plaintext gone by design. The mirror's own tombstone
               (installed above) answers for the tenant; nothing to
               replicate, and nothing wrong. *)
            go n rest
        | Proof.Found { vrd; blocks } -> begin
            match
              Worm.import_record t.mirror ~source_signing_cert:source_cert ~source_store_id
                ~vrd_bytes:(Vrd.to_bytes vrd) ~blocks
            with
            | Ok msn ->
                Hashtbl.replace t.pairs sn msn;
                backup_vrd t sn;
                go (n + 1) rest
            | Error e ->
                Error
                  (Printf.sprintf "mirror refused re-ingest of sn %d: %s" (Serial.to_int sn)
                     (Firmware.error_to_string e))
          end
        | r ->
            Error (Printf.sprintf "primary record %d unreadable: %s" (Serial.to_int sn) (Proof.describe r))
      end
  in
  go 0 sns

let heal_missing t ~sn =
  let* msn =
    match mirror_sn t sn with
    | Some m -> Ok m
    | None -> Error "no mirror pairing for this serial"
  in
  (match Vrdt.find (Worm.vrdt t.primary) sn with
  | None -> Ok ()
  | Some _ -> Error "primary entry still present (use heal_data)")
  |> fun r ->
  let* () = r in
  let* blocks = mirror_blocks t msn in
  let* mirror_vrd =
    match Vrdt.find (Worm.vrdt t.mirror) msn with
    | Some (Vrdt.Active vrd) -> Ok vrd
    | Some (Vrdt.Deleted _) | None -> Error "mirror VRD unavailable"
  in
  let source_cert = Firmware.signing_cert (Worm.firmware t.mirror) in
  match
    Worm.import_record t.primary ~source_signing_cert:source_cert
      ~source_store_id:(Worm.store_id t.mirror) ~vrd_bytes:(Vrd.to_bytes mirror_vrd) ~blocks
  with
  | Ok new_sn ->
      Hashtbl.remove t.pairs sn;
      Hashtbl.replace t.pairs new_sn msn;
      Ok new_sn
  | Error e -> Error ("primary SCPU refused re-ingest: " ^ Firmware.error_to_string e)
