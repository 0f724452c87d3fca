open Worm_crypto
module Device = Worm_scpu.Device

let src = Logs.Src.create "worm.firmware" ~doc:"Trusted WORM firmware (SCPU-resident logic)"

module Log = (val Logs.src_log src : Logs.LOG)

type witness_mode = Strong_now | Weak_deferred | Mac_deferred
type data_source = Blocks of string list | Claimed_hash of string * int

type current_bound = { sn : Serial.t; timestamp : int64; signature : string }
type base_bound = { sn : Serial.t; expires_at : int64; signature : string }
type deletion_window = { window_id : string; lo : Serial.t; hi : Serial.t; sig_lo : string; sig_hi : string }
type write_result = { vrd : Vrd.t; vexp_shed : (int64 * Serial.t) list }

type erasure_cert = { tenant : string; erased_at : int64; upto : Serial.t; signature : string }

(* Per-tenant leaf of the key hierarchy. [Tenant_key] holds the 128-bit
   tenant key in SCPU NVRAM — generated from the device RNG at first
   use, never derivable from the master key, so destroying this entry
   destroys every record key under it. [Tenant_gone] is the tombstone:
   the key is unrecoverable and the certificate is the proof. *)
type tenant_state = Tenant_key of string | Tenant_gone of erasure_cert

type error =
  | Not_expired of int64
  | On_litigation_hold of string
  | Bad_witness
  | Bad_credential
  | Not_fully_deleted of Serial.t
  | Window_too_small
  | Audit_mismatch
  | Data_required
  | Wrong_store
  | Already_deleted
  | No_hold_present
  | Malformed_vrd
  | Retention_shortening
  | Not_deleted
  | Tenant_erased of string

let error_to_string = function
  | Not_expired t -> Printf.sprintf "retention has not lapsed (runs until %Ld)" t
  | On_litigation_hold lit -> "record is under litigation hold " ^ lit
  | Bad_witness -> "witness does not verify (or its short-lived key lapsed)"
  | Bad_credential -> "litigation credential rejected"
  | Not_fully_deleted sn -> "window contains live record " ^ Serial.to_string sn
  | Window_too_small -> "deletion windows need at least 3 records"
  | Audit_mismatch -> "host-claimed data hash does not match the data"
  | Data_required -> "pending audit requires the data blocks"
  | Wrong_store -> "statement belongs to a different store"
  | Already_deleted -> "record is already deleted"
  | No_hold_present -> "record carries no litigation hold"
  | Malformed_vrd -> "VRD failed to decode"
  | Retention_shortening -> "retention periods may be extended, never shortened"
  | Not_deleted -> "the SCPU has no record of this serial being deleted"
  | Tenant_erased tenant -> Printf.sprintf "tenant %S was crypto-erased; its keys no longer exist" tenant

(* Freshness tolerance on litigation credentials. *)
let credential_tolerance_ns = Worm_simclock.Clock.ns_of_min 10.

(* How long a signed base bound may be served before it must be
   refreshed (it embeds this expiry to block replay of stale bases). *)
let base_bound_lifetime_ns = Worm_simclock.Clock.ns_of_hours 1.

type t = {
  dev : Device.t;
  ca : Rsa.public;
  store_id : string;
  mutable current : Serial.t;
  mutable base : Serial.t;
  mutable deleted : Serial.Set.t; (* deleted SNs >= base *)
  vexp : Vexp.t;
  pending_audit : (Serial.t, unit) Hashtbl.t;
  (* Authoritative litigation-hold table (NVRAM). The VRD's attr field
     carries the hold for clients to see, but deletion consults THIS:
     otherwise Mallory could replay a pre-hold VRD (whose metasig is
     still cryptographically valid) to get a held record deleted. *)
  holds : (Serial.t, Attr.hold) Hashtbl.t;
  (* Key hierarchy (NVRAM): master key (device-internal) -> per-tenant
     keys (this table) -> per-record data keys (HMAC-derived on demand).
     Erasure replaces a live entry with its tombstone certificate. *)
  tenants : (string, tenant_state) Hashtbl.t;
}

let create ~device ~ca ~vexp_capacity =
  {
    dev = device;
    ca;
    store_id = Device.random device 16;
    current = Serial.zero;
    base = Serial.first;
    deleted = Serial.Set.empty;
    vexp = Vexp.create ~capacity:vexp_capacity;
    pending_audit = Hashtbl.create 64;
    holds = Hashtbl.create 16;
    tenants = Hashtbl.create 16;
  }

let device t = t.dev
let store_id t = t.store_id
let signing_cert t = Device.signing_cert t.dev
let deletion_cert t = Device.deletion_cert t.dev
let sn_current t = t.current
let sn_base t = t.base
let deleted_set_size t = Serial.Set.cardinal t.deleted

let signing_pub t = (Device.signing_cert t.dev).Cert.key

let strong_bits t = (Device.config t.dev).Device.strong_bits
let weak_bits t = (Device.config t.dev).Device.weak_bits

(* Re-verify one of our own witnesses. Weak witnesses are honored only
   while their certificate is valid: §4.3's security-lifetime bound. *)
let verify_witness t msg = function
  | Witness.Strong signature ->
      Device.charge_rsa_verify t.dev ~bits:(strong_bits t);
      Rsa.verify (signing_pub t) ~msg ~signature
  | Witness.Weak { cert; signature } ->
      Device.charge_rsa_verify t.dev ~bits:(strong_bits t);
      Cert.verify ~ca:(signing_pub t) ~now:(Device.now t.dev) cert
      && cert.Cert.role = Cert.Scpu_short_term
      && begin
           Device.charge_rsa_verify t.dev ~bits:(weak_bits t);
           Rsa.verify cert.Cert.key ~msg ~signature
         end
  | Witness.Mac tag -> Device.hmac_verify t.dev ~msg ~tag

let chained_hash_charged t blocks =
  List.fold_left
    (fun acc block ->
      Device.charge_hash_only t.dev ~bytes:(String.length block + 40);
      Chained_hash.add acc block)
    Chained_hash.empty blocks

let mode_name = function
  | Strong_now -> "strong"
  | Weak_deferred -> "weak"
  | Mac_deferred -> "mac"

(* Batched ingest: issue serials and hash/DMA each record first, then
   produce every witness of the burst (2 per record) in one signing
   batch — the device pays per-key setup once per flush, not once per
   record, which is what makes cross-client write coalescing in the
   event server cheaper than serving each connection alone. *)
let write_batch t ~mode entries =
  let prepared =
    List.map
      (fun (attr, rdl, data) ->
        let sn = Serial.next t.current in
        t.current <- sn;
        let attr = { attr with Attr.created_at = Device.now t.dev } in
        let attr_bytes = Attr.to_bytes attr in
        let data_hash =
          match data with
          | Blocks blocks ->
              let total = List.fold_left (fun acc b -> acc + String.length b) 0 blocks in
              Device.charge_dma t.dev ~bytes:(String.length attr_bytes + (8 * List.length rdl) + total);
              Chained_hash.value (chained_hash_charged t blocks)
          | Claimed_hash (hash, _total) ->
              Device.charge_dma t.dev ~bytes:(String.length attr_bytes + (8 * List.length rdl) + String.length hash);
              Hashtbl.replace t.pending_audit sn ();
              hash
        in
        let meta_msg = Wire.metasig_msg ~store_id:t.store_id ~sn ~attr_bytes in
        let data_msg = Wire.datasig_msg ~store_id:t.store_id ~sn ~data_hash in
        (sn, attr, rdl, data_hash, meta_msg, data_msg))
      entries
  in
  let msgs = List.concat_map (fun (_, _, _, _, meta_msg, data_msg) -> [ meta_msg; data_msg ]) prepared in
  let witnesses =
    match mode with
    | Strong_now -> List.map (fun s -> Witness.Strong s) (Device.sign_strong_batch t.dev msgs)
    | Weak_deferred ->
        let cert, sigs = Device.sign_weak_batch t.dev msgs in
        List.map (fun signature -> Witness.Weak { cert; signature }) sigs
    | Mac_deferred -> List.map (fun msg -> Witness.Mac (Device.hmac_tag t.dev msg)) msgs
  in
  let rec reassemble prepared witnesses =
    match (prepared, witnesses) with
    | [], [] -> []
    | (sn, attr, rdl, data_hash, _, _) :: rest, metasig :: datasig :: ws ->
        Log.debug (fun m ->
            m "write %s mode=%s expiry=%Ld" (Serial.to_string sn) (mode_name mode) (Attr.expiry attr));
        let vexp_shed =
          match Vexp.insert t.vexp ~expiry:(Attr.expiry attr) sn with
          | Vexp.Inserted -> []
          | Vexp.Inserted_evicting (e, s) -> [ (e, s) ]
          | Vexp.Rejected_full -> [ (Attr.expiry attr, sn) ]
        in
        { vrd = { Vrd.sn; attr; rdl; data_hash; metasig; datasig }; vexp_shed } :: reassemble rest ws
    | _ -> assert false
  in
  reassemble prepared witnesses

let write t ~attr ~rdl ~data ~mode =
  match write_batch t ~mode [ (attr, rdl, data) ] with [ r ] -> r | _ -> assert false

let current_bound t =
  let timestamp = Device.now t.dev in
  let msg = Wire.current_bound_msg ~store_id:t.store_id ~sn:t.current ~timestamp in
  { sn = t.current; timestamp; signature = Device.sign_strong t.dev msg }

let base_bound t =
  let expires_at = Int64.add (Device.now t.dev) base_bound_lifetime_ns in
  let msg = Wire.base_bound_msg ~store_id:t.store_id ~sn:t.base ~expires_at in
  { sn = t.base; expires_at; signature = Device.sign_strong t.dev msg }

let decode_vrd vrd_bytes =
  match Vrd.of_bytes vrd_bytes with
  | Ok vrd -> Ok vrd
  | Error _ -> Error Malformed_vrd

(* Check that a host-presented VRD is genuine: its metasig must be one
   of ours over exactly these attributes. *)
let authenticate_vrd t (vrd : Vrd.t) =
  Device.charge_dma t.dev ~bytes:(String.length (Vrd.to_bytes vrd));
  let msg = Wire.metasig_msg ~store_id:t.store_id ~sn:vrd.sn ~attr_bytes:(Attr.to_bytes vrd.attr) in
  if verify_witness t msg vrd.metasig then Ok () else Error Bad_witness

let is_deleted t sn = Serial.(sn < t.base) || Serial.Set.mem sn t.deleted

let tenant_erased_cert t tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some (Tenant_gone cert) -> Some cert
  | Some (Tenant_key _) | None -> None

let erasure_cert_of t tenant = tenant_erased_cert t tenant
let tenant_is_erased t tenant = tenant_erased_cert t tenant <> None

let erased_tenants t =
  Hashtbl.fold (fun _ state acc -> match state with Tenant_gone cert -> cert :: acc | Tenant_key _ -> acc) t.tenants []
  |> List.sort (fun a b -> String.compare a.tenant b.tenant)

let record_key_input t ~sn =
  let module C = Worm_util.Codec in
  C.with_encoder (fun enc ->
      C.bytes enc "worm:v1:reckey";
      C.bytes enc t.store_id;
      Serial.encode enc sn;
      C.to_string enc)

(* Per-record data key: HMAC(tenant key, store_id || sn) truncated to
   128 bits. Derived on demand, so only the per-tenant key occupies
   NVRAM — destroying it orphans every record key under it at once. The
   tenant key itself comes from the device RNG at first use, never from
   the master key, so not even the SCPU can re-derive it after erasure. *)
let record_key t ~tenant ~sn =
  if String.equal tenant "" then invalid_arg "Firmware.record_key: empty tenant";
  match Hashtbl.find_opt t.tenants tenant with
  | Some (Tenant_gone _) -> Error (Tenant_erased tenant)
  | (Some (Tenant_key _) | None) as entry ->
      let key =
        match entry with
        | Some (Tenant_key key) -> key
        | _ ->
            let key = Device.random t.dev 16 in
            Hashtbl.replace t.tenants tenant (Tenant_key key);
            Log.debug (fun m -> m "tenant key provisioned for %S" tenant);
            key
      in
      let msg = record_key_input t ~sn in
      Device.charge_hash_only t.dev ~bytes:(String.length msg + 64);
      Ok (String.sub (Hmac.sha256 ~key msg) 0 16)

(* O(1) in the tenant's record count: destroy one NVRAM entry, sign one
   statement. Idempotent — re-erasing hands back the original cert.
   Erasing a tenant that never wrote still plants the tombstone, which
   refuses any future writes under that identity. *)
let erase_tenant t ~tenant =
  if String.equal tenant "" then invalid_arg "Firmware.erase_tenant: empty tenant";
  match Hashtbl.find_opt t.tenants tenant with
  | Some (Tenant_gone cert) -> cert
  | Some (Tenant_key _) | None ->
      let erased_at = Device.now t.dev in
      let upto = t.current in
      let msg = Wire.erasure_msg ~store_id:t.store_id ~tenant ~erased_at ~upto in
      let signature = Device.sign_deletion t.dev msg in
      let cert = { tenant; erased_at; upto; signature } in
      Hashtbl.replace t.tenants tenant (Tenant_gone cert);
      Log.info (fun m -> m "tenant %S crypto-erased (upto=%s)" tenant (Serial.to_string upto));
      cert

let advance_base t =
  while Serial.Set.mem t.base t.deleted do
    t.deleted <- Serial.Set.remove t.base t.deleted;
    t.base <- Serial.next t.base
  done

let ( let* ) = Result.bind

let delete t ~vrd_bytes =
  let* vrd = decode_vrd vrd_bytes in
  let* () = authenticate_vrd t vrd in
  if is_deleted t vrd.sn then Error Already_deleted
  else begin
    let now = Device.now t.dev in
    (* The internal hold table is authoritative, not the presented attr:
       a replayed pre-hold VRD must not unlock deletion. *)
    let active_hold =
      match Hashtbl.find_opt t.holds vrd.sn with
      | Some hold when Int64.compare now hold.Attr.timeout <= 0 -> Some hold
      | Some _ | None -> None
    in
    match active_hold with
    | Some hold -> Error (On_litigation_hold hold.Attr.lit_id)
    | None ->
        if not (Attr.is_expired vrd.attr ~now) then Error (Not_expired (Attr.expiry vrd.attr))
        else begin
          let proof = Device.sign_deletion t.dev (Wire.deletion_msg ~store_id:t.store_id ~sn:vrd.sn) in
          Log.info (fun m -> m "deletion proof issued for %s" (Serial.to_string vrd.sn));
          t.deleted <- Serial.Set.add vrd.sn t.deleted;
          advance_base t;
          ignore (Vexp.remove t.vexp vrd.sn);
          Hashtbl.remove t.pending_audit vrd.sn;
          Hashtbl.remove t.holds vrd.sn;
          Ok proof
        end
  end

let collapse_window t ~lo ~hi =
  if Int64.compare (Serial.distance lo hi) 2L < 0 then Error Window_too_small
  else if Serial.(lo < t.base) then Error Already_deleted
  else begin
    match List.find_opt (fun sn -> not (Serial.Set.mem sn t.deleted)) (Serial.range lo hi) with
    | Some live -> Error (Not_fully_deleted live)
    | None ->
        let window_id = Device.random t.dev 16 in
        let sig_lo = Device.sign_strong t.dev (Wire.deletion_window_lo_msg ~store_id:t.store_id ~window_id ~sn:lo) in
        let sig_hi = Device.sign_strong t.dev (Wire.deletion_window_hi_msg ~store_id:t.store_id ~window_id ~sn:hi) in
        Log.info (fun m -> m "deletion window [%s, %s] certified" (Serial.to_string lo) (Serial.to_string hi));
        Ok { window_id; lo; hi; sig_lo; sig_hi }
  end

(* Phase 1 of strengthening: everything except the strong signatures —
   decode, authenticate, re-verify the deferred datasig, and run any
   pending data audit. Returns the record plus the two statements that
   still need strong witnesses. *)
let strengthen_validate t ~vrd_bytes ~data =
  let* vrd = decode_vrd vrd_bytes in
  let* () = authenticate_vrd t vrd in
  let data_msg = Wire.datasig_msg ~store_id:t.store_id ~sn:vrd.sn ~data_hash:vrd.data_hash in
  if not (verify_witness t data_msg vrd.datasig) then Error Bad_witness
  else begin
    let* () =
      if not (Hashtbl.mem t.pending_audit vrd.sn) then Ok ()
      else if tenant_is_erased t vrd.attr.Attr.tenant then begin
        (* Erased tenant: the plaintext is unrecoverable, so the pending
           host-hash audit can never be satisfied — and no longer needs
           to be. Discharge it and let the witnesses strengthen. *)
        Hashtbl.remove t.pending_audit vrd.sn;
        Ok ()
      end
      else begin
        match data with
        | Claimed_hash _ -> Error Data_required
        | Blocks blocks ->
            let total = List.fold_left (fun acc b -> acc + String.length b) 0 blocks in
            Device.charge_dma t.dev ~bytes:total;
            let actual = Chained_hash.value (chained_hash_charged t blocks) in
            if Worm_util.Ct.equal actual vrd.data_hash then begin
              Hashtbl.remove t.pending_audit vrd.sn;
              Ok ()
            end
            else begin
              Log.err (fun m -> m "AUDIT MISMATCH on %s: host lied about the data hash" (Serial.to_string vrd.sn));
              Error Audit_mismatch
            end
      end
    in
    let meta_msg = Wire.metasig_msg ~store_id:t.store_id ~sn:vrd.sn ~attr_bytes:(Attr.to_bytes vrd.attr) in
    Ok (vrd, meta_msg, data_msg)
  end

(* Batch strengthening: validate every entry first, then produce all the
   strong witnesses in one signing batch (2 per surviving record), then
   reassemble. Per-entry failures stay per-entry — one bad VRD does not
   poison the rest of the burst. *)
let strengthen_batch t entries =
  let validated = List.map (fun (vrd_bytes, data) -> strengthen_validate t ~vrd_bytes ~data) entries in
  let msgs =
    List.concat_map (function Ok (_, meta_msg, data_msg) -> [ meta_msg; data_msg ] | Error _ -> []) validated
  in
  let sigs = Device.sign_strong_batch t.dev msgs in
  let rec reassemble validated sigs =
    match (validated, sigs) with
    | [], _ -> []
    | Error e :: rest, _ -> Error e :: reassemble rest sigs
    | Ok (vrd, _, _) :: rest, s_meta :: s_data :: sigs' ->
        Ok { vrd with Vrd.metasig = Witness.Strong s_meta; datasig = Witness.Strong s_data }
        :: reassemble rest sigs'
    | Ok _ :: _, _ -> assert false
  in
  reassemble validated sigs

let strengthen t ~vrd_bytes ~data =
  match strengthen_batch t [ (vrd_bytes, data) ] with [ r ] -> r | _ -> assert false

let pending_audit t = Hashtbl.fold (fun sn () acc -> sn :: acc) t.pending_audit [] |> List.sort Serial.compare

(* The host may only ADD audit obligations, never discharge them; marking
   a live record pending forces a DMA re-hash on the next idle audit. *)
let reaudit t ~sn =
  if Serial.(sn <= t.current) && not (is_deleted t sn) then Hashtbl.replace t.pending_audit sn ()

(* Signing S_d(SN) is sound for any SN the SCPU positively knows is
   deleted: members of the deleted set, or anything the base bound has
   already absorbed. Live or unallocated serials are refused — this can
   repair a lost proof but never manufacture one. *)
let reissue_deletion_proof t ~sn =
  if Serial.(sn >= Serial.first) && (Serial.(sn < t.base) || Serial.Set.mem sn t.deleted) then begin
    let proof = Device.sign_deletion t.dev (Wire.deletion_msg ~store_id:t.store_id ~sn) in
    Log.info (fun m -> m "deletion proof re-issued for %s" (Serial.to_string sn));
    Ok proof
  end
  else Error Not_deleted

let audit t ~vrd_bytes ~blocks =
  let* vrd = decode_vrd vrd_bytes in
  let* () = authenticate_vrd t vrd in
  if not (Hashtbl.mem t.pending_audit vrd.sn) then Ok ()
  else if tenant_is_erased t vrd.attr.Attr.tenant then begin
    (* The key is gone: the plaintext this audit would re-hash no longer
       exists anywhere. The obligation is moot — discharge it. *)
    Hashtbl.remove t.pending_audit vrd.sn;
    Ok ()
  end
  else begin
    let total = List.fold_left (fun acc b -> acc + String.length b) 0 blocks in
    Device.charge_dma t.dev ~bytes:total;
    let actual = Chained_hash.value (chained_hash_charged t blocks) in
    if Worm_util.Ct.equal actual vrd.data_hash then begin
      Hashtbl.remove t.pending_audit vrd.sn;
      Ok ()
    end
    else begin
      Log.err (fun m -> m "AUDIT MISMATCH on %s: host lied about the data hash" (Serial.to_string vrd.sn));
      Error Audit_mismatch
    end
  end

let check_authority t (cert : Cert.t) =
  Cert.verify ~ca:t.ca ~now:(Device.now t.dev) cert && cert.Cert.role = Cert.Regulation_authority

let fresh_enough t timestamp =
  let now = Device.now t.dev in
  Int64.compare (Int64.abs (Int64.sub now timestamp)) credential_tolerance_ns <= 0

let resign_meta t (vrd : Vrd.t) attr =
  let meta_msg = Wire.metasig_msg ~store_id:t.store_id ~sn:vrd.sn ~attr_bytes:(Attr.to_bytes attr) in
  { vrd with Vrd.attr; metasig = Witness.Strong (Device.sign_strong t.dev meta_msg) }

let extend_retention t ~vrd_bytes ~new_retention_ns =
  let* vrd = decode_vrd vrd_bytes in
  let* () = authenticate_vrd t vrd in
  if is_deleted t vrd.sn then Error Already_deleted
  else begin
    let old_retention = vrd.attr.Attr.policy.Policy.retention_ns in
    if Int64.compare new_retention_ns old_retention < 0 then Error Retention_shortening
    else begin
      let policy = { vrd.attr.Attr.policy with Policy.retention_ns = new_retention_ns } in
      let attr = { vrd.attr with Attr.policy } in
      ignore (Vexp.insert t.vexp ~expiry:(Attr.expiry attr) vrd.sn);
      Log.info (fun m ->
          m "retention of %s extended %Ld -> %Ld" (Serial.to_string vrd.sn) old_retention new_retention_ns);
      Ok (resign_meta t vrd attr)
    end
  end


let lit_hold t ~vrd_bytes ~authority ~credential ~lit_id ~timestamp ~timeout =
  let* vrd = decode_vrd vrd_bytes in
  let* () = authenticate_vrd t vrd in
  if is_deleted t vrd.sn then Error Already_deleted
  else if not (check_authority t authority && fresh_enough t timestamp) then Error Bad_credential
  else begin
    let msg = Wire.hold_credential_msg ~store_id:t.store_id ~sn:vrd.sn ~timestamp ~lit_id in
    Device.charge_rsa_verify t.dev ~bits:(Nat.bit_length authority.Cert.key.Rsa.n);
    if not (Rsa.verify authority.Cert.key ~msg ~signature:credential) then Error Bad_credential
    else begin
      let hold =
        {
          Attr.lit_id;
          authority = authority.Cert.subject;
          credential;
          held_at = Device.now t.dev;
          timeout;
        }
      in
      let attr = Attr.with_hold vrd.attr hold in
      Log.info (fun m -> m "litigation hold %s placed on %s by %s" lit_id (Serial.to_string vrd.sn) authority.Cert.subject);
      Hashtbl.replace t.holds vrd.sn hold;
      (* Deletion may not fire before the hold lapses. *)
      let effective = Int64.add (max (Attr.expiry attr) timeout) 1L in
      ignore (Vexp.insert t.vexp ~expiry:effective vrd.sn);
      Ok (resign_meta t vrd attr)
    end
  end

let lit_release t ~vrd_bytes ~authority ~credential ~timestamp =
  let* vrd = decode_vrd vrd_bytes in
  let* () = authenticate_vrd t vrd in
  (* Release against the internal table, not the presented attr. *)
  match Hashtbl.find_opt t.holds vrd.sn with
  | None -> Error No_hold_present
  | Some hold ->
      if not (check_authority t authority && fresh_enough t timestamp) then Error Bad_credential
      else if not (String.equal authority.Cert.subject hold.Attr.authority) then Error Bad_credential
      else begin
        let msg =
          Wire.release_credential_msg ~store_id:t.store_id ~sn:vrd.sn ~timestamp ~lit_id:hold.Attr.lit_id
        in
        Device.charge_rsa_verify t.dev ~bits:(Nat.bit_length authority.Cert.key.Rsa.n);
        if not (Rsa.verify authority.Cert.key ~msg ~signature:credential) then Error Bad_credential
        else begin
          Log.info (fun m -> m "litigation hold %s released on %s" hold.Attr.lit_id (Serial.to_string vrd.sn));
          Hashtbl.remove t.holds vrd.sn;
          let attr = Attr.without_hold vrd.attr in
          ignore (Vexp.insert t.vexp ~expiry:(Attr.expiry attr) vrd.sn);
          Ok (resign_meta t vrd attr)
        end
      end

let next_rm_wakeup t = Option.map (fun (expiry, _) -> Int64.succ expiry) (Vexp.next_due t.vexp)
let rm_pop_due t = Vexp.pop_due t.vexp ~now:(Device.now t.dev)

let vexp_feed t entries =
  List.concat_map
    (fun (expiry, sn) ->
      if is_deleted t sn then []
      else begin
        match Vexp.insert t.vexp ~expiry sn with
        | Vexp.Inserted -> []
        | Vexp.Inserted_evicting (e, s) -> [ (e, s) ]
        | Vexp.Rejected_full -> [ (expiry, sn) ]
      end)
    entries

let vexp_length t = Vexp.length t.vexp

let import t ~source_signing_cert ~source_store_id ~vrd_bytes ~blocks =
  let* vrd = decode_vrd vrd_bytes in
  let now = Device.now t.dev in
  Device.charge_rsa_verify t.dev ~bits:(strong_bits t);
  if
    not
      (Cert.verify ~ca:t.ca ~now source_signing_cert
      && source_signing_cert.Cert.role = Cert.Scpu_signing)
  then Error Bad_credential
  else begin
    let source_key = source_signing_cert.Cert.key in
    let verify_strong_source msg = function
      | Witness.Strong signature ->
          Device.charge_rsa_verify t.dev ~bits:(Nat.bit_length source_key.Rsa.n);
          Rsa.verify source_key ~msg ~signature
      | Witness.Weak _ | Witness.Mac _ -> false
    in
    let attr_bytes = Attr.to_bytes vrd.attr in
    let meta_msg = Wire.metasig_msg ~store_id:source_store_id ~sn:vrd.sn ~attr_bytes in
    let data_msg = Wire.datasig_msg ~store_id:source_store_id ~sn:vrd.sn ~data_hash:vrd.data_hash in
    if
      not (verify_strong_source meta_msg vrd.metasig && verify_strong_source data_msg vrd.datasig)
    then Error Bad_witness
    else begin
      let total = List.fold_left (fun acc b -> acc + String.length b) 0 blocks in
      Device.charge_dma t.dev ~bytes:total;
      let actual = Chained_hash.value (chained_hash_charged t blocks) in
      if not (Worm_util.Ct.equal actual vrd.data_hash) then Error Audit_mismatch
      else begin
        let sn = Serial.next t.current in
        let meta_msg' = Wire.metasig_msg ~store_id:t.store_id ~sn ~attr_bytes in
        let data_msg' = Wire.datasig_msg ~store_id:t.store_id ~sn ~data_hash:vrd.data_hash in
        let metasig = Witness.Strong (Device.sign_strong t.dev meta_msg') in
        let datasig = Witness.Strong (Device.sign_strong t.dev data_msg') in
        t.current <- sn;
        let vexp_shed =
          match Vexp.insert t.vexp ~expiry:(Attr.expiry vrd.attr) sn with
          | Vexp.Inserted -> []
          | Vexp.Inserted_evicting (e, s) -> [ (e, s) ]
          | Vexp.Rejected_full -> [ (Attr.expiry vrd.attr, sn) ]
        in
        Ok { vrd = { vrd with Vrd.sn; metasig; datasig; rdl = [] }; vexp_shed }
      end
    end
  end

module Codec_ = Worm_util.Codec

let encode_current_bound enc (b : current_bound) =
  Serial.encode enc b.sn;
  Codec_.u64 enc b.timestamp;
  Codec_.bytes enc b.signature

let decode_current_bound dec =
  let sn = Serial.decode dec in
  let timestamp = Codec_.read_u64 dec in
  let signature = Codec_.read_bytes dec in
  { sn; timestamp; signature }

let encode_base_bound enc (b : base_bound) =
  Serial.encode enc b.sn;
  Codec_.u64 enc b.expires_at;
  Codec_.bytes enc b.signature

let decode_base_bound dec =
  let sn = Serial.decode dec in
  let expires_at = Codec_.read_u64 dec in
  let signature = Codec_.read_bytes dec in
  { sn; expires_at; signature }

let encode_deletion_window enc (w : deletion_window) =
  Codec_.bytes enc w.window_id;
  Serial.encode enc w.lo;
  Serial.encode enc w.hi;
  Codec_.bytes enc w.sig_lo;
  Codec_.bytes enc w.sig_hi

let decode_deletion_window dec =
  let window_id = Codec_.read_bytes dec in
  let lo = Serial.decode dec in
  let hi = Serial.decode dec in
  let sig_lo = Codec_.read_bytes dec in
  let sig_hi = Codec_.read_bytes dec in
  { window_id; lo; hi; sig_lo; sig_hi }

let encode_erasure_cert enc (c : erasure_cert) =
  Codec_.bytes enc c.tenant;
  Codec_.u64 enc c.erased_at;
  Serial.encode enc c.upto;
  Codec_.bytes enc c.signature

let decode_erasure_cert dec =
  let tenant = Codec_.read_bytes dec in
  let erased_at = Codec_.read_u64 dec in
  let upto = Serial.decode dec in
  let signature = Codec_.read_bytes dec in
  { tenant; erased_at; upto; signature }

let attest_migration t ~target_store_id ~content_hash =
  let msg =
    Wire.migration_manifest_msg ~source_store_id:t.store_id ~target_store_id ~base:t.base ~current:t.current
      ~content_hash
  in
  Device.sign_strong t.dev msg
