open Worm_crypto
module Clock = Worm_simclock.Clock
module Codec = Worm_util.Codec
module Lru = Worm_util.Lru

type freshness = Timestamped of int64 | Direct_scpu of (unit -> Firmware.current_bound)

(* Memo of verified epoch-stable signatures (current bound, base bound,
   deletion windows, per-SN deletion proofs, short-term key
   certificates). Keyed by the exact
   (key fingerprint, msg, signature) triple, so a cached verdict can
   never be wrong — a refreshed bound or a re-signed proof has a
   different message or signature and simply misses. Mutex-guarded: one
   client may verify from many pool domains at once. *)
type vcache = {
  lru : (string, bool) Lru.t;
  vmutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
}

type t = {
  signing : Rsa.public;
  deletion : Rsa.public;
  signing_fp : string;
  deletion_fp : string;
  store_id : string;
  freshness : freshness;
  clock : Clock.t;
  cache : vcache option;
}

let default_max_bound_age = Clock.ns_of_min 5.
let default_verify_cache = 256

let connect ~ca ~clock ?(max_bound_age_ns = default_max_bound_age) ?freshness
    ?(verify_cache = default_verify_cache) ~signing_cert ~deletion_cert ~store_id () =
  let now = Clock.now clock in
  let freshness = Option.value ~default:(Timestamped max_bound_age_ns) freshness in
  if verify_cache < 0 then Error "negative verify-cache capacity"
  else if not (Cert.verify ~ca ~now signing_cert) then Error "signing certificate rejected"
  else if signing_cert.Cert.role <> Cert.Scpu_signing then Error "signing certificate has the wrong role"
  else if not (Cert.verify ~ca ~now deletion_cert) then Error "deletion certificate rejected"
  else if deletion_cert.Cert.role <> Cert.Scpu_deletion then Error "deletion certificate has the wrong role"
  else
    Ok
      {
        signing = signing_cert.Cert.key;
        deletion = deletion_cert.Cert.key;
        signing_fp = Rsa.fingerprint signing_cert.Cert.key;
        deletion_fp = Rsa.fingerprint deletion_cert.Cert.key;
        store_id;
        freshness;
        clock;
        cache =
          (if verify_cache = 0 then None
           else Some { lru = Lru.create verify_cache; vmutex = Mutex.create (); hits = 0; misses = 0 });
      }

let for_store ~ca ~clock ?max_bound_age_ns ?freshness ?verify_cache store =
  let fw = Worm.firmware store in
  match
    connect ~ca ~clock ?max_bound_age_ns ?freshness ?verify_cache
      ~signing_cert:(Firmware.signing_cert fw)
      ~deletion_cert:(Firmware.deletion_cert fw) ~store_id:(Worm.store_id store) ()
  with
  | Ok t -> t
  | Error msg -> failwith ("Client.for_store: " ^ msg)

(* ---------- verified-signature memo ---------- *)

type cache_stats = { cache_hits : int; cache_misses : int; cache_entries : int }

let verify_cache_stats t =
  match t.cache with
  | None -> None
  | Some c ->
      Mutex.lock c.vmutex;
      let s = { cache_hits = c.hits; cache_misses = c.misses; cache_entries = Lru.length c.lru } in
      Mutex.unlock c.vmutex;
      Some s

(* Epoch boundaries the key-exact memo cannot see arrive out of band:
   a litigation-hold release re-signs proofs, a migration retires the
   source key pair. Holders of the out-of-band knowledge (the scrubber's
   repair engine, migration drivers) drop the memo so the next read
   re-verifies against live state instead of trusting entries whose
   epoch has ended. *)
let invalidate_verify_cache t =
  match t.cache with
  | None -> ()
  | Some c ->
      Mutex.lock c.vmutex;
      Lru.clear c.lru;
      Mutex.unlock c.vmutex

(* Canonical memo key: Codec framing keeps (fp, msg, signature)
   unambiguous regardless of component lengths. *)
let memo_key ~fp ~msg ~signature =
  Codec.encode
    (fun enc () ->
      Codec.bytes enc fp;
      Codec.bytes enc msg;
      Codec.bytes enc signature)
    ()

(* Verify through the memo. Only used for signatures that are stable
   for a whole refresh epoch or a short-term key's lifetime — never for
   per-record witnesses, whose working set would thrash the small LRU
   for no gain. *)
let stable_verify t ~fp key ~msg ~signature =
  match t.cache with
  | None -> Rsa.verify key ~msg ~signature
  | Some c -> begin
      let k = memo_key ~fp ~msg ~signature in
      Mutex.lock c.vmutex;
      match Lru.find c.lru k with
      | Some v ->
          c.hits <- c.hits + 1;
          Mutex.unlock c.vmutex;
          v
      | None ->
          c.misses <- c.misses + 1;
          Mutex.unlock c.vmutex;
          let v = Rsa.verify key ~msg ~signature in
          Mutex.lock c.vmutex;
          Lru.put c.lru k v;
          Mutex.unlock c.vmutex;
          v
    end

let verify_signing_stable t ~msg ~signature = stable_verify t ~fp:t.signing_fp t.signing ~msg ~signature
let verify_deletion_stable t ~msg ~signature = stable_verify t ~fp:t.deletion_fp t.deletion ~msg ~signature

type violation =
  | Wrong_serial
  | Meta_witness_invalid
  | Data_witness_invalid
  | Data_mismatch
  | Current_bound_invalid
  | Stale_current_bound
  | Base_bound_invalid
  | Base_bound_expired
  | Base_does_not_cover
  | Deletion_proof_invalid
  | Window_bound_invalid
  | Window_does_not_cover
  | Erasure_cert_invalid
  | Absence_unproven

let violation_to_string = function
  | Wrong_serial -> "record carries a different serial number"
  | Meta_witness_invalid -> "metasig does not verify"
  | Data_witness_invalid -> "datasig does not verify"
  | Data_mismatch -> "data does not hash to the signed value"
  | Current_bound_invalid -> "current-bound signature does not verify"
  | Stale_current_bound -> "current bound is older than the freshness limit"
  | Base_bound_invalid -> "base-bound signature does not verify"
  | Base_bound_expired -> "base bound has expired (possible replay)"
  | Base_does_not_cover -> "serial is not below the signed base"
  | Deletion_proof_invalid -> "deletion proof does not verify"
  | Window_bound_invalid -> "deletion-window bounds do not verify under one window id"
  | Window_does_not_cover -> "serial lies outside the deletion window"
  | Erasure_cert_invalid -> "erasure certificate does not verify or does not cover this record"
  | Absence_unproven -> "host failed to prove the record's absence"

type verdict =
  | Valid_data of { vrd : Vrd.t; blocks : string list }
  | Committed_unverifiable
  | Properly_deleted
  | Properly_erased
  | Never_written
  | Violation of violation list

let verdict_name = function
  | Valid_data _ -> "valid-data"
  | Committed_unverifiable -> "committed-unverifiable"
  | Properly_deleted -> "properly-deleted"
  | Properly_erased -> "properly-erased"
  | Never_written -> "never-written"
  | Violation vs -> "VIOLATION: " ^ String.concat "; " (List.map violation_to_string vs)

(* A witness verdict: [Ok true] = verifies, [Ok false] = MAC (cannot be
   checked by a client), [Error ()] = forged. *)
let check_witness t msg = function
  | Witness.Strong signature -> if Rsa.verify t.signing ~msg ~signature then Ok true else Error ()
  | Witness.Weak { cert; signature } ->
      (* Short-lived key: chained under the signing key, honored only
         within its lifetime (after which it must have been
         strengthened, so encountering it live is itself suspect). The
         window and role are checked on every call; the certificate's
         signature, the same for every record the key witnessed, goes
         through the memo. *)
      if
        Cert.valid_at ~now:(Clock.now t.clock) cert
        && cert.Cert.role = Cert.Scpu_short_term
        && verify_signing_stable t ~msg:(Cert.body_bytes cert) ~signature:cert.Cert.signature
        && Rsa.verify cert.Cert.key ~msg ~signature
      then Ok true
      else Error ()
  | Witness.Mac _ -> Ok false

let verify_current_bound_sig t (b : Firmware.current_bound) =
  let msg = Wire.current_bound_msg ~store_id:t.store_id ~sn:b.Firmware.sn ~timestamp:b.Firmware.timestamp in
  verify_signing_stable t ~msg ~signature:b.Firmware.signature

(* Validate an absence claim's bound under the configured freshness
   policy; returns the bound whose [sn] the caller should trust. *)
let check_current_bound t (bound : Firmware.current_bound) =
  match t.freshness with
  | Timestamped max_age ->
      if not (verify_current_bound_sig t bound) then Error Current_bound_invalid
      else if Int64.compare (Int64.sub (Clock.now t.clock) bound.Firmware.timestamp) max_age > 0 then
        Error Stale_current_bound
      else Ok bound
  | Direct_scpu fetch ->
      (* option (i): ignore the served bound, ask the SCPU ourselves *)
      let fresh = fetch () in
      if verify_current_bound_sig t fresh then Ok fresh else Error Current_bound_invalid

(* One RSA verify under the signing key is worth handing to a second
   domain; a short-term key's verify is not. *)
let is_strong = function
  | Witness.Strong _ -> true
  | Witness.Weak _ | Witness.Mac _ -> false

(* A record with a [Strong] witness checks its metasig beside its
   datasig plus the chained hash, through [Pool.both]; weak- and
   MAC-only records check both inline. Violations are collected once
   both sides are done. [both] runs its first side on the calling
   domain, so that side is the one that may be weak: the memo and the
   per-domain encoder pool see the same calls from the same domain as
   inline, and another domain only runs a [Strong] check (with two, the
   lighter metasig check, which absorbs the wake-up). *)
let verify_found t ~sn (vrd : Vrd.t) blocks =
  let meta_msg = Wire.metasig_msg ~store_id:t.store_id ~sn:vrd.Vrd.sn ~attr_bytes:(Attr.to_bytes vrd.Vrd.attr) in
  let data_msg = Wire.datasig_msg ~store_id:t.store_id ~sn:vrd.Vrd.sn ~data_hash:vrd.Vrd.data_hash in
  let check_meta () = check_witness t meta_msg vrd.Vrd.metasig in
  let check_data () =
    (check_witness t data_msg vrd.Vrd.datasig, Chained_hash.value (Chained_hash.of_blocks blocks))
  in
  let meta_res, (data_res, actual_hash) =
    if is_strong vrd.Vrd.metasig then
      let data, meta = Worm_util.Pool.both check_data check_meta in
      (meta, data)
    else if is_strong vrd.Vrd.datasig then Worm_util.Pool.both check_meta check_data
    else (check_meta (), check_data ())
  in
  let violations = ref [] in
  let flag v = violations := v :: !violations in
  if not (Serial.equal vrd.Vrd.sn sn) then flag Wrong_serial;
  let meta_ok =
    match meta_res with
    | Ok v -> v
    | Error () ->
        flag Meta_witness_invalid;
        true
  in
  let data_ok =
    match data_res with
    | Ok v -> v
    | Error () ->
        flag Data_witness_invalid;
        true
  in
  if not (Worm_util.Ct.equal actual_hash vrd.Vrd.data_hash) then flag Data_mismatch;
  match !violations with
  | [] -> if meta_ok && data_ok then Valid_data { vrd; blocks } else Committed_unverifiable
  | vs -> Violation (List.rev vs)

let verify_read t ~sn (response : Proof.read_response) =
  match response with
  | Proof.Found { vrd; blocks } -> verify_found t ~sn vrd blocks
  | Proof.Proof_deleted { sn = psn; proof } ->
      let msg = Wire.deletion_msg ~store_id:t.store_id ~sn in
      if not (Serial.equal psn sn) then Violation [ Deletion_proof_invalid ]
      else if verify_deletion_stable t ~msg ~signature:proof then Properly_deleted
      else Violation [ Deletion_proof_invalid ]
  | Proof.Proof_in_window w ->
      let lo_msg = Wire.deletion_window_lo_msg ~store_id:t.store_id ~window_id:w.Firmware.window_id ~sn:w.Firmware.lo in
      let hi_msg = Wire.deletion_window_hi_msg ~store_id:t.store_id ~window_id:w.Firmware.window_id ~sn:w.Firmware.hi in
      if
        not
          (verify_signing_stable t ~msg:lo_msg ~signature:w.Firmware.sig_lo
          && verify_signing_stable t ~msg:hi_msg ~signature:w.Firmware.sig_hi)
      then Violation [ Window_bound_invalid ]
      else if not (Serial.(w.Firmware.lo <= sn) && Serial.(sn <= w.Firmware.hi)) then
        Violation [ Window_does_not_cover ]
      else Properly_deleted
  | Proof.Proof_below_base b ->
      let msg = Wire.base_bound_msg ~store_id:t.store_id ~sn:b.Firmware.sn ~expires_at:b.Firmware.expires_at in
      if not (verify_signing_stable t ~msg ~signature:b.Firmware.signature) then Violation [ Base_bound_invalid ]
      else if Int64.compare (Clock.now t.clock) b.Firmware.expires_at > 0 then Violation [ Base_bound_expired ]
      else if not Serial.(sn < b.Firmware.sn) then Violation [ Base_does_not_cover ]
      else Properly_deleted
  | Proof.Proof_unallocated current -> begin
      match check_current_bound t current with
      | Error v -> Violation [ v ]
      | Ok trusted ->
          if Serial.(sn > trusted.Firmware.sn) then Never_written else Violation [ Absence_unproven ]
    end
  | Proof.Erased { vrd; cert } ->
      (* The VRD's metasig binds sn to the tenant; the cert proves that
         tenant's keys are gone. Together: this exact record existed and
         is now unrecoverable — a compliant outcome. The cert signature
         is epoch-stable per tenant, so it goes through the memo. *)
      let tenant = vrd.Vrd.attr.Attr.tenant in
      let meta_msg =
        Wire.metasig_msg ~store_id:t.store_id ~sn:vrd.Vrd.sn ~attr_bytes:(Attr.to_bytes vrd.Vrd.attr)
      in
      let cert_msg =
        Wire.erasure_msg ~store_id:t.store_id ~tenant:cert.Firmware.tenant
          ~erased_at:cert.Firmware.erased_at ~upto:cert.Firmware.upto
      in
      let violations = ref [] in
      let flag v = violations := v :: !violations in
      if not (Serial.equal vrd.Vrd.sn sn) then flag Wrong_serial;
      let meta_ok =
        match check_witness t meta_msg vrd.Vrd.metasig with
        | Ok v -> v
        | Error () ->
            flag Meta_witness_invalid;
            true
      in
      if String.equal tenant "" || not (String.equal tenant cert.Firmware.tenant) then
        flag Erasure_cert_invalid
      else if not (verify_deletion_stable t ~msg:cert_msg ~signature:cert.Firmware.signature) then
        flag Erasure_cert_invalid
      else if Serial.(sn > cert.Firmware.upto) then
        (* The cert pinned SN_current at destruction time; a record above
           it cannot belong to the erased tenant's history. *)
        flag Erasure_cert_invalid;
      begin
        match List.rev !violations with
        | [] -> if meta_ok then Properly_erased else Committed_unverifiable
        | vs -> Violation vs
      end
  | Proof.Refused _ -> Violation [ Absence_unproven ]

(* Standalone CA-rooted check of an erasure certificate, for callers
   that hold the cert without a record to read it through — the tenant
   itself validating its own "right to be forgotten" receipt, or an
   aggregating verifier checking every shard's attestation. *)
let verify_erasure_cert t (cert : Firmware.erasure_cert) =
  if String.equal cert.Firmware.tenant "" then Error "erasure certificate names an empty tenant"
  else begin
    let msg =
      Wire.erasure_msg ~store_id:t.store_id ~tenant:cert.Firmware.tenant
        ~erased_at:cert.Firmware.erased_at ~upto:cert.Firmware.upto
    in
    if verify_deletion_stable t ~msg ~signature:cert.Firmware.signature then Ok ()
    else Error "erasure certificate signature does not verify under the deletion certificate"
  end

(* A [Direct_scpu] absence check calls back into the firmware, which is
   not domain-safe — those responses stay on the submitting domain. *)
let must_verify_inline t = function
  | Proof.Proof_unallocated _ -> begin
      match t.freshness with
      | Direct_scpu _ -> true
      | Timestamped _ -> false
    end
  | Proof.Found _ | Proof.Proof_deleted _ | Proof.Proof_in_window _ | Proof.Proof_below_base _
  | Proof.Erased _ | Proof.Refused _ ->
      false

(* Records verify through [Pool.map]; a [Direct_scpu] absence check
   that lands on another domain is left for the submitting domain,
   which runs it once the batch is done. *)
let verify_read_many t items =
  let caller = Domain.self () in
  List.map2
    (fun (sn, response) verdict ->
      match verdict with Some v -> (sn, v) | None -> (sn, verify_read t ~sn response))
    items
    (Worm_util.Pool.map
       (fun (sn, response) ->
         if must_verify_inline t response && Domain.self () <> caller then None
         else Some (verify_read t ~sn response))
       items)

let verify_migration t ~target_store_id ~base ~current ~content_hash ~manifest_sig =
  let msg =
    Wire.migration_manifest_msg ~source_store_id:t.store_id ~target_store_id ~base ~current ~content_hash
  in
  let ok = Rsa.verify t.signing ~msg ~signature:manifest_sig in
  (* An accepted manifest means this store's records are moving under a
     new SCPU key pair: every epoch-stable signature this client has
     memoized is about to be superseded. Drop them all. *)
  if ok then invalidate_verify_cache t;
  ok
