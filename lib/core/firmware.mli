(** WORM firmware — the certified logic running inside the SCPU.

    Everything in this module executes within the trusted enclosure
    ({!Worm_scpu.Device}): it alone issues serial numbers, witnesses
    records, produces deletion proofs and window bounds, and enforces
    retention and litigation holds against its tamper-protected clock.
    The host-side store ({!Worm}) is untrusted plumbing around these
    entry points.

    Design invariants (§4):

    - serial numbers are consecutive and monotonically increasing;
    - a deletion proof is only ever issued for a record whose own
      metasig verifies and whose retention has lapsed without an active
      litigation hold — the host cannot schedule its way around this,
      because VEXP is a hint and this check is the enforcement point;
    - window-bound signatures embed a firmware-chosen random window id,
      so bounds of different windows cannot be recombined;
    - weak witnesses are honored only while their short-lived key
      certificate is valid, which forces strengthening within the
      security lifetime of §4.3. *)

type t

type witness_mode =
  | Strong_now  (** 1024-bit signatures inline (sustained mode) *)
  | Weak_deferred  (** 512-bit short-lived signatures (burst mode) *)
  | Mac_deferred  (** HMAC tags (fastest burst mode) *)

type data_source =
  | Blocks of string list
      (** record data is DMA-transferred into the SCPU, which hashes it
          itself — the paper's default trust model *)
  | Claimed_hash of string * int
      (** (chained hash, total bytes) computed by the host; the SCPU
          signs it immediately and audits the data during idle — the
          paper's "slightly weaker security model" (§4.2.2) *)

type current_bound = { sn : Serial.t; timestamp : int64; signature : string }
type base_bound = { sn : Serial.t; expires_at : int64; signature : string }

type deletion_window = { window_id : string; lo : Serial.t; hi : Serial.t; sig_lo : string; sig_hi : string }

type erasure_cert = {
  tenant : string;
  erased_at : int64;
  upto : Serial.t;  (** SN_current when the key was destroyed: every record the tenant ever wrote sits at or below it *)
  signature : string;  (** [S_d(tenant, erased_at, upto)] — deletion-key signed; see {!Wire.erasure_msg} *)
}
(** Proof that a tenant's key hierarchy was destroyed inside the SCPU: a
    tenant-scoped deletion proof. Verifiable by anyone holding the
    store's deletion certificate. *)

type write_result = {
  vrd : Vrd.t;
  vexp_shed : (int64 * Serial.t) list;
      (** expiration entries shed from bounded secure storage; the host
          must re-feed them during an idle period *)
}

type error =
  | Not_expired of int64  (** retention runs until the given time *)
  | On_litigation_hold of string
  | Bad_witness  (** witness does not verify / weak cert lapsed *)
  | Bad_credential  (** litigation credential rejected *)
  | Not_fully_deleted of Serial.t  (** window contains a live SN *)
  | Window_too_small
  | Audit_mismatch  (** host-claimed data hash was a lie *)
  | Data_required  (** a pending audit needs the data blocks, not a hash *)
  | Wrong_store
  | Already_deleted
  | No_hold_present
  | Malformed_vrd
  | Retention_shortening  (** retention may be extended, never shortened *)
  | Not_deleted  (** deletion-proof re-issue refused: the SN is not known deleted *)
  | Tenant_erased of string  (** the tenant's keys were crypto-erased; no key material remains *)

val error_to_string : error -> string

val create : device:Worm_scpu.Device.t -> ca:Worm_crypto.Rsa.public -> vexp_capacity:int -> t
(** [ca] is the root the firmware uses to validate litigation-authority
    certificates. [vexp_capacity] bounds the secure expiration schedule
    in entries. *)

val device : t -> Worm_scpu.Device.t
val store_id : t -> string
val signing_cert : t -> Worm_crypto.Cert.t
val deletion_cert : t -> Worm_crypto.Cert.t
val sn_current : t -> Serial.t
(** Highest SN issued; {!Serial.zero} before the first write. *)

val sn_base : t -> Serial.t
(** Lowest still-active SN (= [sn_current + 1] when all are deleted). *)

val write : t -> attr:Attr.t -> rdl:Vrd.rd list -> data:data_source -> mode:witness_mode -> write_result
(** Allocate the next SN and witness a new record. The firmware stamps
    [attr.created_at] from its own clock — retention cannot be
    backdated. Equivalent to a one-entry {!write_batch}. *)

val write_batch : t -> mode:witness_mode -> (Attr.t * Vrd.rd list * data_source) list -> write_result list
(** Ingest a burst of records in {e one} signing batch: every record's
    serial is allocated and its data hashed first, then all [2 * n]
    witness statements go through a single
    {!Worm_scpu.Device.sign_strong_batch} /
    [sign_weak_batch] call — the per-key setup is paid once per flush
    instead of once per record, which is what makes the event server's
    cross-client batching cheaper than serving each connection alone.
    Results are positional. *)

val current_bound : t -> current_bound
(** Freshly signed, timestamped [S_s(SN_current)]. Called on the
    heartbeat (every few minutes) and on demand. *)

val base_bound : t -> base_bound
(** Signed [S_s(SN_base)] with an embedded expiry to prevent replay of
    stale bases. *)

val delete : t -> vrd_bytes:string -> (string, error) result
(** Verify the record's own witnesses and retention state, then issue
    the deletion proof [S_d(SN)]. The host is expected to shred the data
    and replace the VRDT entry with the proof. *)

val collapse_window : t -> lo:Serial.t -> hi:Serial.t -> (deletion_window, error) result
(** Certify a contiguous run of at least 3 expired SNs as a deletion
    window so their per-SN proofs can be expelled from the VRDT. *)

val strengthen : t -> vrd_bytes:string -> data:data_source -> (Vrd.t, error) result
(** Upgrade deferred witnesses to strong signatures (idle-time work).
    For a [Claimed_hash] write this is also where the data audit
    happens: pass [Blocks] to have the SCPU rehash and compare. *)

val strengthen_batch : t -> (string * data_source) list -> (Vrd.t, error) result list
(** Strengthen a burst of records in one signing batch: all entries are
    validated (and audited) first, then every surviving record's two
    strong witnesses are produced through {!Worm_scpu.Device.sign_strong_batch}.
    Results are positional, and a failing entry does not affect the
    others — the deferred-repayment loop drives this. *)

val extend_retention : t -> vrd_bytes:string -> new_retention_ns:int64 -> (Vrd.t, error) result
(** Variable retention (the flexibility §3 notes optical WORM lacks):
    lengthen a live record's retention period and re-witness the
    attributes. Shortening is refused — under WORM semantics history may
    be kept longer than mandated, never less. *)

val pending_audit : t -> Serial.t list
(** SNs written under [Claimed_hash] whose data the SCPU has not yet
    rehashed. *)

val audit : t -> vrd_bytes:string -> blocks:string list -> (unit, error) result
(** Idle-time data audit for a [Claimed_hash] write: DMA the data in,
    rehash, and compare against the hash the datasig committed to.
    [Audit_mismatch] means the host lied at write time. *)

val reaudit : t -> sn:Serial.t -> unit
(** Mark a live record pending so the next idle audit re-hashes its data
    (used after a repair restored blocks from a mirror). Safe to expose:
    the host can only {e add} audit obligations, never discharge one. *)

val reissue_deletion_proof : t -> sn:Serial.t -> (string, error) result
(** Re-sign [S_d(SN)] for a serial the SCPU positively knows is deleted
    (deleted-set member or below the base bound) — repairs a
    host-side-lost deletion proof. [Not_deleted] for live or unallocated
    serials: this entry point can restore evidence, never fabricate it. *)

val lit_hold :
  t ->
  vrd_bytes:string ->
  authority:Worm_crypto.Cert.t ->
  credential:string ->
  lit_id:string ->
  timestamp:int64 ->
  timeout:int64 ->
  (Vrd.t, error) result
(** Place a litigation hold: validates the authority's certificate
    (role, CA signature) and credential [S_reg(SN, time, lit_id)], then
    re-signs metasig over the held attributes. *)

val lit_release :
  t -> vrd_bytes:string -> authority:Worm_crypto.Cert.t -> credential:string -> timestamp:int64 -> (Vrd.t, error) result
(** Release a hold; only the authority that placed it qualifies. *)

(** {2 Per-tenant key hierarchy (crypto-erasure)}

    Master key (device-internal) → per-tenant keys (SCPU NVRAM) →
    per-record data keys (derived on demand). Tenant keys come from the
    device RNG at first use — {e not} from the master key — so erasing a
    tenant genuinely destroys the only copy: afterwards nobody, the SCPU
    included, can reconstruct any record key under it. *)

val record_key : t -> tenant:string -> sn:Serial.t -> (string, error) result
(** 128-bit data key for one record: [HMAC(tenant_key, store_id ‖ sn)]
    truncated. Provisions the tenant key on first use.
    [Error (Tenant_erased _)] once the tenant is erased. Raises
    [Invalid_argument] on the empty tenant id. *)

val erase_tenant : t -> tenant:string -> erasure_cert
(** Destroy the tenant's key — O(1) in the tenant's record count: one
    NVRAM update plus one deletion-key signature. Idempotent (re-erasing
    returns the original certificate). Erasing an unknown tenant plants
    the tombstone, refusing any future writes under that identity.
    Raises [Invalid_argument] on the empty tenant id. *)

val erasure_cert_of : t -> string -> erasure_cert option
val tenant_is_erased : t -> string -> bool
val erased_tenants : t -> erasure_cert list
(** All tombstones, sorted by tenant id. *)

(** {2 Retention Monitor} *)

val next_rm_wakeup : t -> int64 option
(** When the RM's alarm should next fire ([None]: nothing scheduled):
    the first instant strictly after the earliest expiry, when
    {!rm_pop_due} returns that entry and {!delete} accepts it. *)

val rm_pop_due : t -> (int64 * Serial.t) list
(** Entries now due for deletion, earliest first. The host must follow
    up with {!delete} for each (the RM drives, {!delete} enforces). *)

val vexp_feed : t -> (int64 * Serial.t) list -> (int64 * Serial.t) list
(** Idle-time re-feed of shed expiration entries; returns entries shed
    in turn. *)

val vexp_length : t -> int

(** {2 Migration} *)

val attest_migration : t -> target_store_id:string -> content_hash:string -> string
(** Sign a migration manifest binding this store's current live window
    and a content summary to the target store's identity. *)

val import :
  t ->
  source_signing_cert:Worm_crypto.Cert.t ->
  source_store_id:string ->
  vrd_bytes:string ->
  blocks:string list ->
  (write_result, error) result
(** Compliant-migration ingest: accept a record from another Strong WORM
    store {e with its original attributes} — retention clocks must
    survive media migration. The target SCPU verifies the source SCPU's
    certificate (same CA) and its strong witnesses over the original
    (store, SN, attr, hash) statements, rehashes the data itself, and
    only then re-witnesses the record locally under a fresh SN. Weak or
    MAC source witnesses are refused: migrate after strengthening. *)

(** {2 Codecs for the signed artifacts}

    Host-visible values (they already left the enclosure); used by the
    wire protocol and host-state persistence. *)

val encode_current_bound : Worm_util.Codec.encoder -> current_bound -> unit
val decode_current_bound : Worm_util.Codec.decoder -> current_bound
val encode_base_bound : Worm_util.Codec.encoder -> base_bound -> unit
val decode_base_bound : Worm_util.Codec.decoder -> base_bound
val encode_deletion_window : Worm_util.Codec.encoder -> deletion_window -> unit
val decode_deletion_window : Worm_util.Codec.decoder -> deletion_window
val encode_erasure_cert : Worm_util.Codec.encoder -> erasure_cert -> unit
val decode_erasure_cert : Worm_util.Codec.decoder -> erasure_cert

(** {2 Introspection (host-visible, unprivileged)} *)

val deleted_set_size : t -> int
(** NVRAM bookkeeping size: deletion records above the base not yet
    absorbed by a base advance. *)
