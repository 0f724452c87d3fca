(** The WORM store: host-side orchestration (§4).

    Owns the untrusted half of the architecture — the disk, the VRDT,
    the deletion-window list, the deferred-strengthening queue, and the
    VEXP overflow backlog — and drives the trusted {!Firmware} through
    its narrow interface. Reads are served entirely by this (host) side;
    the SCPU is touched only by updates, exactly as §4.1 prescribes.

    Nothing in this module is trusted: the test suite attacks these
    structures directly (via {!Vrdt.Raw} and {!Worm_simdisk.Disk.Raw})
    and shows that clients detect every manipulation. *)

type datasig_mode =
  | Scpu_hashes  (** SCPU reads and hashes record data itself *)
  | Host_hash  (** host supplies the hash; SCPU audits during idle *)

type config = {
  datasig_mode : datasig_mode;
  default_witness : Firmware.witness_mode;
  vexp_capacity : int;
  dedup : bool;
      (** content-addressed block sharing (§4.2 overlapping VRs): equal
          blocks are stored once and shredded when the last referencing
          record is deleted *)
  journal : bool;
      (** keep a hash-chained operation {!Journal}, anchored by the SCPU
          on every heartbeat *)
  encrypt_at_rest : bool;
      (** seal data blocks with the {!Vault} before they reach the disk
          (media-theft confidentiality); incompatible with [dedup] *)
}

val default_config : config
(** SCPU-side hashing, strong witnesses, a 4096-entry VEXP, no dedup,
    no journal, no encryption at rest.

    Fixed for every store: the current bound is re-signed once it is
    older than 60 s (§4.2.1 option ii: "every few minutes"), host work is
    charged at {!host_profile} rates, and one {!idle_tick} drains at most
    256 [Host_hash] audits, so a huge audit backlog cannot starve
    deferred strengthening. *)

val host_profile : Worm_scpu.Cost_model.profile
(** The host CPU the virtual ledger charges host-side hashing to
    ({!Worm_scpu.Cost_model.host_p4}). *)

type t

val create :
  ?config:config ->
  ?disk:Worm_simdisk.Disk.t ->
  device:Worm_scpu.Device.t ->
  ca:Worm_crypto.Rsa.public ->
  unit ->
  t
(** @raise Invalid_argument if the configuration enables both [dedup]
    and [encrypt_at_rest]. *)

val firmware : t -> Firmware.t
(** Exposed for clients needing certificates and for the simulator;
    {!Firmware.t} only offers the trusted entry points, so host code
    holding it gains no illegitimate power. *)

val disk : t -> Worm_simdisk.Disk.t
val vrdt : t -> Vrdt.t
val store_id : t -> string

(** {2 WORM operations} *)

val write :
  ?witness:Firmware.witness_mode ->
  ?attr:Attr.t ->
  ?tenant:string ->
  t ->
  policy:Policy.t ->
  blocks:string list ->
  Serial.t
(** Store a new record under [policy] (or fully explicit [attr]); data
    is written to disk, witnessed by the SCPU, and indexed in the VRDT.
    A non-empty [tenant] (ignored when [attr] is given) seals the blocks
    under the SCPU's per-tenant key hierarchy, making the record
    crypto-erasable via {!erase_tenant}. Returns the SCPU-issued serial
    number. @raise Invalid_argument if the record's tenant has already
    been erased — wire servers refuse such writes before reaching here. *)

val write_attr_batch : ?witness:Firmware.witness_mode -> t -> (Attr.t * string list) list -> Serial.t list
(** {!write_batch} with fully explicit attributes (tenants, labels). *)

val write_batch : ?witness:Firmware.witness_mode -> t -> (Policy.t * string list) list -> Serial.t list
(** Store a burst of records through {e one} firmware signing batch
    ({!Firmware.write_batch}): the SCPU pays its per-key setup once per
    flush instead of once per record. Semantically identical to calling
    {!write} per entry — same serials, same witnesses byte-for-byte under
    one weak certificate — this is the entry point the event server's
    cross-client coalescing drives. Returns serials positionally. *)

type part =
  | Fresh of string  (** a new data block *)
  | Borrow of Serial.t * int  (** block [index] of an existing record *)

val write_shared :
  ?witness:Firmware.witness_mode ->
  t ->
  policy:Policy.t ->
  parts:part list ->
  (Serial.t, string) result
(** Section 4.2 overlapping virtual records: build a new VR that references
    blocks of existing records instead of re-storing them ("records can
    be part of multiple different VRs, being referenced through
    different descriptors"). Borrowed blocks gain a reference and are
    shredded only when the last holding VR is deleted. Requires
    [config.dedup]; fails if a borrowed record is missing or an index is
    out of range. *)

val read : t -> Serial.t -> Proof.read_response
(** Honest host read: returns the record or the strongest available
    proof of rightful absence. Touches no SCPU resources except a
    heartbeat-stale bound refresh. A serial the SCPU counter has issued
    is never answered [Proof_unallocated], however stale the cached
    bound: with no record or proof for it the read is [Refused]. *)

val expire_due : t -> (Serial.t * (unit, Firmware.error) result) list
(** Run the Retention Monitor: delete every record whose retention has
    lapsed (shred data, install deletion proof). Returns per-record
    outcomes; holds surface as [Error (On_litigation_hold _)] and are
    rescheduled. *)

val next_rm_wakeup : t -> int64 option
(** When {!expire_due} next has work: the first instant strictly after
    the earliest scheduled expiry ({!Worm_core.Firmware.next_rm_wakeup}). *)

(** {2 Crypto-erasure (right to be forgotten)} *)

val erase_tenant : t -> tenant:string -> Firmware.erasure_cert
(** Destroy the tenant's key material inside the SCPU — O(1) in the
    tenant's record count (one NVRAM update, one deletion-key
    signature, one journal line). Every record the tenant wrote remains
    in the VRDT but its ciphertext is unrecoverable; reads return
    {!Proof.read_response.Erased} carrying the returned certificate.
    Idempotent. @raise Invalid_argument on the empty tenant id. *)

val erasure_cert_of : t -> string -> Firmware.erasure_cert option
val tenant_is_erased : t -> string -> bool
val erased_tenants : t -> Firmware.erasure_cert list

val tenant_serials : t -> string -> Serial.t list
(** Live serials the tenant wrote (host-side index, ascending). *)

val tenant_record_count : t -> string -> int

val live_tenants : t -> string list
(** Tenants with at least one indexed record, minus erased ones. *)

val lit_hold :
  t ->
  sn:Serial.t ->
  authority:Worm_crypto.Cert.t ->
  credential:string ->
  lit_id:string ->
  timestamp:int64 ->
  timeout:int64 ->
  (unit, Firmware.error) result

val lit_release :
  t -> sn:Serial.t -> authority:Worm_crypto.Cert.t -> credential:string -> timestamp:int64 -> (unit, Firmware.error) result

val import_record :
  t ->
  source_signing_cert:Worm_crypto.Cert.t ->
  source_store_id:string ->
  vrd_bytes:string ->
  blocks:string list ->
  (Serial.t, Firmware.error) result
(** Compliant-migration ingest (see {!Migration}): store a record from
    another store preserving its original attributes, after the local
    SCPU has verified the source SCPU's witnesses. *)

(** {2 Idle-period maintenance} *)

val heartbeat : t -> unit
(** Refresh the timestamped current bound (one strong signature) and
    anchor the journal, if any. *)

val refresh_current_bound : t -> unit
(** {!heartbeat} if the SCPU counter has moved past the cached current
    bound or the bound is older than 60 s; otherwise
    nothing. The one freshness rule for every reply that carries
    [SN_current] (an audit slice, a read above the counter, a cluster
    freshness proof); convergent — a second call at the same store state
    signs nothing. *)

val strengthen_pending : t -> ?deadline:int64 -> ?max:int -> unit -> int
(** Drain the deferred queue in signing batches: upgrade weak/MAC
    witnesses to strong signatures, running any pending data audits.
    [deadline] limits repayment to entries due by that time (an idle
    window can pay down only what is urgent); [max] bounds how many
    queue entries are dequeued. Returns the number strengthened. *)

type audit_outcome = {
  audited : int;  (** records examined this round (budget consumed) *)
  mismatches : (Serial.t * Firmware.error) list;
      (** classified failures, oldest first: [Audit_mismatch] (the host
          lied about a hash) or [Data_required] (blocks unreadable) *)
}

val run_audits : t -> ?max:int -> unit -> audit_outcome
(** Rehash [Host_hash]-mode records inside the SCPU (idle-time audit).
    A mismatch is a {e finding}, not a host crash: the offending SN is
    dequeued, reported in [mismatches], and also retained in the
    findings sink (see {!drain_audit_findings}) for the scrubber. *)

val drain_audit_findings : t -> (Serial.t * Firmware.error) list
(** Collect (and clear) failures surfaced by idle maintenance — audit
    mismatches, unreadable audit data, refused strengthenings — oldest
    first. The compliance scrubber feeds these into its report. *)

val compact_windows : t -> int
(** Collapse contiguous runs of >= 3 deletion proofs into signed
    deletion windows and expel the per-SN entries (§4.2.1). Also prunes
    entries below the base bound. Returns entries expelled. *)

val refeed_vexp : t -> int
(** Re-feed shed expiration entries into SCPU secure storage. Returns
    how many remain backlogged. *)

val idle_tick : t -> unit
(** One idle-period maintenance round: heartbeat, strengthening, audits,
    VEXP re-feed, window compaction. *)

(** {2 Host restart}

    The SCPU's state (keys, serial counters, deleted set, VEXP, hold
    table) lives in its battery-backed NVRAM; record data lives on the
    disk. The remaining host-side bookkeeping — VRDT, deletion windows,
    deferred/audit queues, VEXP overflow backlog — serializes to a blob
    so the host can reboot and resume. Restoring a {e stale} blob is
    just the rollback attack: harmless to guarantees (clients detect the
    inconsistency), annoying to availability. *)

val save_host_state : t -> string

val restore :
  ?config:config ->
  firmware:Firmware.t ->
  disk:Worm_simdisk.Disk.t ->
  host_state:string ->
  unit ->
  (t, string) result
(** Reattach to a still-running SCPU after a host restart. Dedup
    refcounts are rebuilt by walking the restored VRDT against the disk. *)

(** {2 Introspection} *)

val dedup_stats : t -> Dedup_store.stats option
(** [None] unless the store was created with [config.dedup = true]. *)

val journal : t -> Journal.t option
(** [None] unless the store was created with [config.journal = true]. *)

val vault : t -> Vault.t option

type metrics = {
  m_active : int;
  m_deleted_entries : int;  (** per-record deletion proofs still in the VRDT *)
  m_windows : int;
  m_vrdt_bytes : int;
  m_deferred : int;
  m_audit_backlog : int;
  m_vexp_backlog : int;
  m_sn_base : Serial.t;
  m_sn_current : Serial.t;
  m_disk_records : int;
  m_disk_bytes : int;
  m_journal_entries : int;  (** 0 when the journal is disabled *)
  m_dedup_ratio : float;  (** 1.0 when dedup is disabled *)
}

val metrics : t -> metrics
(** One-call operational snapshot (for consoles, logs, dashboards). *)

val pp_metrics : Format.formatter -> metrics -> unit

val deferred_backlog : t -> Deferred.entry list

val deferred_length : t -> int
(** Size of the deferred-strengthening debt ledger, O(1): the event
    server's admission control polls this (plus {!deferred_overdue})
    every flush, so it must not materialize the backlog. *)

val deferred_overdue : t -> now:int64 -> Deferred.entry list
val audit_backlog : t -> Serial.t list
val deletion_windows : t -> Firmware.deletion_window list
val vrdt_bytes : t -> int
val host_busy_ns : t -> int64
val reset_host_busy : t -> unit
val cached_current_bound : t -> Firmware.current_bound
(** The cached current bound, re-signed only once it is older than
    60 s (see {!refresh_current_bound} for the rule
    that also tracks the counter). *)

val cached_base_bound : t -> Firmware.base_bound

(** {2 Scrubber hooks} *)

val peek_current_bound : t -> Firmware.current_bound
(** The cached current bound {e without} the auto-refresh of
    {!cached_current_bound} — auditors must see staleness, not heal it. *)

val peek_base_bound : t -> Firmware.base_bound
(** The cached base bound without {!cached_base_bound}'s re-signing.
    {!Worm_proto.Server.handle} reads bounds only through the peeks so
    dispatch stays pure; {!Worm_proto.Server.refresh_for} heals staleness. *)

val request_audit : t -> Serial.t -> bool
(** Re-queue a live record for an SCPU data audit (e.g. after a repair
    restored its blocks from a mirror). [false] if the SN is not live.
    Sound to expose: this only {e adds} an audit obligation. *)

val charge_host : t -> int64 -> unit
(** Charge host CPU time to this store's busy ledger (the scrubber bills
    its verification work here so simulations see audit overhead). *)

(** Insider-attack interface for tests and the audit subsystem's fault
    injection: replace the (untrusted, host-side) deletion-window list.
    Mirrors {!Vrdt.Raw} / {!Worm_simdisk.Disk.Raw}. *)
module Raw : sig
  val set_windows : t -> Firmware.deletion_window list -> unit
end
