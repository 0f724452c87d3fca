(** Duplicate-copy replication and healing.

    SEC rule 17a-4(f) — one of the paper's motivating regulations —
    requires broker-dealers to keep a {e duplicate copy} of electronic
    records, stored separately. This layer mirrors every write to a
    second Strong WORM store behind its own SCPU, and uses the mirror to
    detect and heal damage on the primary:

    - {!divergence_audit} reads every live record from both stores with
      full client verification and reports disagreements;
    - {!heal_data} rewrites a primary record's damaged data blocks from
      the mirror, after checking the mirror's bytes against the hash the
      primary's own datasig committed to — the mirror is {e not} trusted
      either, the signatures arbitrate;
    - {!heal_missing} re-ingests a record the primary lost entirely,
      through the compliant-migration import path (fresh local serial,
      original attributes).

    Replication is a host-availability mechanism: WORM guarantees never
    depend on it, they are what make it safe. *)

type t

val create : primary:Worm.t -> mirror:Worm.t -> t
(** Both stores must trust the same CA. *)

val mirror : t -> Worm.t

val write :
  ?witness:Firmware.witness_mode ->
  ?tenant:string ->
  t ->
  policy:Policy.t ->
  blocks:string list ->
  Serial.t * Serial.t
(** Write to both stores; returns (primary SN, mirror SN). A non-empty
    [tenant] seals each copy under the respective store's own per-tenant
    key hierarchy. *)

val mirror_sn : t -> Serial.t -> Serial.t option
(** The mirror serial paired with a primary serial at {!write} time. *)

val expire_due : t -> int * int
(** Run both retention monitors; (primary deletions, mirror deletions). *)

val idle_tick : t -> unit

val resync_mirror : t -> (int, string) result
(** Re-ingest every live primary record that has no mirror pairing,
    through the compliant-migration import path — the bulk form of
    {!heal_missing} in the other direction, used by the cluster's
    failover engine to rebuild a {e fresh} mirror after the old one was
    promoted to primary. Deferred witnesses are strengthened first
    (import refuses weak/MAC evidence), and the primary's tenant
    erasures are re-issued on the mirror before the walk — records of
    erased tenants are skipped (their plaintext is unrecoverable by
    design; the mirror's own tombstone answers for them). Returns how
    many records were replicated; stops at the first record the mirror
    SCPU refuses. *)

type divergence = {
  primary_sn : Serial.t;
  mirror_sn_ : Serial.t;
  primary_verdict : string;
  mirror_verdict : string;
}

val divergence_audit : t -> primary_client:Client.t -> mirror_client:Client.t -> divergence list
(** Verified read of every replicated pair; empty when the copies agree
    (same verdict class and, for valid data, identical bytes). *)

val heal_data : t -> sn:Serial.t -> (unit, string) result
(** Restore the primary record's data blocks from the mirror. Fails if
    the pair is unknown, the mirror copy does not verify, or the
    mirror's bytes do not match the primary datasig's hash. *)

val heal_witness : t -> sn:Serial.t -> (unit, string) result
(** Restore a primary record's VRDT entry (attributes, hashes, the two
    witnesses) from the off-store VRD backup captured at {!write} time
    and refreshed during {!idle_tick}. The backup must verify under the
    primary SCPU's certificates — backups are untrusted bytes; the
    signatures inside arbitrate. The live RDL is preserved (physical
    placement is unsigned host plumbing). Repairs a flipped
    datasig/metasig byte; for damaged {e data} use {!heal_data}. *)

val heal_missing : t -> sn:Serial.t -> (Serial.t, string) result
(** Re-ingest a record the primary lost (VRDT entry gone) from the
    mirror via the import path; returns the record's new primary SN and
    updates the pairing. *)
