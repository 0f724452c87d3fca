(** Client-side verification.

    Clients trust only the certificate authority's public key, their own
    (roughly synchronized) clock, and nothing about the storage server.
    From the CA they validate the SCPU's signing and deletion
    certificates (served by the untrusted host), and then check every
    read response end-to-end: data against datasig, attributes against
    metasig, absences against deletion proofs, window bounds, or the
    base/current bounds, with freshness limits on everything replayable.

    Theorems 1 and 2 of the paper are, operationally, the statement that
    {!verify_read} returns [Violation _] whenever the host lies. *)

type t

type freshness =
  | Timestamped of int64
      (** §4.2.1 option (ii): accept served current bounds whose
          timestamp is at most this old. Cheap (no SCPU contact on
          reads) but leaves a hiding window of the same width for
          records written within it. *)
  | Direct_scpu of (unit -> Firmware.current_bound)
      (** §4.2.1 option (i): "upon each access, the client contacts the
          SCPU directly to retrieve the current [S_s(SN_current)]".
          Absence claims are checked against a bound fetched through
          this (authenticated) channel, closing the staleness window at
          the cost of SCPU involvement in absence-reads. *)

val connect :
  ca:Worm_crypto.Rsa.public ->
  clock:Worm_simclock.Clock.t ->
  ?max_bound_age_ns:int64 ->
  ?freshness:freshness ->
  ?verify_cache:int ->
  signing_cert:Worm_crypto.Cert.t ->
  deletion_cert:Worm_crypto.Cert.t ->
  store_id:string ->
  unit ->
  (t, string) result
(** Validate the served certificates against the CA. The default
    freshness policy is [Timestamped] with [max_bound_age_ns]
    (5 minutes unless given) — "the client will not accept values older
    than a few minutes" (§4.2.1). Passing [freshness] overrides both.

    [verify_cache] sizes the verified-signature memo (default 256
    entries; 0 disables it). Epoch-stable signatures — the current
    bound, the base bound, deletion-window bounds, and per-SN deletion
    proofs — are verified once and remembered under their exact
    (key fingerprint, message, signature) triple, so a refresh epoch
    pays each public-key verification once rather than once per read.
    Per-record witnesses are never cached. *)

val for_store :
  ca:Worm_crypto.Rsa.public ->
  clock:Worm_simclock.Clock.t ->
  ?max_bound_age_ns:int64 ->
  ?freshness:freshness ->
  ?verify_cache:int ->
  Worm.t ->
  t
(** Convenience: connect to a local {!Worm.t}, fetching its certificates
    the way a remote client would. @raise Failure if certificates fail
    to validate. *)

type violation =
  | Wrong_serial  (** host returned a record with a different SN *)
  | Meta_witness_invalid
  | Data_witness_invalid
  | Data_mismatch  (** data blocks do not hash to the signed value *)
  | Current_bound_invalid
  | Stale_current_bound
  | Base_bound_invalid
  | Base_bound_expired
  | Base_does_not_cover  (** sn is not actually below the signed base *)
  | Deletion_proof_invalid
  | Window_bound_invalid  (** signatures don't match under one window id *)
  | Window_does_not_cover
  | Erasure_cert_invalid
      (** erasure cert fails to verify, names a different (or empty)
          tenant than the VRD's metasig binds, or does not cover the
          serial *)
  | Absence_unproven  (** the host refused to prove anything *)

val violation_to_string : violation -> string

type verdict =
  | Valid_data of { vrd : Vrd.t; blocks : string list }
  | Committed_unverifiable
      (** witnessed only by an SCPU-internal MAC so far (§4.3 HMAC mode);
          retry after the next idle-period strengthening *)
  | Properly_deleted
  | Properly_erased
      (** the record's tenant was crypto-erased: the metasig binds the
          serial to the tenant, and the SCPU-signed erasure certificate
          proves that tenant's keys are destroyed — provably
          unrecoverable, compliant *)
  | Never_written
  | Violation of violation list

val verdict_name : verdict -> string

val verify_read : t -> sn:Serial.t -> Proof.read_response -> verdict
(** Full verification of a read response for serial number [sn], on the
    calling domain. *)

val verify_read_many :
  ?pool:Worm_util.Pool.t -> t -> (Serial.t * Proof.read_response) list -> (Serial.t * verdict) list
(** Verify a batch of read responses, in order. The per-response
    verifications fan out across [pool] (default
    {!Worm_util.Pool.shared}: the host-side-only read path of §4.2.2
    scaled over cores); the result is element-for-element identical to
    the [List.map]-of-{!verify_read} a 1-domain pool runs.
    [Direct_scpu] absence checks call back into the firmware and
    therefore always run on the submitting domain. *)

val verify_erasure_cert : t -> Firmware.erasure_cert -> (unit, string) result
(** CA-rooted check of an SCPU-signed erasure certificate on its own,
    without a record to read it through: verifies the deletion-key
    signature over the canonical erasure message for this store. This is
    the tenant's "right to be forgotten" receipt check — [Ok ()] means
    the store's SCPU really did destroy that tenant's keys no later than
    serial [upto]. *)

type cache_stats = { cache_hits : int; cache_misses : int; cache_entries : int }

val verify_cache_stats : t -> cache_stats option
(** [None] when the client was connected with [~verify_cache:0]. *)

val invalidate_verify_cache : t -> unit
(** Drop every memoized verification. The memo's exact-triple keying
    already makes refreshed bounds miss naturally; explicit
    invalidation is for out-of-band epoch boundaries — a bound refresh
    the caller forced, a litigation-hold release that re-signed proofs,
    a migration retiring the store's key pair (see the scrubber's
    repair engine, which calls this after every repair action). *)

val verify_migration :
  t ->
  target_store_id:string ->
  base:Serial.t ->
  current:Serial.t ->
  content_hash:string ->
  manifest_sig:string ->
  bool
(** Check a source-SCPU migration attestation (see {!Migration}). *)
