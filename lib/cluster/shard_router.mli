(** The shard router: one WORM store interface over N independent
    SCPU/VRDT shards.

    Each shard is a complete Strong WORM instance — its own
    {!Worm_scpu.Device.t} (keys, serial counters, tamper envelope), its
    own {!Worm_simdisk.Disk.t}, its own {!Worm_core.Worm.t} host state,
    and optionally a mirror pair behind a {!Worm_core.Replicator.t}. The
    router owns none of their trust: it translates the cluster's global
    serial space to per-shard locals through the fixed {!Partition}
    interleave, forwards operations, and aggregates the shards'
    CA-rooted bounds into a {!Cluster_proof.t}. A client verifies
    everything end-to-end exactly as against a single store; the router
    lying about routing is caught by the client-computed partition, and
    the router lying about bounds is caught by the coherence equation.

    Failure handling (the part a single store cannot offer): when a
    shard's SCPU zeroizes — detected by {!probe}, or in-line when an
    operation trips {!Worm_scpu.Device.Tamper_detected} — the shard is
    {e fenced}: writes to its stripe are refused, reads are served from
    its lockstep mirror. {!recover} then promotes the mirror to primary
    (local serials are allocated in lockstep, so the partition
    translation survives promotion unchanged) and rebuilds a fresh
    mirror through {!Worm_core.Replicator.resync_mirror}. The rebuilt
    mirror holds the live records under {e fresh} serials, so it is a
    healing source, not a promotion candidate: a second zeroization of
    the same shard is outside the verified contract and reported as
    such (see DESIGN.md §14). *)

open Worm_core
module Device = Worm_scpu.Device
module Disk = Worm_simdisk.Disk

type config = {
  shards : int;
  mirrored : bool;  (** pair every shard with a lockstep mirror *)
  store_config : Worm.config;
  device_config : Device.config;
  disk_latency : Disk.latency_model;
  router_overhead_ns : int64;
      (** host CPU charged to the owning shard per routed request — the
          router's translate-and-forward work is not free *)
}

val default_config : config
(** 4 mirrored shards, default store/device configs, enterprise disks,
    200 ns routing overhead. *)

type t

val create : ?config:config -> seed:string -> ca:Worm_crypto.Rsa.secret -> clock:Worm_simclock.Clock.t -> unit -> t
(** Provision every shard (and mirror) deterministically from [seed].
    The CA secret is used only at provisioning time to certify the
    shard SCPUs' keys, the way the factory does for a single device. *)

val shard_count : t -> int
val clock : t -> Worm_simclock.Clock.t
val ca_public : t -> Worm_crypto.Rsa.public
val epoch : t -> int
(** The cluster deletion epoch: bumped whenever a shard's deletion
    windows are collapsed, so aggregated proofs are ordered across
    shard-local deletion activity. *)

type shard_state = Active | Fenced

val shard_state : t -> int -> shard_state

val serving_store : t -> int -> Worm.t option
(** The store currently answering for a shard: the primary while
    [Active], the lockstep mirror while [Fenced], [None] if the shard is
    fenced with no mirror to fall back on. *)

val replicator : t -> int -> Replicator.t option
(** The shard's replicator, but only while the shard is [Active] — i.e.
    while the replicator's primary is the serving store, which is what
    mirror-backed healing ({!Worm_audit.Scrubber.attach_mirror})
    requires. *)

(** {2 WORM operations (global serial space)} *)

val write :
  ?witness:Firmware.witness_mode ->
  ?tenant:string ->
  t ->
  policy:Policy.t ->
  blocks:string list ->
  (Serial.t, string) result
(** Route the next global serial's write to its owning shard (and its
    mirror). Fails without allocating if the owning shard is fenced — a
    fenced stripe is unavailable for ingest until {!recover} — or if
    [tenant] has been erased anywhere in the cluster. A non-empty
    [tenant] seals the record under the owning stores' per-tenant key
    hierarchies. A mirror dying mid-write degrades the shard to
    unmirrored; a primary dying fences the shard in-line. *)

val read : t -> Serial.t -> int * Proof.read_response
(** [(owning shard, the shard's response)]. The caller verifies with the
    owning shard's certificates — {!verify_read} packages the check. *)

val read_many : t -> Serial.t list -> (Serial.t * int * Proof.read_response) list

val register_ack : t -> shard:int -> local:Serial.t -> Serial.t
(** Translate a shard-local write acknowledgement into its global serial
    and advance the router's allocation cursor past it. This is how
    front ends that drive shard stores directly — e.g. one
    {!Worm_proto.Event_server} per shard — keep the router's global
    space in sync with batched per-shard ingest. *)

(** {2 Aggregated freshness} *)

val freshness_proof : t -> (Cluster_proof.t, string) result
(** Assemble the cluster-level proof from every shard's current serving
    store, each shard's current bound first refreshed by
    {!Worm_core.Worm.refresh_current_bound} (re-signed only if that
    shard's counter moved past it or it aged out). [Error] if some shard
    is fenced with no mirror (the cluster cannot prove freshness for
    that stripe). *)

val verifiers : t -> Client.t option array
(** One verifying client per shard, bound to its serving store's
    certificates; [None] for a shard that is fenced with no serving
    store — it has no certificates to verify against, and
    {!verify_read} treats responses claiming to come from it as
    unverifiable ([Violation [Absence_unproven]]) rather than raising.
    Rebuild after a failover — promotion changes the serving SCPU. *)

val verify_read : t -> Client.t option array -> Serial.t -> int * Proof.read_response -> Client.verdict
(** End-to-end check of a routed read: recomputes the partition (a
    response from the wrong shard is a violation, whatever it says) and
    verifies the response under the owning shard's certificates against
    the translated local serial. *)

(** {2 Crypto-erasure (right to be forgotten)} *)

val tenant_is_erased : t -> string -> bool
(** True if any serving store holds an erasure tombstone for the
    tenant — erasure is a cluster-wide property, and a remembering
    shard is enough to refuse re-admission of the tenant. *)

val erase_tenant : t -> tenant:string -> ((int * string * Firmware.erasure_cert) list, string) result
(** Destroy the tenant's keys on {e every} shard — serving store and
    lockstep mirror alike — and return [(shard, store id, certificate)]
    per shard, in index order. O(shards), independent of the tenant's
    record count. Fails (without claiming success) if some shard has no
    serving store; per-store erasure is idempotent, so retrying after
    {!recover} completes the sweep and returns the original
    certificates. *)

val erasure_certs : t -> tenant:string -> (int * string * Firmware.erasure_cert) list
(** The certificates already issued for the tenant, one per serving
    store that has erased it; empty if the tenant was never erased. *)

(** {2 Maintenance} *)

val expire_due : t -> (int * int) list
(** Run every active shard's Retention Monitor; [(shard, deletions)]
    per shard, primary side. *)

val compact_shard : t -> int -> int
(** Collapse deletion windows on one shard (primary and mirror); bumps
    the cluster epoch if anything was expelled. Returns entries
    expelled on the serving side. *)

val idle_tick : t -> unit
(** One idle round on every shard (heartbeats, strengthening, audits,
    compaction are the per-store {!Worm_core.Worm.idle_tick}); shards
    found zeroized are fenced rather than propagating the tamper
    exception. *)

(** {2 Failure handling} *)

val probe : t -> int list
(** Indices of active shards whose serving SCPU reports zeroized. *)

val fence : t -> int -> (unit, string) result
(** Stop routing writes to a shard; reads fall back to the mirror. *)

type recovery = { resynced : int;  (** records re-replicated to the fresh mirror *) new_mirror_id : string }

val recover : t -> int -> (recovery, string) result
(** Fail the shard over: promote the lockstep mirror to primary,
    provision a fresh device + disk + store as the new mirror, rebuild
    it with {!Worm_core.Replicator.resync_mirror}, and return the shard
    to [Active]. Fails if the shard is not fenced, has no mirror, the
    mirror is itself zeroized, or the mirror is a rebuilt (non-lockstep)
    one. *)

val kill : t -> int -> unit
(** Trigger the tamper response on a shard's serving SCPU — the attack /
    failure-injection entry point for tests and the console. *)

(** {2 Introspection} *)

type shard_metrics = {
  sm_shard : int;
  sm_state : shard_state;
  sm_store_id : string;
  sm_mirrored : bool;
  sm_lockstep : bool;  (** mirror still serial-aligned with the primary *)
  sm_failovers : int;
  sm_active : int;
  sm_local_current : Serial.t;
  sm_local_base : Serial.t;
  sm_windows : int;
  sm_scpu_busy_ns : int64;
  sm_host_busy_ns : int64;
  sm_disk_busy_ns : int64;
}

val metrics : t -> shard_metrics list

val reset_busy : t -> unit
(** Zero every shard's SCPU / host / disk ledgers (benchmark harness). *)
