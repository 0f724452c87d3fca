(** Cluster-level freshness proofs.

    A sharded cluster has no cluster-wide SCPU, so there is nothing that
    could sign a single "cluster current bound". What a client {e can}
    verify end-to-end is the conjunction of the shards' own proofs: one
    CA-rooted (signing cert, deletion cert, base bound, current bound)
    tuple per shard, stitched together with the cluster epoch and shard
    count. This module is that aggregate: the router assembles it, the
    wire protocol ships it ({!Worm_proto.Message}), and {!verify} checks
    every signature, validity window and freshness limit against nothing
    but the CA key and the verifier's clock — the router is untrusted
    plumbing, exactly like the single-store host.

    Because the partition ({!Partition}) is deterministic, the per-shard
    current bounds are not independent claims: if the cluster has
    allocated [G] globals, shard [s] must hold exactly
    [(G + n - 1 - s) / n] locals. {!global_current} recovers [G] from
    the shard bounds and rejects any combination that no round-robin
    history could have produced — a router replaying one shard's stale
    bound breaks the coherence equation before it breaks any signature. *)

open Worm_core
module Cert = Worm_crypto.Cert

type shard_bound = {
  shard_index : int;
  store_id : string;
  signing_cert : Cert.t;
  deletion_cert : Cert.t;
  base : Firmware.base_bound;  (** S_s(SN_base) of this shard *)
  current : Firmware.current_bound;  (** S_s(SN_current) of this shard *)
}

type t = {
  n_shards : int;
  epoch : int;
      (** cluster deletion epoch: bumped whenever any shard's deletion
          windows are collapsed or a cluster-wide retention round runs,
          so verifiers can order proofs across shard-local deletions *)
  shards : shard_bound list;  (** exactly [n_shards], in index order *)
  agg_digest : string;
      (** SHA-256 over the canonical encoding of everything above; a
          tamper-evident fingerprint of the whole aggregate, not a
          signature (there is no cluster key to sign with) *)
}

val make : epoch:int -> shard_bound list -> t
(** Assemble a proof and compute its digest. The list order defines the
    shard indexing and must match the bounds' [shard_index] fields. *)

val verify :
  ca:Worm_crypto.Rsa.public -> now:int64 -> ?max_bound_age_ns:int64 -> t -> (unit, string) result
(** Full client-side check: structure (one bound per shard index,
    distinct store ids), digest integrity, every certificate against the
    CA, every base/current bound signature under its shard's signing
    key, base bounds unexpired, and current-bound timestamps at most
    [max_bound_age_ns] old (default 5 minutes, matching
    {!Worm_core.Client}). *)

val verify_erasure :
  ca:Worm_crypto.Rsa.public ->
  now:int64 ->
  t ->
  tenant:string ->
  (int * string * Firmware.erasure_cert) list ->
  (unit, string) result
(** Client-side check of a cluster-wide crypto-erasure claim
    ({!Worm_proto.Message} [Cluster_erasure_reply]): exactly one
    certificate per shard in index order, each naming [tenant] and the
    shard's store id, each signed by that shard's CA-verified deletion
    key. A shard that has not attested fails the whole claim — some
    stripe could still decrypt the tenant. *)

val global_current : t -> (Serial.t, string) result
(** The cluster-wide current bound implied by the shard bounds: the
    unique [G] with shard [s] holding [(G + n - 1 - s) / n] locals.
    [Error] if the bounds are incoherent — no round-robin write history
    could have produced them (stale or replayed shard bound). *)

val fingerprint : t -> string
(** Short hex fingerprint of [agg_digest] for logs and reports. *)

val encode : Worm_util.Codec.encoder -> t -> unit
val decode : Worm_util.Codec.decoder -> t
(** @raise Worm_util.Codec.Malformed if the digest does not match the
    re-encoded body — damaged aggregates fail at the codec boundary. *)
