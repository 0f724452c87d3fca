open Worm_core

(** Wire messages of the WORM client/server protocol.

    The paper's clients (auditors, investigators) are remote: they see
    the store only through read requests and certificate fetches, and
    they verify everything locally against the CA key. This module gives
    every request and response a canonical binary encoding — including
    the full proof vocabulary (VRDs with data, deletion proofs, window
    bounds, base/current bounds) — so the trust analysis survives the
    serialization boundary: a byte-level man-in-the-middle is no
    stronger than the malicious host already considered. *)

type request =
  | Hello  (** fetch store identity and certificates *)
  | Read of Serial.t
  | Read_many of Serial.t list  (** batched audit sweep *)
  | Audit_slice of { cursor : Serial.t; max : int }
      (** one increment of a remote full-store audit: proofs for up to
          [max] serials starting at [cursor] *)
  | Write of { policy : Policy.t; tenant : string; blocks : string list }
      (** ingest a new record under [policy]; answered with {!Write_ack}
          once the SCPU has witnessed it, or {!Busy} when admission
          control sheds the request under deferred-witness debt. A
          non-empty [tenant] seals the record under the SCPU's
          per-tenant key hierarchy (crypto-erasable); writes for an
          already-erased tenant are refused with {!Protocol_error} *)
  | Cluster_hello  (** fetch cluster shape and every shard's certificates *)
  | Cluster_read of Serial.t  (** read one {e global} serial through the router *)
  | Cluster_read_many of Serial.t list
  | Cluster_proof_get  (** fetch the aggregated cluster freshness proof *)
  | Erase_tenant of string
      (** right to be forgotten: destroy the tenant's keys — O(1) in
          record count. Answered with {!Erasure_cert_reply} (single
          store) or {!Cluster_erasure_reply} (cluster: every shard and
          mirror erases) *)
  | Erasure_cert_get of string
      (** fetch the erasure certificate(s) for a previously erased
          tenant *)

type response =
  | Hello_ack of {
      store_id : string;
      signing_cert : Worm_crypto.Cert.t;
      deletion_cert : Worm_crypto.Cert.t;
    }
  | Read_reply of { sn : Serial.t; response : Proof.read_response }
  | Read_many_reply of (Serial.t * Proof.read_response) list
  | Protocol_error of string
  | Audit_slice_reply of {
      replies : (Serial.t * Proof.read_response) list;
      next : Serial.t option;
          (** resume cursor; [None] once the slice reached the current
              bound. A below-base cursor skips forward with empty
              [replies] — the signed base bound covers the region
              wholesale, which is what makes remote audits batched
              instead of per-record. *)
      base : Firmware.base_bound;
      current : Firmware.current_bound;
    }
  | Write_ack of { sn : Serial.t }
      (** the record was witnessed under this SCPU-issued serial. The ack
          deliberately carries only the SN: clients fetch the VRD through
          {!Read} and verify it against the CA like any other proof. *)
  | Busy of { retry_after_ns : int64 }
      (** admission control shed the write: the store's deferred-witness
          debt is over its ceiling, retry after the given virtual delay *)
  | Cluster_hello_ack of {
      n_shards : int;
      epoch : int;
      shards : (string * Worm_crypto.Cert.t * Worm_crypto.Cert.t) list;
          (** per shard, in index order: (store id, signing cert,
              deletion cert) — everything a client needs to compute the
              partition and verify shard-served proofs *)
    }
  | Cluster_read_reply of { sn : Serial.t; shard : int; response : Proof.read_response }
      (** [shard] is the router's routing claim; verifiers recompute the
          partition themselves and treat a mismatch as a violation *)
  | Cluster_read_many_reply of (Serial.t * int * Proof.read_response) list
  | Cluster_proof_reply of Worm_cluster.Cluster_proof.t
  | Erasure_cert_reply of Firmware.erasure_cert option
      (** [None]: the tenant has not been erased on this store *)
  | Cluster_erasure_reply of (int * string * Firmware.erasure_cert) list
      (** per shard, in index order: (shard, store id, cert). A client
          accepts a cluster-wide erasure only when {e every} shard
          attests — see {!Worm_cluster.Cluster_proof.verify_erasure} *)

val describe_request : request -> string
val describe_response : response -> string
(** One-line renderings for fault traces and console output; payloads
    are summarized, never dumped. *)

val encode_request : request -> string
val decode_request : string -> (request, string) result

val encode_response :
  ?read_response:(Worm_util.Codec.encoder -> Proof.read_response -> unit) ->
  response ->
  string
(** [read_response] (default {!encode_read_response}) lets a server
    splice memoised canonical fragments for epoch-stable proofs; the
    resulting bytes must be identical to the default encoding. *)

val decode_response : string -> (response, string) result

val request_wire_length : request -> int
val response_wire_length :
  ?read_response:(Worm_util.Codec.encoder -> Proof.read_response -> unit) ->
  response ->
  int
(** Wire length without materialising the encoded string — for byte
    accounting (Netsim charges by length only). *)

(** Exposed for reuse (e.g. persisting audit evidence, streaming
    encoders). *)

val encode_response_into :
  ?read_response:(Worm_util.Codec.encoder -> Proof.read_response -> unit) ->
  Worm_util.Codec.encoder ->
  response ->
  unit
val encode_read_response : Worm_util.Codec.encoder -> Proof.read_response -> unit
val decode_read_response : Worm_util.Codec.decoder -> Proof.read_response
