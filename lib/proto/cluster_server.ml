open Worm_core
module Router = Worm_cluster.Shard_router
module Cluster_proof = Worm_cluster.Cluster_proof
module Partition = Worm_cluster.Partition

type t = {
  router : Router.t;
  limits : Server.limits;
  (* per-shard dispatchers, keyed by the store they wrap so a failover's
     promotion invalidates the cache entry naturally *)
  mutable servers : (Worm.t * Server.t) option array;
  read_memo : Server.read_memo;  (** shared across shards; keys are per-store records *)
  mutable m_proof : (Cluster_proof.t * string) option;
  mutable m_hello : (Message.response * string) option;
}

let create ?(limits = Server.default_limits) router =
  {
    router;
    limits;
    servers = Array.make (Router.shard_count router) None;
    read_memo = Server.read_memo ();
    m_proof = None;
    m_hello = None;
  }


(* A fenced shard (primary dead, mirror not yet promoted) yields [None]:
   the dispatcher must surface that as a protocol-level refusal, never
   an exception — [handle_bytes] is total on adversarial input and a
   request arriving mid-failover is routine, not a crash. *)
let shard_server t i =
  match Router.serving_store t.router i with
  | None -> None
  | Some store -> (
      match t.servers.(i) with
      | Some (cached_store, server) when cached_store == store -> Some server
      | Some _ | None ->
          let server = Server.create ~limits:t.limits store in
          t.servers.(i) <- Some (store, server);
          Some server)

let handle t = function
  | Message.Cluster_hello -> (
      let rec collect acc i =
        if i < 0 then Ok acc
        else
          match Router.serving_store t.router i with
          | None -> Error i
          | Some store ->
              let fw = Worm.firmware store in
              collect ((Worm.store_id store, Firmware.signing_cert fw, Firmware.deletion_cert fw) :: acc) (i - 1)
      in
      match collect [] (Router.shard_count t.router - 1) with
      | Error i -> Message.Protocol_error (Printf.sprintf "shard %d has no serving store" i)
      | Ok shards ->
          Message.Cluster_hello_ack
            { n_shards = Router.shard_count t.router; epoch = Router.epoch t.router; shards })
  | Message.Cluster_read sn ->
      let shard, response = Router.read t.router sn in
      Message.Cluster_read_reply { sn; shard; response }
  | Message.Cluster_read_many sns ->
      let n = List.length sns in
      if n > t.limits.Server.max_read_many then
        Message.Protocol_error
          (Printf.sprintf "cluster-read-many of %d sns exceeds limit %d" n t.limits.Server.max_read_many)
      else Message.Cluster_read_many_reply (Router.read_many t.router sns)
  | Message.Cluster_proof_get -> (
      match Router.freshness_proof t.router with
      | Ok proof -> Message.Cluster_proof_reply proof
      | Error e -> Message.Protocol_error e)
  | Message.Write { policy; tenant; blocks } -> (
      match Router.write t.router ~tenant ~policy ~blocks with
      | Ok sn -> Message.Write_ack { sn }
      | Error e -> Message.Protocol_error e)
  | Message.Erase_tenant tenant -> (
      if tenant = "" then Message.Protocol_error "erase-tenant: empty tenant id"
      else
        match Router.erase_tenant t.router ~tenant with
        | Ok certs -> Message.Cluster_erasure_reply certs
        | Error e -> Message.Protocol_error e)
  | Message.Erasure_cert_get tenant ->
      if tenant = "" then Message.Protocol_error "erasure-cert-get: empty tenant id"
      else Message.Cluster_erasure_reply (Router.erasure_certs t.router ~tenant)
  | Message.Hello | Message.Read _ | Message.Read_many _ | Message.Audit_slice _ ->
      Message.Protocol_error "single-store request sent to a cluster front end; use a shard server"

(* Request-scoped refresh, per shard: every serving shard sees the
   locals a [Cluster_read*] routes to it as one [Read_many], so every
   base bound is healed and a shard's current bound is
   re-signed only if a read lands above that shard's own counter. A
   [Cluster_proof_get] re-signs inside {!Router.freshness_proof}. An
   over-limit [Cluster_read_many] is not walked: [handle] refuses it
   before any per-SN work. *)
let refresh_for t request =
  let n = Router.shard_count t.router in
  let locals = Array.make n [] in
  let route g =
    let i = Partition.shard_of ~shards:n g in
    locals.(i) <- Partition.local_of ~shards:n g :: locals.(i)
  in
  (match request with
  | Message.Cluster_read g -> route g
  | Message.Cluster_read_many gs when List.compare_length_with gs t.limits.Server.max_read_many <= 0 -> List.iter route gs
  | _ -> ());
  Array.iteri
    (fun i sns -> Option.iter (fun server -> Server.refresh_for server (Message.Read_many sns)) (shard_server t i))
    locals

(* Encode-once caches for the cluster's own hot artifacts. The router
   assembles a fresh proof/ack record per request, but every signed
   thing inside it (certs, base/current bounds) is the store's stable
   cached record — so "same artifact" is decidable by walking the
   structure with physical equality on the signed leaves. A heartbeat
   that re-signs any shard's bound, or a failover that swaps a cert,
   breaks the comparison and the cache re-encodes; it can never serve a
   stale aggregate. *)

let same_shard_bound (a : Cluster_proof.shard_bound) (b : Cluster_proof.shard_bound) =
  a.shard_index = b.shard_index
  && a.store_id == b.store_id
  && a.signing_cert == b.signing_cert
  && a.deletion_cert == b.deletion_cert
  && a.base == b.base
  && a.current == b.current

let same_proof (a : Cluster_proof.t) (b : Cluster_proof.t) =
  a.epoch = b.epoch && a.n_shards = b.n_shards
  && List.length a.shards = List.length b.shards
  && List.for_all2 same_shard_bound a.shards b.shards

let same_shard_cert (id, sc, dc) (id', sc', dc') = id == id' && sc == sc' && dc == dc'

(* Encode through the cluster's encode-once caches: the aggregated
   freshness proof and the cluster hello ack are re-encoded only when
   some signed leaf inside them (a cert or a shard bound record) actually
   changed, decided by physical equality on the records the stores hand
   out, so a heartbeat or failover invalidates the cache by itself.
   Shard-served read responses share one [Server] read memo across all
   shards. Bytes are identical to [Message.encode_response]. *)
let encode_response t response =
  match response with
  | Message.Cluster_proof_reply proof -> begin
      match t.m_proof with
      | Some (p, bytes) when same_proof p proof ->
          Server.note_memo_hit ();
          bytes
      | _ ->
          Server.note_memo_miss ();
          let bytes = Message.encode_response response in
          t.m_proof <- Some (proof, bytes);
          bytes
    end
  | Message.Cluster_hello_ack { n_shards; epoch; shards } -> begin
      match t.m_hello with
      | Some (Message.Cluster_hello_ack h, bytes)
        when h.n_shards = n_shards && h.epoch = epoch
             && List.length h.shards = List.length shards
             && List.for_all2 same_shard_cert h.shards shards ->
          Server.note_memo_hit ();
          bytes
      | _ ->
          Server.note_memo_miss ();
          let bytes = Message.encode_response response in
          t.m_hello <- Some (response, bytes);
          bytes
    end
  | _ -> Message.encode_response ~read_response:(Server.memo_read_response t.read_memo) response

let handle_bytes t bytes =
  match Message.decode_request bytes with
  | Error e -> Message.encode_response (Message.Protocol_error e)
  | Ok request -> begin
      (* [refresh_for] is inside the guard for the same reason as in
         {!Server.handle_bytes}: it signs through the shards' SCPUs,
         and a device fault mid-refresh must degrade to a protocol
         error, not kill the dispatcher. *)
      match
        refresh_for t request;
        encode_response t (handle t request)
      with
      | reply -> reply
      | exception exn ->
          Message.encode_response (Message.Protocol_error ("dispatch failed: " ^ Printexc.to_string exn))
    end
