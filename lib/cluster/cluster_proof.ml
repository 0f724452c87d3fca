open Worm_core
module Cert = Worm_crypto.Cert
module Rsa = Worm_crypto.Rsa
module Sha256 = Worm_crypto.Sha256
module Codec = Worm_util.Codec

type shard_bound = {
  shard_index : int;
  store_id : string;
  signing_cert : Cert.t;
  deletion_cert : Cert.t;
  base : Firmware.base_bound;
  current : Firmware.current_bound;
}

type t = { n_shards : int; epoch : int; shards : shard_bound list; agg_digest : string }

let encode_shard_bound enc (b : shard_bound) =
  Codec.u32 enc b.shard_index;
  Codec.bytes enc b.store_id;
  Cert.encode enc b.signing_cert;
  Cert.encode enc b.deletion_cert;
  Firmware.encode_base_bound enc b.base;
  Firmware.encode_current_bound enc b.current

let decode_shard_bound dec =
  let shard_index = Codec.read_u32 dec in
  let store_id = Codec.read_bytes dec in
  let signing_cert = Cert.decode dec in
  let deletion_cert = Cert.decode dec in
  let base = Firmware.decode_base_bound dec in
  let current = Firmware.decode_current_bound dec in
  { shard_index; store_id; signing_cert; deletion_cert; base; current }

(* The digest covers the canonical encoding of everything except itself. *)
let body_bytes ~n_shards ~epoch shards =
  Codec.encode
    (fun enc () ->
      Codec.u32 enc n_shards;
      Codec.int_as_u64 enc epoch;
      Codec.list encode_shard_bound enc shards)
    ()

let digest_of ~n_shards ~epoch shards = Sha256.digest (body_bytes ~n_shards ~epoch shards)

let make ~epoch shards =
  let n_shards = List.length shards in
  { n_shards; epoch; shards; agg_digest = digest_of ~n_shards ~epoch shards }

let fingerprint t = String.sub (Worm_util.Hex.encode t.agg_digest) 0 16

let encode enc t =
  Codec.u32 enc t.n_shards;
  Codec.int_as_u64 enc t.epoch;
  Codec.list encode_shard_bound enc t.shards;
  Codec.bytes enc t.agg_digest

let decode dec =
  let n_shards = Codec.read_u32 dec in
  let epoch = Codec.read_int_as_u64 dec in
  let shards = Codec.read_list decode_shard_bound dec in
  let agg_digest = Codec.read_bytes dec in
  if not (String.equal agg_digest (digest_of ~n_shards ~epoch shards)) then
    raise (Codec.Malformed "cluster proof digest mismatch");
  { n_shards; epoch; shards; agg_digest }

let default_max_bound_age_ns = 300_000_000_000L (* 5 min, as in Client *)

let verify_shard ~ca ~now ~max_bound_age_ns (b : shard_bound) =
  let fail fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "shard %d: %s" b.shard_index m)) fmt in
  if not (Cert.verify ~ca ~now b.signing_cert) then fail "signing certificate rejected"
  else if b.signing_cert.Cert.role <> Cert.Scpu_signing then fail "signing certificate has wrong role"
  else if not (Cert.verify ~ca ~now b.deletion_cert) then fail "deletion certificate rejected"
  else if b.deletion_cert.Cert.role <> Cert.Scpu_deletion then fail "deletion certificate has wrong role"
  else
    let cur_msg =
      Wire.current_bound_msg ~store_id:b.store_id ~sn:b.current.Firmware.sn
        ~timestamp:b.current.Firmware.timestamp
    in
    if not (Rsa.verify b.signing_cert.Cert.key ~msg:cur_msg ~signature:b.current.Firmware.signature)
    then fail "current-bound signature does not verify"
    else if Int64.compare (Int64.sub now b.current.Firmware.timestamp) max_bound_age_ns > 0 then
      fail "current bound is older than the freshness limit"
    else
      let base_msg =
        Wire.base_bound_msg ~store_id:b.store_id ~sn:b.base.Firmware.sn
          ~expires_at:b.base.Firmware.expires_at
      in
      if not (Rsa.verify b.signing_cert.Cert.key ~msg:base_msg ~signature:b.base.Firmware.signature)
      then fail "base-bound signature does not verify"
      else if Int64.compare now b.base.Firmware.expires_at > 0 then
        fail "base bound has expired (possible replay)"
      else if Serial.(b.current.Firmware.sn < Serial.prev b.base.Firmware.sn) then
        fail "base bound exceeds current bound"
      else Ok ()

let verify ~ca ~now ?(max_bound_age_ns = default_max_bound_age_ns) t =
  let rec distinct = function
    | [] -> true
    | id :: rest -> (not (List.mem id rest)) && distinct rest
  in
  if t.n_shards < 1 then Error "cluster proof has no shards"
  else if List.length t.shards <> t.n_shards then Error "cluster proof shard count mismatch"
  else if not (List.for_all2 (fun i b -> b.shard_index = i) (List.init t.n_shards Fun.id) t.shards)
  then Error "cluster proof shard indices out of order"
  else if not (distinct (List.map (fun b -> b.store_id) t.shards)) then
    Error "cluster proof reuses a store id across shards"
  else if not (String.equal t.agg_digest (digest_of ~n_shards:t.n_shards ~epoch:t.epoch t.shards))
  then Error "cluster proof digest mismatch"
  else
    List.fold_left
      (fun acc b -> match acc with Error _ -> acc | Ok () -> verify_shard ~ca ~now ~max_bound_age_ns b)
      (Ok ()) t.shards

(* A cluster-wide erasure is the conjunction of per-shard erasures, the
   same way the freshness proof is the conjunction of per-shard bounds:
   there is no cluster key, so the only acceptable evidence is one
   certificate per shard, each signed by that shard's own deletion key.
   A missing shard means some stripe could still decrypt the tenant —
   the whole claim fails, it does not degrade. *)
let verify_erasure ~ca ~now t ~tenant certs =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if String.equal tenant "" then fail "erasure claim names an empty tenant"
  else if List.length certs <> t.n_shards then
    fail "erasure claim covers %d shard(s), cluster has %d — every shard must attest"
      (List.length certs) t.n_shards
  else
    List.fold_left
      (fun acc (b, (shard, store_id, (cert : Firmware.erasure_cert))) ->
        match acc with
        | Error _ -> acc
        | Ok () ->
            if shard <> b.shard_index then
              fail "erasure certificates out of shard order (%d where %d expected)" shard b.shard_index
            else if not (String.equal store_id b.store_id) then
              fail "shard %d: erasure certificate names a different store" shard
            else if not (String.equal cert.Firmware.tenant tenant) then
              fail "shard %d: certificate names tenant %S, not %S" shard cert.Firmware.tenant tenant
            else if not (Cert.verify ~ca ~now b.deletion_cert) then
              fail "shard %d: deletion certificate rejected" shard
            else if b.deletion_cert.Cert.role <> Cert.Scpu_deletion then
              fail "shard %d: deletion certificate has wrong role" shard
            else
              let msg =
                Wire.erasure_msg ~store_id:b.store_id ~tenant ~erased_at:cert.Firmware.erased_at
                  ~upto:cert.Firmware.upto
              in
              if not (Rsa.verify b.deletion_cert.Cert.key ~msg ~signature:cert.Firmware.signature)
              then fail "shard %d: erasure signature does not verify under the deletion certificate" shard
              else Ok ())
      (Ok ())
      (List.combine t.shards certs)

(* Recover G from the per-shard currents. Shard 0 always holds
   ceil(G / n) locals, so G is one of [c_0 * n - (n - 1) .. c_0 * n];
   rather than search, derive G = sum of locals and check every shard
   against the round-robin equation — any stale bound breaks it. *)
let global_current t =
  if t.n_shards < 1 then Error "cluster proof has no shards"
  else
    let total =
      List.fold_left (fun acc b -> acc + Serial.to_int b.current.Firmware.sn) 0 t.shards
    in
    let g = Serial.of_int total in
    let coherent =
      List.for_all
        (fun b ->
          Serial.equal b.current.Firmware.sn
            (Partition.locals_covered ~shards:t.n_shards ~shard:b.shard_index ~global_current:g))
        t.shards
    in
    if coherent then Ok g
    else Error "shard current bounds are incoherent with a round-robin history"
