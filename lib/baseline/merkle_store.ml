module Device = Worm_scpu.Device
module Merkle = Worm_crypto.Merkle
module Sha256 = Worm_crypto.Sha256
module Rsa = Worm_crypto.Rsa

type t = {
  device : Device.t;
  tree : Merkle.t;
  mutable size : int;
  mutable root_sig : string;
  mutable appends : int;
}

let root_msg root = "worm:baseline:merkle-root|" ^ root

let create ~device ~capacity =
  let tree = Merkle.create ~capacity in
  let root_sig = Device.sign_strong device (root_msg (Merkle.root tree)) in
  { device; tree; size = 0; root_sig; appends = 0 }

let capacity t = Merkle.capacity t.tree

let append t data =
  if t.size >= capacity t then failwith "Merkle_store.append: full";
  let index = t.size in
  let before = Merkle.hash_count t.tree in
  Merkle.set t.tree index data;
  let node_hashes = Merkle.hash_count t.tree - before in
  (* Each path recomputation is SCPU work: one leaf hash over the data
     plus [log n] 65-byte interior-node hashes. *)
  Device.charge_hash_only t.device ~bytes:(String.length data);
  for _ = 2 to node_hashes do
    Device.charge_hash_only t.device ~bytes:65
  done;
  t.root_sig <- Device.sign_strong t.device (root_msg (Merkle.root t.tree));
  t.size <- index + 1;
  t.appends <- t.appends + 1;
  index

let bulk_load t records =
  List.iter
    (fun data ->
      if t.size >= capacity t then failwith "Merkle_store.bulk_load: full";
      Merkle.set t.tree t.size data;
      t.size <- t.size + 1)
    records;
  Merkle.reset_hash_count t.tree;
  t.root_sig <- Device.sign_strong t.device (root_msg (Merkle.root t.tree))

type proof = { index : int; leaf_hash : string; path : string list; root : string; root_sig : string }

let prove t index =
  if index < 0 || index >= t.size then None
  else
    Some
      {
        index;
        leaf_hash = Sha256.digest ("\x00" ^ Option.value ~default:"" (Merkle.get t.tree index));
        path = Merkle.proof t.tree index;
        root = Merkle.root t.tree;
        root_sig = t.root_sig;
      }

let verify ~signing_key ~capacity ~data proof =
  Merkle.verify ~root:proof.root ~capacity ~index:proof.index ~leaf_data:data ~proof:proof.path
  && Rsa.verify signing_key ~msg:(root_msg proof.root) ~signature:proof.root_sig
