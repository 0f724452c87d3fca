(* Complete binary tree in an array: node 1 is the root, node i has
   children 2i and 2i+1; leaves occupy [capacity, 2*capacity). Leaf and
   interior hashes are domain-separated to rule out second-preimage
   splicing between levels. *)

type t = {
  cap : int;
  nodes : string array; (* 2*cap entries; index 0 unused *)
  present : bool array;
  leaves : string array; (* raw leaf data for [get] *)
  mutable hashes : int;
}

let empty_leaf_hash = Sha256.digest "worm:merkle:empty-leaf"
let leaf_hash data = Sha256.digest_parts [ "\x00"; data ]
let node_hash l r = Sha256.digest_parts [ "\x01"; l; r ]

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let create ~capacity =
  if capacity <= 0 then invalid_arg "Merkle.create: non-positive capacity";
  let cap = pow2_at_least capacity 1 in
  let nodes = Array.make (2 * cap) "" in
  for i = cap to (2 * cap) - 1 do
    nodes.(i) <- empty_leaf_hash
  done;
  let t = { cap; nodes; present = Array.make cap false; leaves = Array.make cap ""; hashes = 0 } in
  for i = cap - 1 downto 1 do
    nodes.(i) <- node_hash nodes.(2 * i) nodes.((2 * i) + 1)
  done;
  (* Construction hashing is not charged to the update counter. *)
  t

(* Bulk build: one [digest_parts_many] fan-out per tree level, so the
   independent hashes of a level run across the shared pool. Like
   [create], construction hashing is not charged to the counter. *)
let of_leaves leaves =
  let pool = Worm_util.Pool.shared () in
  let n = Array.length leaves in
  if n = 0 then invalid_arg "Merkle.of_leaves: no leaves";
  let cap = pow2_at_least n 1 in
  let nodes = Array.make (2 * cap) "" in
  let hashed = Sha256.digest_parts_many ~pool (Array.map (fun d -> [ "\x00"; d ]) leaves) in
  Array.blit hashed 0 nodes cap n;
  for i = cap + n to (2 * cap) - 1 do
    nodes.(i) <- empty_leaf_hash
  done;
  let width = ref (cap / 2) in
  while !width >= 1 do
    let w = !width in
    let parts =
      Array.init w (fun j ->
          let i = w + j in
          [ "\x01"; nodes.(2 * i); nodes.((2 * i) + 1) ])
    in
    let hashed = Sha256.digest_parts_many ~pool parts in
    Array.blit hashed 0 nodes w w;
    width := w / 2
  done;
  let present = Array.make cap false in
  for i = 0 to n - 1 do
    present.(i) <- true
  done;
  let stored = Array.make cap "" in
  Array.blit leaves 0 stored 0 n;
  { cap; nodes; present; leaves = stored; hashes = 0 }

let capacity t = t.cap
let root t = t.nodes.(1)

let check_index t i = if i < 0 || i >= t.cap then invalid_arg "Merkle: index out of range"

let set t i data =
  check_index t i;
  t.leaves.(i) <- data;
  t.present.(i) <- true;
  let node = ref (t.cap + i) in
  t.nodes.(!node) <- leaf_hash data;
  t.hashes <- t.hashes + 1;
  while !node > 1 do
    node := !node / 2;
    t.nodes.(!node) <- node_hash t.nodes.(2 * !node) t.nodes.((2 * !node) + 1);
    t.hashes <- t.hashes + 1
  done

let get t i =
  check_index t i;
  if t.present.(i) then Some t.leaves.(i) else None

let proof t i =
  check_index t i;
  let rec up node acc = if node <= 1 then List.rev acc else up (node / 2) (t.nodes.(node lxor 1) :: acc) in
  up (t.cap + i) []

let verify ~root ~capacity ~index ~leaf_data ~proof =
  capacity > 0
  && index >= 0
  && index < capacity
  &&
  let rec climb node h = function
    | [] -> node = 1 && Worm_util.Ct.equal h root
    | sib :: rest ->
        let h' = if node land 1 = 0 then node_hash h sib else node_hash sib h in
        climb (node / 2) h' rest
  in
  climb (capacity + index) (leaf_hash leaf_data) proof

let hash_count t = t.hashes
let reset_hash_count t = t.hashes <- 0
