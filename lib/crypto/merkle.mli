(** Updatable Merkle hash tree over a fixed-capacity array of leaves.

    This is the baseline the paper argues {e against} for compliance
    stores (§2.3, §4.1): every record insertion costs O(log n) hash
    recomputations up the tree, whereas the window scheme certifies the
    live range in O(1). The tree counts its hash invocations so the
    ablation benchmark can report the asymptotic gap directly. *)

type t

val create : capacity:int -> t
(** Capacity is rounded up to a power of two; absent leaves hash as a
    fixed empty marker. @raise Invalid_argument if [capacity <= 0]. *)

val of_leaves : string array -> t
(** Bulk construction: installs leaf [i] = [leaves.(i)], hashing each
    tree level across {!Worm_util.Pool.shared}
    ({!Sha256.digest_parts_many}).
    The root is identical to [create]-then-[set] for the same leaves.
    Construction hashing is not charged to {!hash_count}.
    @raise Invalid_argument on an empty array. *)

val capacity : t -> int
val root : t -> string
val set : t -> int -> string -> unit
(** [set t i leaf_data] installs a leaf and recomputes its root path.
    @raise Invalid_argument on an out-of-range index. *)

val get : t -> int -> string option
val proof : t -> int -> string list
(** Sibling hashes from leaf level to the root. *)

val verify : root:string -> capacity:int -> index:int -> leaf_data:string -> proof:string list -> bool

val hash_count : t -> int
(** Cumulative number of node-hash computations since creation. *)

val reset_hash_count : t -> unit
