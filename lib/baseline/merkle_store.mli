(** Merkle-authenticated store baseline (the design §4.1 rejects).

    Same trust root as Strong WORM — an SCPU signs the authentication
    state — but organized as the data-outsourcing literature would have
    it: a hash tree over record digests whose root the SCPU re-signs on
    {e every} update, costing O(log n) hash recomputations per insert
    versus the window scheme's O(1) boundary signatures.

    The ablation benchmark drives both through identical insert loads
    and reports SCPU hash work and virtual busy time; reads come with
    root-signed membership proofs that clients can verify, so assurance
    is comparable — only the update cost differs. *)

type t

val create : device:Worm_scpu.Device.t -> capacity:int -> t
(** The tree (capacity rounded to a power of two) lives in SCPU-adjacent
    trusted state; each level-hash recomputation is charged to the
    device at SCPU rates. *)

val capacity : t -> int

val append : t -> string -> int
(** Insert a record's data, recompute the root path, sign the new root.
    Returns the record's index. @raise Failure when full. *)

val bulk_load : t -> string list -> unit
(** Populate many records with a single root signature at the end —
    benchmark setup only (per-update costs are not charged), so
    experiments can measure appends at a given tree size without paying
    a signature per preparatory insert. *)

type proof = { index : int; leaf_hash : string; path : string list; root : string; root_sig : string }

val prove : t -> int -> proof option

val verify :
  signing_key:Worm_crypto.Rsa.public -> capacity:int -> data:string -> proof -> bool
(** Client-side check: membership path plus SCPU signature on the root. *)
