(** Incremental chained hash over a sequence of data blocks.

    The paper's datasig signs [Hash(data)] where the hash may be "a
    chained hash (or other incremental secure hashing)" — appending a
    block costs one compression pass over that block only, so the SCPU
    never rehashes the whole record when records are assembled from
    multiple physical blocks. *)

type t

val empty : t

val add : t -> string -> t
(** Absorb one data block. [add] is injective on block sequences:
    blocks are length-delimited inside the chain, so ["ab"+"c"] and
    ["a"+"bc"] chain to different values. *)

val add_sub : t -> string -> pos:int -> len:int -> t
(** [add_sub t s ~pos ~len] absorbs [s[pos .. pos+len-1]] as one block,
    feeding it zero-copy from the caller's buffer.
    @raise Invalid_argument on an out-of-bounds range. *)

val of_blocks : string list -> t
val value : t -> string
(** 32-byte chain value. *)

val equal : t -> t -> bool
