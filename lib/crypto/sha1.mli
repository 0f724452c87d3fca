(** SHA-1 (FIPS 180-4). Pure OCaml, unsafe fully-unrolled core.

    SHA-1 is retained because the paper's SCPU (IBM 4764) benchmarks
    hashing with SHA-1 (Table 2); the WORM layer itself signs SHA-256
    digests. Do not use SHA-1 for collision resistance in new designs.

    Contexts are single-use, exactly as in {!Sha256}: a finalized
    context raises [Invalid_argument] on any further use. *)

type ctx

val block_size : int
(** 64 bytes. *)

val init : unit -> ctx

val feed : ctx -> string -> unit
(** @raise Invalid_argument if the context was already finalized. *)

val feed_sub : ctx -> string -> pos:int -> len:int -> unit
(** Zero-copy range feed; see {!Sha256.feed_sub}. *)

val get : ctx -> string
(** Finalize and return the 20-byte digest. The context is dead
    afterwards: any further use raises [Invalid_argument]. *)

val digest : string -> string
