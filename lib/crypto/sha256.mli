(** SHA-256 (FIPS 180-4). Pure OCaml, unsafe fully-unrolled core.

    The default digest for all WORM signatures, deletion proofs, window
    bounds and chained record hashes. The reference (safe, loop-based)
    implementation this core is checked byte-for-byte against lives in
    [test/support/ref_hash.ml].

    A context is single-use: finalizing it ({!get} / {!digest_into})
    marks it finalized, and any further {!feed}/{!get} on it raises
    [Invalid_argument] — it never silently yields garbage. *)

type ctx

val digest_size : int
(** 32 bytes. *)

val block_size : int
(** 64 bytes. *)

val init : unit -> ctx

val feed : ctx -> string -> unit
(** @raise Invalid_argument if the context was already finalized. *)

val feed_sub : ctx -> string -> pos:int -> len:int -> unit
(** [feed_sub ctx s ~pos ~len] feeds [s[pos .. pos+len-1]] without
    materialising a substring: whole 64-byte blocks are compressed
    directly out of [s].
    @raise Invalid_argument on a finalized context or out-of-bounds
    range. *)

val get : ctx -> string
(** Finalize and return the 32-byte digest. The context is dead
    afterwards: any further use raises [Invalid_argument]. *)

val digest_into : ctx -> Bytes.t -> pos:int -> unit
(** Finalize, writing the 32 digest bytes into [out] at [pos] — no
    intermediate string. Same single-use semantics as {!get}. *)

val digest : string -> string
val digest_sub : string -> pos:int -> len:int -> string

val digest_parts : string list -> string
(** Digest the concatenation of the parts without concatenating them. *)

val hex_digest : string -> string
