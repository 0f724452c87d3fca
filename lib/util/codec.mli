(** Deterministic binary serialization.

    All multi-byte integers are big-endian. Variable-length fields are
    length-prefixed. Encodings are canonical: a value has exactly one
    encoding, so encodings can be hashed and signed directly.

    Encoders write into a growable preallocated [Bytes] with unsafe
    big-endian word stores and are reused (a small per-domain pool
    backs {!with_encoder}/{!encode}). The byte format is frozen — [test/support/ref_codec.ml] keeps the
    original implementation as the identity oracle. *)

type encoder
(** Mutable accumulator for an encoding in progress. *)

val encoder : unit -> encoder
(** A fresh, unpooled encoder, for long-lived accumulators. *)

val length : encoder -> int
(** Bytes written so far. *)

val to_string : encoder -> string

val u8 : encoder -> int -> unit
(** @raise Invalid_argument if outside [0, 255]. *)

val u16 : encoder -> int -> unit
(** @raise Invalid_argument if outside [0, 65535]. *)

val u32 : encoder -> int -> unit
(** @raise Invalid_argument if outside [0, 2{^32}-1]. *)

val u64 : encoder -> int64 -> unit
val int_as_u64 : encoder -> int -> unit
(** Non-negative [int] written as u64. @raise Invalid_argument if negative. *)

val bool : encoder -> bool -> unit
val bytes : encoder -> string -> unit
(** Length-prefixed (u32) byte string. *)

val raw : encoder -> string -> unit
(** Append bytes verbatim, no length prefix — for splicing fragments
    that are already canonical encodings (the encode-once memo path). *)

val list : (encoder -> 'a -> unit) -> encoder -> 'a list -> unit
(** u32 count followed by the elements. *)

val option : (encoder -> 'a -> unit) -> encoder -> 'a option -> unit

val with_encoder : (encoder -> 'a) -> 'a
(** Borrow a pooled per-domain encoder, reset and ready; it returns to
    the pool when [f] finishes (exception-safe). Nesting borrows is
    fine — each gets its own encoder. *)

type pool_stats = { pool_reused : int; pool_fresh : int }

val pool_stats : unit -> pool_stats
(** Aggregate borrow counters across all domains since program start. *)

type decoder
(** Read cursor over an encoded string. *)

exception Truncated
(** Raised when a read runs past the end of the input. *)

exception Malformed of string
(** Raised on structurally invalid input (e.g. a bad bool tag). *)

val decoder : string -> decoder

val read_u8 : decoder -> int
val read_u16 : decoder -> int
val read_u32 : decoder -> int
val read_u64 : decoder -> int64
val read_int_as_u64 : decoder -> int
val read_bool : decoder -> bool
val read_bytes : decoder -> string

val read_list : (decoder -> 'a) -> decoder -> 'a list
val read_option : (decoder -> 'a) -> decoder -> 'a option

val expect_end : decoder -> unit
(** @raise Malformed if input bytes remain. *)

val encode : (encoder -> 'a -> unit) -> 'a -> string
(** [encode enc v] runs [enc] on a pooled encoder and returns the bytes. *)

val encoded_length : (encoder -> 'a -> unit) -> 'a -> int
(** Wire length of [encode enc v] without materialising the string —
    the event server charges Netsim by length only. *)

val decode : (decoder -> 'a) -> string -> ('a, string) result
(** [decode dec s] runs [dec], requiring all input to be consumed. *)
