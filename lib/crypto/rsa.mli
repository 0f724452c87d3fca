(** RSA signatures, PKCS#1 v1.5 over SHA-256. Pure OCaml.

    The SCPU's two signing keys (s and d in the paper) are instances of
    {!secret}; clients verify with {!public}. Short-lived burst keys
    (§4.3) are simply smaller-modulus instances. *)

type public = { n : Nat.t; e : Nat.t }

type secret
(** Secret key with CRT acceleration parameters. The representation is
    abstract: holders of a {!secret} can sign, nothing else leaks. *)

val generate : Drbg.t -> bits:int -> secret
(** Generate a [bits]-bit modulus key pair with e = 65537.
    @raise Invalid_argument if [bits < 512] (PKCS#1 padding needs room). *)

val public_of : secret -> public

val sign : secret -> string -> string
(** [sign key msg] returns the PKCS#1 v1.5 signature over
    [SHA-256(msg)], as a modulus-width byte string. Domain-safe: each
    call works on its own clone of the key's cached Montgomery contexts,
    so concurrent signs under one key never share scratch. *)

val sign_batch : ?pool:Worm_util.Pool.t -> secret -> string list -> string list
(** [sign_batch ?pool key msgs] signs each message, results in input
    order, and equals [List.map (sign key) msgs] byte for byte. With a
    [pool] of size > 1 and more than one message the signatures fan out
    across its domains — the SCPU's crypto engine signing a burst
    (§4.3) or a deferred-strength repayment. Without one (or on a
    single-domain pool) it runs in the caller. *)

val verify : public -> msg:string -> signature:string -> bool
(** Domain-safe: the per-key verification context cache keeps one
    master context per modulus behind a mutex and hands each domain its
    own clone, so concurrent verifies under one key never share
    Montgomery scratch. *)

val raw_apply_secret : secret -> Nat.t -> Nat.t
(** Textbook RSA private operation (CRT), exposed for tests and the
    cost-model microbenchmarks. *)

val raw_apply_public : public -> Nat.t -> Nat.t

val fingerprint : public -> string
(** SHA-256 over the canonical public-key encoding (hex, 16 chars). *)

val encode_public : Worm_util.Codec.encoder -> public -> unit
val decode_public : Worm_util.Codec.decoder -> public

val public_encoded_size : public -> int
(** Byte length of {!encode_public}'s output, computed arithmetically —
    no encoder is materialized. *)

val equal_public : public -> public -> bool
val pp_public : Format.formatter -> public -> unit
