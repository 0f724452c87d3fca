(** SCPU witnesses, in the three strengths of §4.3.

    A witness authenticates one canonical statement ({!Wire}). [Strong]
    is a signature under the long-term key s; [Weak] is a signature
    under a short-lived burst key together with that key's certificate
    (chained under s); [Mac] is an HMAC only the issuing SCPU can check
    — the cheapest deferred mode, invisible to clients until
    strengthened. *)

type t =
  | Strong of string
  | Weak of { cert : Worm_crypto.Cert.t; signature : string }
  | Mac of string

type strength = [ `Strong | `Weak | `Mac ]

val strength : t -> strength
val strength_name : strength -> string

val verifiable_by_client : t -> bool
(** [Mac] witnesses are not. *)

val encode : Worm_util.Codec.encoder -> t -> unit

val encoded_size : t -> int
(** Byte length of [encode]'s output, computed without encoding. *)

val decode : Worm_util.Codec.decoder -> t
