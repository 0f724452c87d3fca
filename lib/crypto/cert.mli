(** Minimal public-key certificates.

    The paper assumes the SCPU's verification keys are certified "by a
    regulatory or general purpose certificate authority" and served to
    clients by the untrusted main CPU. A certificate binds a subject
    name and role to an RSA public key under the CA's signature; clients
    bootstrap trust from the CA key alone. *)

type role =
  | Scpu_signing  (** the SCPU's key s: metasig, datasig, window bounds *)
  | Scpu_deletion  (** the SCPU's key d: deletion proofs *)
  | Scpu_short_term  (** short-lived burst keys (§4.3) *)
  | Regulation_authority  (** litigation-hold credential issuer *)

type t = {
  subject : string;
  role : role;
  key : Rsa.public;
  not_before : int64;  (** virtual-clock nanoseconds *)
  not_after : int64;
  signature : string;  (** CA signature over the canonical body *)
}

val issue :
  ca:Rsa.secret -> subject:string -> role:role -> key:Rsa.public -> not_before:int64 -> not_after:int64 -> t

val verify : ca:Rsa.public -> now:int64 -> t -> bool
(** Checks the CA signature and the validity window. *)

val valid_at : now:int64 -> t -> bool
(** The validity-window half of {!verify}: [not_before <= now <= not_after]. *)

val body_bytes : t -> string
(** The canonical body the CA signs: every field but [signature]. With
    {!valid_at}, lets a verifier memoize the signature check of a
    certificate it meets many times. *)

val encode : Worm_util.Codec.encoder -> t -> unit

val encoded_size : t -> int
(** Byte length of [encode]'s output, computed without encoding. *)

val decode : Worm_util.Codec.decoder -> t
