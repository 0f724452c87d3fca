(** Secure coprocessor (SCPU) device model — the trusted enclosure.

    Models an IBM 4764-class FIPS 140-2 Level 4 cryptographic
    coprocessor: private keys live only inside an abstract {!t}; the
    host interacts exclusively through this interface (the moral
    equivalent of the CCA API plus custom WORM firmware entry points).
    Physical attack triggers zeroization ({!tamper_respond}) after which
    every operation raises {!Tamper_detected}.

    Every primitive charges virtual time from {!Cost_model} into a
    busy-time ledger; DMA transfers across the PCI-X bus are charged
    explicitly by callers via {!charge_dma} since only the firmware
    knows how many bytes actually cross the boundary in each protocol
    mode. The device also keeps per-operation counters so tests can
    assert, e.g., that the read path never touches the SCPU. *)

exception Tamper_detected

type config = {
  strong_bits : int;  (** modulus size of keys s and d (paper: 1024) *)
  weak_bits : int;  (** short-lived burst keys (paper: 512) *)
  weak_lifetime_ns : int64;
      (** security lifetime of weak constructs: how long a 512-bit
          modulus is assumed to resist factoring (paper: 60–180 min) *)
  profile : Cost_model.profile;
}

val default_config : config
(** 1024/512 bits, 120 min weak lifetime, IBM 4764 profile. *)

val test_config : config
(** 512/512 bits — fast key generation for unit tests; identical logic. *)

type stats = {
  strong_signs : int;
  weak_signs : int;
  deletion_signs : int;
  sign_calls : int;
      (** signing {e invocations} (single or batch): each call pays the
          per-key setup that {!sign_strong_batch} amortizes over a whole
          burst, so cross-client batching shows up as fewer [sign_calls]
          for the same number of signatures *)
  hmac_ops : int;
  hash_ops : int;
  hash_bytes : int;
  dma_bytes : int;
  weak_rotations : int;
}

type t

val provision :
  seed:string -> clock:Worm_simclock.Clock.t -> ca:Worm_crypto.Rsa.secret -> ?config:config -> name:string -> unit -> t
(** Factory provisioning: generates the device key set deterministically
    from [seed] and has the certificate authority [ca] certify the
    signing (s) and deletion (d) public keys. *)

val name : t -> string
val config : t -> config

val now : t -> int64
(** The SCPU's internal tamper-protected clock. *)

val random : t -> int -> string

(** {2 Certificates} *)

val signing_cert : t -> Worm_crypto.Cert.t
val deletion_cert : t -> Worm_crypto.Cert.t

(** {2 Signing services} *)

val sign_strong : t -> string -> string
(** Sign with s (metasig, datasig, window bounds). Charges and counts
    one strong signature. The key check, the charge and the count run
    in the caller; then [Rsa.sign] splits the signature's two CRT
    halves over {!Worm_util.Pool.shared} when the key has at least 1024
    bits and the pool a second domain. The signature, the ledger and
    the stats are those of the sequential path. *)

val sign_deletion : t -> string -> string
(** Sign with d (deletion proofs); split like {!sign_strong}. *)

val sign_weak : t -> string -> Worm_crypto.Cert.t * string
(** Sign with the current short-lived key; returns its certificate. *)

val sign_strong_batch : t -> string list -> string list
(** [sign_strong_batch t msgs] signs every message with s, results in
    order. Charges and counts one strong signature per message; the batch
    form amortizes per-key setup across the burst (§4.3).

    Every batch form fans its signatures out on {!Worm_util.Pool.shared},
    the model of the SCPU's crypto engine signing beside the host; the
    host's batched read verification shares the same pool. A batch of
    two or more signs each message inline on one of the pool's domains;
    a one-element batch splits its CRT halves like {!sign_strong}. The
    signatures, the ledger and the stats are exactly those of the
    sequential path: key checks, charging and counting run in the
    caller before anything is handed to the pool. *)

val sign_deletion_batch : t -> string list -> string list
(** Batch form of {!sign_deletion}; pooled like {!sign_strong_batch}. *)

val sign_weak_batch : t -> string list -> Worm_crypto.Cert.t * string list
(** Batch form of {!sign_weak}; pooled like {!sign_strong_batch}. The
    key is rotated (at most once, in the caller) before the batch, so
    every signature in it verifies under the single returned
    certificate. *)

val hmac_tag : t -> string -> string
(** MAC under a device-internal key (fastest deferred mode, §4.3). Only
    this device can verify. *)

val hmac_verify : t -> msg:string -> tag:string -> bool

val hash : t -> string -> string
(** SHA-256 computed inside the device (charged at SCPU hash rates). *)

(** {2 Ledger} *)

val charge_dma : t -> bytes:int -> unit

val charge_rsa_verify : t -> bits:int -> unit
(** Charge an on-device signature verification (firmware re-checking its
    own witnesses before honoring a deletion or strengthening request). *)

val charge_hash_only : t -> bytes:int -> unit
(** Charge one on-device hash pass over [bytes] without computing it
    (the firmware hashes with its own incremental constructions). *)

val busy_ns : t -> int64
val reset_busy : t -> unit
val stats : t -> stats

(** {2 Tamper response} *)

val tamper_respond : t -> unit
(** Physical intrusion detected: destroy all internal state. *)

val is_zeroized : t -> bool
