(** HMAC (RFC 2104) over SHA-256 and SHA-1.

    HMACs back the paper's fastest deferred-witnessing mode (§4.3): during
    bursts the SCPU MACs records with an internal key instead of signing,
    then upgrades to real signatures during idle periods.

    The implementation is streaming: the inner and outer key pads are
    precomputed and fed through the hash contexts directly, so MACing
    never concatenates pad + message into a fresh string. *)

val sha256 : key:string -> string -> string
(** HMAC-SHA-256; 32-byte output. *)

val sha256_parts : key:string -> string list -> string
val sha256_sub : key:string -> string -> pos:int -> len:int -> string

val sha1 : key:string -> string -> string
(** HMAC-SHA-1; 20-byte output. *)

val verify_sha256 : key:string -> msg:string -> mac:string -> bool
(** Timing-safe comparison against a freshly computed MAC. *)
