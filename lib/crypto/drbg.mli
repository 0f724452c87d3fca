(** Deterministic random bit generator: HMAC-DRBG with SHA-256
    (NIST SP 800-90A construction).

    The whole reproduction draws randomness from seeded DRBG instances so
    that every simulation, test, and benchmark run is reproducible. In
    the deployed system this is the SCPU's hardware RNG (CCA service);
    determinism here substitutes for it without changing any code path. *)

type t

val create : seed:string -> t
(** Instantiate from arbitrary seed bytes (personalization included). *)

val generate : t -> int -> string
(** [generate t n] returns [n] fresh pseudorandom bytes. *)

val byte : t -> int
(** One byte as [0, 255]. *)

val int_below : t -> int -> int
(** Uniform in [\[0, bound)] by rejection sampling.
    @raise Invalid_argument if [bound <= 0]. *)

val nat_bits : t -> int -> Nat.t
(** Uniform natural of at most [bits] bits (leading bits may be zero). *)

val nat_below : t -> Nat.t -> Nat.t
(** Uniform natural in [\[0, bound)] by rejection sampling.
    @raise Invalid_argument on a zero bound. *)

val split : t -> label:string -> t
(** Derive an independent child generator; used to give each simulation
    component its own stream without cross-contamination. *)
