(** Arbitrary-precision natural numbers.

    Pure OCaml: little-endian arrays of 27-bit limbs. Values are
    canonical (no leading zero limbs), so structural equality of the
    underlying representation coincides with numeric equality.

    This is the bignum substrate for the RSA implementation — the sealed
    build environment ships no zarith, so the reproduction carries its
    own. Performance targets the paper's key sizes (512–2048 bits):
    schoolbook multiplication and product-scanning Montgomery
    exponentiation. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int : t -> int
(** @raise Invalid_argument if the value exceeds [max_int]. *)

val to_int_opt : t -> int option

val is_zero : t -> bool
val is_one : t -> bool
val is_even : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val add : t -> t -> t
val succ : t -> t

val sub : t -> t -> t
(** Truncated subtraction. @raise Invalid_argument if the result would
    be negative. *)

val pred : t -> t
(** @raise Invalid_argument on zero. *)

val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)]. @raise Division_by_zero. *)

val modulo : t -> t -> t

val bit_length : t -> int
(** Number of significant bits; [bit_length zero = 0]. *)

val test_bit : t -> int -> bool
val shift_left : t -> int -> t
val shift_right : t -> int -> t

val rem_int : t -> int -> int
(** [rem_int a d] is [a mod d] for a machine-word divisor, in one pass
    over the limbs with no allocation (the prime search's trial
    division). @raise Invalid_argument unless [0 < d <= 2^32]. *)

val gcd : t -> t -> t

val mod_inverse : t -> t -> t option
(** [mod_inverse a m] is [Some x] with [a * x = 1 (mod m)] when
    [gcd a m = 1], otherwise [None]. *)

type mont
(** Precomputed Montgomery context for a fixed odd modulus: the limb
    inverse, [R mod m], [R^2 mod m], and a scratch buffer for the
    reduction digits of the product-scanning multiply.
    Building one costs a short division ([R mod m]) and a dozen or so
    Montgomery multiplies ([R^2 mod m]); cache it per key and pass it to
    {!mod_pow_ctx} to keep that cost off the signing hot path. The
    kernel is correct for odd moduli of any width. A context's scratch
    is reused across calls, so a single context must not be used from
    two concurrent operations (fine single-threaded). *)

val mont_init : t -> mont
(** @raise Invalid_argument if the modulus is zero or even. *)

val mont_clone : mont -> mont
(** A context over the same modulus sharing the precomputed constants
    but carrying a fresh scratch buffer. Cloning is one small
    allocation, against the setup {!mont_init} pays — so a
    cache can hold one master context per modulus and hand each domain
    its own clone, keeping contexts single-threaded without re-running
    the setup. *)

val mont_modulus : mont -> t

val mod_pow : base:t -> exp:t -> modulus:t -> t
(** Modular exponentiation. Uses Montgomery reduction for odd moduli and
    a generic square-and-multiply fallback otherwise. Builds a fresh
    Montgomery context per call — for repeated exponentiations under one
    modulus, build the context once and use {!mod_pow_ctx}.
    @raise Division_by_zero on a zero modulus. *)

val mod_pow_ctx : mont -> base:t -> exp:t -> t
(** [mod_pow_ctx ctx ~base ~exp] is [base^exp mod (mont_modulus ctx)]
    through the product-scanning Montgomery kernel, with no per-call
    setup — the signing hot path for cached per-key contexts. Bases of
    up to twice the modulus width (a CRT half's input) enter the
    Montgomery domain without a long division. *)

val mod_mul : mont -> t -> t -> t
(** [mod_mul ctx a b] is [a * b mod (mont_modulus ctx)] in two
    Montgomery multiplies, with no long division for operands of up to
    the modulus width ([a] up to twice it). *)

val mod_pow_generic : base:t -> exp:t -> modulus:t -> t
(** Reference square-and-multiply implementation (no Montgomery forms,
    any modulus). Slow; exposed as the cross-check oracle for the
    Montgomery kernel. *)

val of_bytes_be : string -> t
(** Big-endian bytes to natural. The empty string is zero. *)

val to_bytes_be : t -> string
(** Minimal big-endian encoding; zero encodes as the empty string. *)

val to_bytes_be_padded : len:int -> t -> string
(** Fixed-width big-endian encoding, zero-padded on the left.
    @raise Invalid_argument if the value needs more than [len] bytes. *)

val of_decimal : string -> t
(** @raise Invalid_argument on empty or non-digit input. *)

val to_decimal : t -> string
