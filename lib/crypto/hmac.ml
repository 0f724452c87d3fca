module type HASH = sig
  type ctx

  val block_size : int
  val init : unit -> ctx
  val feed : ctx -> string -> unit
  val feed_sub : ctx -> string -> pos:int -> len:int -> unit
  val get : ctx -> string
  val digest : string -> string
end

module Make (H : HASH) = struct
  let xor_pad key pad =
    let b = Bytes.make H.block_size pad in
    String.iteri (fun i c -> Bytes.set b i (Char.chr (Char.code c lxor Char.code pad))) key;
    Bytes.unsafe_to_string b

  (* Precomputed inner/outer pads: deriving them once per MAC (or once
     per key, for callers that reuse one) replaces the [ipad ^ msg] and
     [opad ^ inner] copies of the old implementation with streaming
     feeds. *)
  type key = { ipad : string; opad : string }

  let derive key =
    let key = if String.length key > H.block_size then H.digest key else key in
    { ipad = xor_pad key '\x36'; opad = xor_pad key '\x5c' }

  let finish k inner_ctx =
    let inner = H.get inner_ctx in
    let ctx = H.init () in
    H.feed ctx k.opad;
    H.feed ctx inner;
    H.get ctx

  let start k =
    let ctx = H.init () in
    H.feed ctx k.ipad;
    ctx

  let mac_parts ~key parts =
    let k = derive key in
    let ctx = start k in
    List.iter (H.feed ctx) parts;
    finish k ctx

  let mac ~key msg = mac_parts ~key [ msg ]

  let mac_sub ~key s ~pos ~len =
    let k = derive key in
    let ctx = start k in
    H.feed_sub ctx s ~pos ~len;
    finish k ctx
end

module Hmac_sha256 = Make (Sha256)
module Hmac_sha1 = Make (Sha1)

let sha256 = Hmac_sha256.mac
let sha256_parts = Hmac_sha256.mac_parts
let sha256_sub = Hmac_sha256.mac_sub
let sha1 = Hmac_sha1.mac
let verify_sha256 ~key ~msg ~mac = Worm_util.Ct.equal (sha256 ~key msg) mac
