module Codec = Worm_util.Codec
module Cert = Worm_crypto.Cert

type t = Strong of string | Weak of { cert : Cert.t; signature : string } | Mac of string

type strength = [ `Strong | `Weak | `Mac ]

let strength = function
  | Strong _ -> `Strong
  | Weak _ -> `Weak
  | Mac _ -> `Mac

let strength_name = function
  | `Strong -> "strong"
  | `Weak -> "weak"
  | `Mac -> "mac"

let verifiable_by_client = function
  | Strong _ | Weak _ -> true
  | Mac _ -> false

let encode enc = function
  | Strong s ->
      Codec.u8 enc 0;
      Codec.bytes enc s
  | Weak { cert; signature } ->
      Codec.u8 enc 1;
      Cert.encode enc cert;
      Codec.bytes enc signature
  | Mac tag ->
      Codec.u8 enc 2;
      Codec.bytes enc tag

(* Must track [encode] exactly; checked by a property test. *)
let encoded_size = function
  | Strong s -> 1 + 4 + String.length s
  | Weak { cert; signature } -> 1 + Cert.encoded_size cert + 4 + String.length signature
  | Mac tag -> 1 + 4 + String.length tag

let decode dec =
  match Codec.read_u8 dec with
  | 0 -> Strong (Codec.read_bytes dec)
  | 1 ->
      let cert = Cert.decode dec in
      let signature = Codec.read_bytes dec in
      Weak { cert; signature }
  | 2 -> Mac (Codec.read_bytes dec)
  | n -> raise (Codec.Malformed (Printf.sprintf "bad witness tag %d" n))
