module Codec = Worm_util.Codec

type role = Scpu_signing | Scpu_deletion | Scpu_short_term | Regulation_authority

let role_tag = function
  | Scpu_signing -> 0
  | Scpu_deletion -> 1
  | Scpu_short_term -> 2
  | Regulation_authority -> 3

let role_of_tag = function
  | 0 -> Scpu_signing
  | 1 -> Scpu_deletion
  | 2 -> Scpu_short_term
  | 3 -> Regulation_authority
  | n -> raise (Codec.Malformed (Printf.sprintf "bad cert role %d" n))

type t = {
  subject : string;
  role : role;
  key : Rsa.public;
  not_before : int64;
  not_after : int64;
  signature : string;
}

let encode_body enc (subject, role, key, not_before, not_after) =
  Codec.bytes enc subject;
  Codec.u8 enc (role_tag role);
  Rsa.encode_public enc key;
  Codec.u64 enc not_before;
  Codec.u64 enc not_after

let body_bytes t = Codec.encode encode_body (t.subject, t.role, t.key, t.not_before, t.not_after)

let issue ~ca ~subject ~role ~key ~not_before ~not_after =
  let unsigned = { subject; role; key; not_before; not_after; signature = "" } in
  { unsigned with signature = Rsa.sign ca (body_bytes unsigned) }

let valid_at ~now t = Int64.compare t.not_before now <= 0 && Int64.compare now t.not_after <= 0
let verify ~ca ~now t = valid_at ~now t && Rsa.verify ca ~msg:(body_bytes t) ~signature:t.signature

let encode enc t =
  encode_body enc (t.subject, t.role, t.key, t.not_before, t.not_after);
  Codec.bytes enc t.signature

(* Must track [encode] exactly; checked by a property test. *)
let encoded_size t =
  4 + String.length t.subject + 1 + Rsa.public_encoded_size t.key + 8 + 8
  + (4 + String.length t.signature)

let decode dec =
  let subject = Codec.read_bytes dec in
  let role = role_of_tag (Codec.read_u8 dec) in
  let key = Rsa.decode_public dec in
  let not_before = Codec.read_u64 dec in
  let not_after = Codec.read_u64 dec in
  let signature = Codec.read_bytes dec in
  { subject; role; key; not_before; not_after; signature }
