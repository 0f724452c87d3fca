module Codec = Worm_util.Codec

type rd = Worm_simdisk.Disk.addr

type t = {
  sn : Serial.t;
  attr : Attr.t;
  rdl : rd list;
  data_hash : string;
  metasig : Witness.t;
  datasig : Witness.t;
}

let rank = function
  | `Strong -> 2
  | `Weak -> 1
  | `Mac -> 0

let weakest_strength t =
  let m = Witness.strength t.metasig and d = Witness.strength t.datasig in
  if rank m <= rank d then m else d

let encode enc t =
  Serial.encode enc t.sn;
  Attr.encode enc t.attr;
  Codec.list (fun enc rd -> Codec.int_as_u64 enc rd) enc t.rdl;
  Codec.bytes enc t.data_hash;
  Witness.encode enc t.metasig;
  Witness.encode enc t.datasig

let decode dec =
  let sn = Serial.decode dec in
  let attr = Attr.decode dec in
  let rdl = Codec.read_list Codec.read_int_as_u64 dec in
  let data_hash = Codec.read_bytes dec in
  let metasig = Witness.decode dec in
  let datasig = Witness.decode dec in
  { sn; attr; rdl; data_hash; metasig; datasig }

let to_bytes t = Codec.encode encode t
let of_bytes s = Codec.decode decode s

(* Byte length of [to_bytes t] without materializing the encoding —
   the VRDT sizes its whole table through this on every metrics
   snapshot, where serializing each entry just to measure it made
   [approx_bytes] the table's own hot spot. *)
let encoded_size t =
  Serial.encoded_size + Attr.encoded_size t.attr
  + (4 + (8 * List.length t.rdl))
  + (4 + String.length t.data_hash)
  + Witness.encoded_size t.metasig + Witness.encoded_size t.datasig
