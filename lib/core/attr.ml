module Codec = Worm_util.Codec
module Clock = Worm_simclock.Clock

type hold = { lit_id : string; authority : string; credential : string; held_at : int64; timeout : int64 }

type t = {
  created_at : int64;
  policy : Policy.t;
  litigation : hold option;
  f_flag : bool;
  mac_label : string;
  dac_label : string;
  tenant : string;  (* "" = no tenant; otherwise keyed into the SCPU's per-tenant key hierarchy *)
}

let make ?(f_flag = false) ?(mac_label = "") ?(dac_label = "") ?(tenant = "") ~created_at ~policy () =
  { created_at; policy; litigation = None; f_flag; mac_label; dac_label; tenant }

let expiry t = Int64.add t.created_at t.policy.Policy.retention_ns
let is_expired t ~now = Int64.compare now (expiry t) > 0

let on_hold t ~now =
  match t.litigation with
  | None -> false
  | Some hold -> Int64.compare now hold.timeout <= 0

let deletable t ~now = is_expired t ~now && not (on_hold t ~now)
let with_hold t hold = { t with litigation = Some hold }
let without_hold t = { t with litigation = None }

let encode_hold enc hold =
  Codec.bytes enc hold.lit_id;
  Codec.bytes enc hold.authority;
  Codec.bytes enc hold.credential;
  Codec.u64 enc hold.held_at;
  Codec.u64 enc hold.timeout

let decode_hold dec =
  let lit_id = Codec.read_bytes dec in
  let authority = Codec.read_bytes dec in
  let credential = Codec.read_bytes dec in
  let held_at = Codec.read_u64 dec in
  let timeout = Codec.read_u64 dec in
  { lit_id; authority; credential; held_at; timeout }

let encode enc t =
  Codec.u64 enc t.created_at;
  Policy.encode enc t.policy;
  Codec.option encode_hold enc t.litigation;
  Codec.bool enc t.f_flag;
  Codec.bytes enc t.mac_label;
  Codec.bytes enc t.dac_label;
  Codec.bytes enc t.tenant

(* Must track [encode] exactly; checked by a property test. *)
let encoded_size t =
  let hold_size =
    match t.litigation with
    | None -> 1
    | Some h ->
        1 + (4 + String.length h.lit_id) + (4 + String.length h.authority)
        + (4 + String.length h.credential) + 8 + 8
  in
  8 + Policy.encoded_size t.policy + hold_size + 1 + (4 + String.length t.mac_label)
  + (4 + String.length t.dac_label) + (4 + String.length t.tenant)

let decode dec =
  let created_at = Codec.read_u64 dec in
  let policy = Policy.decode dec in
  let litigation = Codec.read_option decode_hold dec in
  let f_flag = Codec.read_bool dec in
  let mac_label = Codec.read_bytes dec in
  let dac_label = Codec.read_bytes dec in
  let tenant = Codec.read_bytes dec in
  { created_at; policy; litigation; f_flag; mac_label; dac_label; tenant }

let to_bytes t = Codec.encode encode t
let equal a b = a = b
