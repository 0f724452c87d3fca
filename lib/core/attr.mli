(** WORM attributes (the [attr] field of a VRD, Table 1).

    Carries creation time, retention policy, shredding parameters (via
    {!Policy.t}), litigation-hold state, and the paper's miscellaneous
    descriptor flags (f_flag, MAC/DAC labels). The canonical encoding of
    this structure is what metasig signs, so any field change requires a
    fresh SCPU witness. *)

type hold = {
  lit_id : string;  (** court/litigation identifier *)
  authority : string;  (** issuing authority's certificate subject *)
  credential : string;  (** S_reg(SN, timestamp, lit_id) — the paper's C *)
  held_at : int64;
  timeout : int64;  (** absolute time at which the hold lapses on its own *)
}

type t = {
  created_at : int64;
  policy : Policy.t;
  litigation : hold option;
  f_flag : bool;
  mac_label : string;
  dac_label : string;
  tenant : string;
      (** data-subject / tenant identifier; [""] means untenanted. A
          non-empty tenant routes the record's payload through the
          SCPU's per-tenant key hierarchy, making it crypto-erasable
          in O(1) ({!Firmware.erase_tenant}). Part of the canonical
          encoding, so metasig binds the record to its tenant. *)
}

val make :
  ?f_flag:bool ->
  ?mac_label:string ->
  ?dac_label:string ->
  ?tenant:string ->
  created_at:int64 ->
  policy:Policy.t ->
  unit ->
  t

val expiry : t -> int64
(** [created_at + retention]: first instant the record may be deleted,
    litigation permitting. *)

val is_expired : t -> now:int64 -> bool
(** [now] is strictly after {!expiry}; the Retention Monitor's schedule
    ({!Vexp.pop_due}) uses the same boundary. *)

val on_hold : t -> now:int64 -> bool
(** A hold blocks deletion until released or its timeout passes. *)

val deletable : t -> now:int64 -> bool
(** Expired and not on hold. *)

val with_hold : t -> hold -> t
val without_hold : t -> t

val encode : Worm_util.Codec.encoder -> t -> unit

val encoded_size : t -> int
(** Byte length of [encode]'s output, computed without encoding. *)

val decode : Worm_util.Codec.decoder -> t
val to_bytes : t -> string
(** Canonical encoding (the signing input). *)

val equal : t -> t -> bool
