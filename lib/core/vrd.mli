(** Virtual Record Descriptors (Table 1).

    A VRD binds a serial number to the WORM attributes and the physical
    record descriptor list (RDL) of one virtual record, authenticated by
    two SCPU witnesses: [metasig] over (SN, attr) and [datasig] over
    (SN, Hash(data)). VRDs live in the VRDT on untrusted storage — their
    integrity comes entirely from the witnesses. *)

type rd = Worm_simdisk.Disk.addr
(** Physical data record descriptor. In a file-system deployment these
    would be inodes; here they address the disk model. *)

type t = {
  sn : Serial.t;
  attr : Attr.t;
  rdl : rd list;  (** the VR's physical records, in chain-hash order *)
  data_hash : string;  (** chained hash over the data blocks (cached) *)
  metasig : Witness.t;
  datasig : Witness.t;
}

val weakest_strength : t -> Witness.strength
(** The weaker of the two witnesses — what the deferred-strengthening
    queue keys on. *)

val encode : Worm_util.Codec.encoder -> t -> unit
val decode : Worm_util.Codec.decoder -> t
val to_bytes : t -> string

val encoded_size : t -> int
(** [String.length (to_bytes t)] computed arithmetically — the VRDT's
    table sizing goes through this instead of serializing every entry. *)

val of_bytes : string -> (t, string) result
