(** Soft-WORM baseline: software-enforced write-once semantics.

    Models the first-generation products of §3 (EMC Centera Compliance
    Edition class): rewritable disks with WORM semantics enforced by a
    software switch, integrity "protected" by checksums stored at
    locations logically unaddressable from user-land — but physically
    addressable by any insider with a screwdriver.

    The API honestly refuses premature deletes and detects casual
    corruption; the {!Raw} interface shows why that is worthless under
    the paper's threat model: a super-user rewrites both the data and
    the checksum, and every check still passes. The attack test-suite
    runs the same attacks against this store and Strong WORM, asserting
    success here and detection there. *)

type t

type record_id = int

val create : ?disk:Worm_simdisk.Disk.t -> clock:Worm_simclock.Clock.t -> unit -> t

val write : t -> policy:Worm_core.Policy.t -> blocks:string list -> record_id

type read_result =
  | Ok_data of string list  (** checksum verified *)
  | Checksum_mismatch
  | Deleted
  | Never_written

val read : t -> record_id -> read_result

val delete : t -> record_id -> (unit, string) result
(** The software switch: refuses while retention lasts. *)

(** The insider, again with full physical access. *)
module Raw : sig
  val tamper_and_fix_checksum : t -> record_id -> string list -> bool
  (** Replace a record's content and recompute its checksum — the attack
      §3 says "is bound to fail" to be prevented by checksum hiding.
      Subsequent {!read}s return [Ok_data] with the forged content. *)

  val hide : t -> record_id -> bool
  (** Remove all trace of the record; {!read} reports [Never_written]. *)

  val force_delete : t -> record_id -> bool
  (** Bypass the retention check entirely. *)
end
