(** VEXP: the Retention Monitor's expiration schedule (§4.2.2).

    A list of serial numbers sorted on expiration time, held in the
    SCPU's {e bounded} secure storage. The RM daemon sleeps until the
    earliest entry falls due. When secure space runs out the latest
    expirations are shed — they are re-fed by a VRDT scan during idle
    periods (the paper's "updated during light load periods"), so
    timeliness of the {e soonest} deletions is never compromised. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity <= 0]. *)

val length : t -> int
val is_full : t -> bool

type insert_result =
  | Inserted
  | Inserted_evicting of int64 * Serial.t
      (** accepted; the given later-expiring entry was shed to make room
          and must be re-fed later *)
  | Rejected_full  (** full, and this entry expires later than all held *)

val insert : t -> expiry:int64 -> Serial.t -> insert_result
(** Duplicate SNs replace the previous schedule entry. *)

val remove : t -> Serial.t -> bool
(** E.g. when a litigation hold suspends a deletion. *)

val mem : t -> Serial.t -> bool

val next_due : t -> (int64 * Serial.t) option
(** Earliest scheduled expiration. The entry becomes due one instant
    later (see {!pop_due}). *)

val pop_due : t -> now:int64 -> (int64 * Serial.t) list
(** Remove and return all entries with [expiry < now], earliest first:
    a record is deletable strictly after its expiry
    ({!Attr.is_expired}), so an entry is never popped at an instant the
    firmware would refuse to delete it. *)

val to_list : t -> (int64 * Serial.t) list
(** Ascending by expiry; for inspection and idle-time reconciliation. *)
