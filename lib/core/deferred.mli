(** Deferred-strengthening queue (§4.3).

    Records witnessed with short-lived constructs during a burst must be
    re-signed with the strong key {e within the security lifetime} of
    the weak construct. The host keeps this deadline-ordered queue and
    drains it during idle periods; the simulator asserts that no entry
    is ever strengthened past its deadline. *)

type entry = { sn : Serial.t; deadline : int64 }

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val push : t -> sn:Serial.t -> deadline:int64 -> unit
(** Re-pushing an SN replaces its deadline. *)

val remove : t -> Serial.t -> bool

val peek : t -> entry option
(** Earliest deadline. *)

val take_batch : t -> max:int -> entry list
(** Remove and return up to [max] entries, earliest deadline first. *)

val take_until : t -> deadline:int64 -> max:int -> entry list
(** Like {!take_batch}, but stops at the first entry whose deadline is
    after [deadline] — sizes a repayment batch to the urgency horizon
    without dequeuing work that can still wait. *)

val overdue : t -> now:int64 -> entry list
(** Entries whose deadline has already passed (a protocol failure if
    non-empty — they can no longer be safely strengthened). Does not
    remove them. *)

val to_list : t -> entry list
