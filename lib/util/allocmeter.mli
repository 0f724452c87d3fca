(** Minor-heap allocation metering.

    [Gc.minor_words] counts every word ever allocated on the minor heap
    (promotion does not subtract), so deltas of it measure allocation
    pressure — the thing that actually costs time on a hot serving path —
    independently of when collections happen. Readings are per-domain;
    take deltas on the domain doing the work. *)

val minor_words : unit -> float
(** Words allocated on this domain's minor heap since program start. *)

val per_op : ops:int -> (unit -> unit) -> float
(** [per_op ~ops f] runs [f] [ops] times and returns the mean minor
    words allocated per call. @raise Invalid_argument if [ops <= 0]. *)
