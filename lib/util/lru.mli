(** Bounded key-value map with least-recently-used eviction.

    Backs the client's verified-signature memo: epoch-stable signatures
    (current bound, base bound, deletion windows, per-SN deletion
    proofs) are verified once and remembered, so a read-heavy client
    pays the public-key cost once per epoch instead of once per read.

    A capacity of 0 is legal and makes {!put} a no-op — the natural
    spelling of "cache disabled". Eviction is an O(capacity) scan,
    deliberate at the small capacities used here (see the .ml note).

    Not domain-safe; callers sharing an Lru across domains must guard
    it with their own mutex. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** @raise Invalid_argument on a negative capacity. *)

val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Refreshes the entry's recency on hit. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Does not refresh recency. *)

val put : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace, evicting the least-recently-used entry when at
    capacity. No-op when capacity is 0. *)

val remove : ('k, 'v) t -> 'k -> unit
val clear : ('k, 'v) t -> unit
