(** Optical-disc WORM baseline (§3).

    Write-once {e physically}: marks burned into the medium cannot be
    unburned, which gives genuine immutability per disc — and exactly
    the drawbacks the paper lists: retention periods are fixed by the
    medium ("unsuited for scenarios with variable retention periods"),
    secure deletion of an individual record is impossible short of
    destroying the whole disc, and nothing authenticates which disc is
    in the drive, so "simple data replication attacks" — burning a
    doctored replacement disc — go undetected.

    The test suite demonstrates each limitation next to the Strong WORM
    behavior that fixes it. *)

type t
(** A jukebox of burn-once discs. *)

type disc_id = int
type slot = int

val create : ?disc_capacity:int -> unit -> t
(** [disc_capacity] records per disc (default 8). *)

val burn : t -> string -> disc_id * slot
(** Append a record to the current disc, opening a new disc when full.
    Burned marks are permanent. *)

val read : t -> disc_id * slot -> string option

val try_overwrite : t -> disc_id * slot -> string -> (unit, string) result
(** Always fails: the physics refuse. This is the medium's one real
    guarantee. *)

val try_erase_record : t -> disc_id * slot -> (unit, string) result
(** Always fails: no per-record secure deletion on a burned disc. *)

val destroy_disc : t -> disc_id -> int
(** Physical destruction of a whole disc — the only deletion granularity
    available. Returns how many records (expired or not) were lost with
    it. *)

val disc_count : t -> int

val swap_disc : t -> disc_id -> string list -> bool
(** The replication attack: replace a disc with a freshly burned one
    carrying attacker-chosen contents. Succeeds whenever the record
    count matches what a casual inventory would check — nothing
    cryptographic ties discs to the archive. *)
