(** Server side of the WORM protocol: an honest request dispatcher over
    a local {!Worm_core.Worm} store. Honesty is merely a default — the
    security argument never relies on it, and the tests swap in
    dishonest dispatchers freely. *)

type t

type limits = {
  max_read_many : int;  (** largest SN list a {!Message.Read_many} may carry *)
  max_audit_slice : int;  (** server-side clamp on {!Message.Audit_slice} [max] *)
}
(** Per-request work caps. Without them a single adversarial frame
    (millions of SNs in one [Read_many], [max_int] in an [Audit_slice])
    monopolizes the dispatcher — fatal under the single-threaded event
    server, where every other client queues behind it. *)

val default_limits : limits
(** 256 SNs per [Read_many], 1024 per audit slice. *)

val create : ?limits:limits -> Worm_core.Worm.t -> t
val store : t -> Worm_core.Worm.t
val limits : t -> limits

val refresh : t -> unit
(** Heal bound-cache staleness eagerly: re-sign the base bound if the
    base moved or the bound expired, and the current bound by
    {!Worm_core.Worm.refresh_current_bound} (the SCPU counter moved past
    the cached bound, or it is older than the heartbeat interval).
    Convergent — a second call at the same store state does nothing.
    The serve path does not call this: it uses {!refresh_for}, which
    signs [SN_current] only when the reply carries it. *)

val refresh_for : t -> Message.request -> unit
(** The request-scoped refresh that {!handle_bytes} and the event
    server run before dispatch, and the only place the serve path
    spends SCPU signatures. The base bound is healed as in {!refresh};
    the current bound is refreshed only when the reply will carry it —
    an [Audit_slice], or a [Read]/[Read_many] of a serial above the
    SCPU counter (answered [Proof_unallocated]). Reading a record
    written since the last bound signs nothing. An over-limit
    [Read_many] is not scanned: {!handle} refuses it before any per-SN
    work. *)

val handle : t -> Message.request -> Message.response
(** Dispatch one request. For the read/audit vocabulary this is a pure
    function of the request and store state — it reads bounds through
    {!Worm_core.Worm.peek_base_bound} / [peek_current_bound] (or a read
    whose bound {!refresh_for} has just healed) and never signs, so
    replaying a request re-serves identical bytes. [Write] is the one
    mutating request: each dispatch allocates a fresh serial. *)

val handle_bytes : t -> string -> string
(** Decode, {!refresh_for}, dispatch, encode; malformed requests produce
    an encoded [Protocol_error], and so does a dispatch (or refresh)
    that raises — adversarial bytes never crash the server. For
    non-[Write] requests a byte-for-byte replay re-serves the identical
    reply, so a duplicating transport is harmless. *)

val encode_response : t -> Message.response -> string
(** Encode through this server's encode-once memo: epoch-stable
    artifacts (hello ack, base/current bounds, window bounds, deletion
    proofs) are encoded the first time they are served and spliced as
    cached fragments after that. Entries are keyed by physical equality
    on the record the store hands out, so a refresh that re-signs a
    bound (a fresh record) misses the cache automatically — the memo can
    never serve a stale artifact. Bytes are identical to
    {!Message.encode_response}. *)

val response_wire_length : t -> Message.response -> int
(** Wire length of {!encode_response} without materialising the string
    (the event server charges the network by length only). Populates
    the same memo. *)

type memo_stats = { memo_hits : int; memo_misses : int }

val global_memo_stats : unit -> memo_stats
(** Aggregate encode-memo counters across all server instances since
    program start (surfaced by [wormctl stats] and the wire bench). *)

(** {2 Memo plumbing for other front ends}

    The cluster server reuses the read-response memo (one shared
    instance across its shards — physical keys never collide between
    stores) and reports its own proof/hello cache traffic through the
    same counters. *)

type read_memo

val read_memo : unit -> read_memo
val memo_read_response : read_memo -> Worm_util.Codec.encoder -> Worm_core.Proof.read_response -> unit
val note_memo_hit : unit -> unit
val note_memo_miss : unit -> unit
