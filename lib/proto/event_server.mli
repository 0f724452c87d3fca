(** Event-driven, virtual-time WORM server: thousands of simulated
    concurrent clients multiplexed over one {!Worm_core.Worm} store.

    The paper sizes the SCPU for bursts of 2000–2500 records/s arriving
    from {e many} writers at once; a request/response loop that signs
    per connection never reaches that regime. This server runs a single
    deterministic event loop over virtual time instead:

    - {b reads and audits} are dispatched immediately (through
      {!Server.refresh_for} and the pure {!Server.handle}) and
      interleave freely between write flushes; [SN_current] is re-signed
      only when the reply carries it (an audit slice, a read above the
      SCPU counter);
    - {b writes} are admitted into an open batch and witnessed when the
      batch fills or its virtual deadline lapses — one
      {!Worm_core.Firmware.write_batch} signing flush covers every
      connection's queued writes, so cross-client coalescing shows up
      directly as fewer {!Worm_scpu.Device.stats} [sign_calls]. A flush
      signs only its witnesses (two strong signatures per [Strong_now]
      write) and no bound;
    - {b backpressure} is tied to the deferred-strengthening debt
      ledger: past [debt_ceiling] the server sheds writes with
      {!Message.Busy} and spends the slot strengthening a chunk of the
      backlog, so shedding itself drains the debt that caused it.

    Time is fully virtual: the dispatcher is a serial resource busy for
    the SCPU + host + disk ledger deltas of each operation, and each
    client individually pays its {!Netsim.one_way_ns} delivery latency.
    Everything is deterministic — same submissions, same completions. *)

open Worm_core

type witness_policy =
  | Fixed of Firmware.witness_mode
  | Adaptive of Adaptive.t
      (** consult {!Worm_core.Adaptive.recommend} at every flush (and
          feed it each write arrival) — the §4.3 burst behavior *)

type config = {
  batch_size : int;  (** flush when this many writes are queued *)
  debt_ceiling : int;  (** shed writes past this deferred-ledger depth *)
  max_attempts : int;  (** resends before a client gives up *)
  witness : witness_policy;
}

val default_config : config
(** 32-write batches, 4096 debt ceiling, 5 attempts, fixed [Strong_now]
    witnesses.

    Fixed for every loop: a batch that has not filled is flushed 2 ms
    after it opened; a shed slot repays 32 deferred strengthenings; a
    {!Message.Busy} reply tells the client to retry after 5 ms; and a
    client resends a lost frame after 1 ms times the attempt number. *)

type outcome =
  | Replied of Message.response
  | Gave_up  (** every attempt was lost in flight *)

type completion = {
  client : int;
  submitted_ns : int64;  (** client's original send time *)
  delivered_ns : int64;  (** reply (or surrender) back at the client *)
  attempts : int;
  outcome : outcome;
}

type stats = {
  flushes : int;  (** write batches signed *)
  batched_writes : int;  (** writes witnessed through those flushes *)
  shed : int;  (** writes answered Busy under debt pressure *)
  gave_up : int;
  strengthened : int;  (** deferred witnesses repaid by shed slots *)
}

type t

val create : ?config:config -> ?ingress:(string -> string) -> clock:Worm_simclock.Clock.t -> net:Netsim.t -> Server.t -> t
(** [ingress] filters each arriving frame (e.g. {!Faulty.wrap}-style
    fault injection over the identity transport): raising or returning
    bytes that no longer decode counts as a frame lost in flight — the
    client backs off and resends, up to [max_attempts]. *)

val submit : t -> client:int -> at:int64 -> ?on_reply:(completion -> unit) -> Message.request -> unit
(** Queue a request sent by [client] at virtual time [at]; it reaches
    the server one {!Netsim.one_way_ns} later. [on_reply] runs at
    delivery and may {!submit} follow-ups (read-after-write chains). *)

val run : t -> unit
(** Drain the event queue to empty (including retries and follow-ups),
    advancing the shared clock monotonically. *)

val stats : t -> stats

val completions : t -> completion list
(** Every finished request, in completion order. *)

val wire_minor_words : t -> float
(** Minor-heap words this loop's wire path has allocated so far:
    request encode at {!submit}, frame filter + decode at arrival, and
    response encode/framing at delivery — none of the store dispatch
    (signing, hashing, disk) and none of the [on_reply] callbacks.
    Divided by completions, this is the allocation column the serve and
    scaling bench rows report. *)
