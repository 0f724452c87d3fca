(** Virtual network accounting for the WORM protocol.

    §3 dismisses third-party audit services partly for "network-limited
    bandwidth and high latency"; this wrapper makes those costs
    measurable for our SCPU-rooted alternative. It wraps a transport and
    charges one round-trip plus size/bandwidth per exchange into a
    virtual ledger (no wall-clock sleeping), so experiments can compare
    e.g. per-record reads against batched {!Remote_client.audit_sweep}. *)

type t

val create : ?rtt_ns:int64 -> ?bandwidth_bytes_per_sec:float -> unit -> t
(** Defaults: 1 ms RTT, 1 Gbit/s. *)

val wrap : t -> (string -> string) -> string -> string
(** [wrap t transport] behaves as [transport] while accounting each
    exchange. If the wrapped transport raises, the request bytes and
    one RTT are still charged (the request crossed the wire and the
    caller waited for a reply that never came) before the exception is
    re-raised. *)

val transfer_ns : t -> bytes:int -> int64
(** Wire time of [bytes] at the configured bandwidth, rounded to the
    nearest nanosecond (never truncated toward zero: small frames must
    not bill 0 ns). *)

val one_way_ns : t -> bytes:int -> int64
(** Half an RTT plus {!transfer_ns}: the per-direction delivery latency
    an event-driven server charges each client individually. *)

val note_exchange : t -> bytes:int -> wait_ns:int64 -> unit
(** Account one request/response exchange whose wait was computed by the
    caller (e.g. the event server, which knows per-client queueing):
    counts a request, [bytes] on the wire, and [wait_ns] elapsed.
    @raise Invalid_argument on a negative wait. *)

val charge_ns : t -> int64 -> unit
(** Bill extra virtual wait — retry backoff, injected latency — into
    the ledger without counting a request or bytes.
    @raise Invalid_argument on a negative amount. *)

val requests : t -> int
val bytes_transferred : t -> int
val elapsed_ns : t -> int64
(** Accumulated virtual wire time: requests x RTT + bytes / bandwidth. *)
