open Worm_core

(** Client side of the WORM protocol.

    Connects over an arbitrary byte transport (request bytes in,
    response bytes out — compose a {!Server} with whatever network,
    logging, or adversarial middlebox the scenario needs), fetches and
    CA-validates the store's certificates, and verifies every reply with
    {!Worm_core.Client}. The transport is completely untrusted: byte
    tampering surfaces as a protocol error or a verification violation,
    never as wrong data accepted — and never as an escaped exception. A
    transport may raise, drop, garble, truncate, duplicate, or delay
    (see {!Faulty}); every such misbehavior degrades to a verdict after
    a bounded retry policy has had its chance to ride out the fault. *)

type transport = string -> string

(** How hard to try before a wire failure becomes a verdict. Retry
    waits are virtual: billed to the connection's {!Netsim} (when one
    is attached) and to {!transport_stats.waited_ns}, never slept. *)
type retry = {
  attempts : int;  (** max transport attempts per roundtrip, >= 1 *)
  base_backoff_ns : int64;  (** wait before the first retry *)
  backoff_multiplier : float;  (** exponential growth per further retry *)
  jitter : float;  (** extra wait, uniform in [0, jitter * backoff], decorrelates retry storms *)
  attempt_timeout_ns : int64;  (** virtual wait billed per lost (raised) reply *)
  verify_retries : int;
      (** confirming re-reads of an SN whose verdict is a violation: a
          garbled-but-decodable reply is indistinguishable from a lying
          host, so the accusation is re-derived from fresh roundtrips
          before it is believed. Genuine violations are stable and
          survive; wire damage heals. 0 disables. *)
}

val default_retry : retry
(** 4 attempts, 1 ms base backoff doubling with 25% jitter, 5 ms
    per-attempt timeout, 2 confirming re-reads. *)

val no_retry : retry
(** One attempt, no confirming re-reads: every wire hiccup is
    immediately a verdict (the pre-retry behaviour). *)

type transport_stats = {
  requests : int;  (** logical roundtrips issued *)
  attempts : int;  (** physical transport calls (>= requests) *)
  retries : int;  (** attempts beyond the first per roundtrip *)
  faults : int;  (** transport exceptions caught *)
  decode_failures : int;  (** replies that would not decode *)
  reverifications : int;  (** confirming re-reads of violating verdicts *)
  waited_ns : int64;  (** virtual backoff + timeout wait charged *)
}

type t

val connect :
  ca:Worm_crypto.Rsa.public ->
  clock:Worm_simclock.Clock.t ->
  ?max_bound_age_ns:int64 ->
  ?retry:retry ->
  ?netsim:Netsim.t ->
  transport ->
  (t, string) result
(** Sends [Hello], validates the served certificates against the CA.
    The handshake runs under the same [retry] policy as every later
    roundtrip (default {!default_retry}) and accounts both directions
    of the exchange in {!bytes_sent}/{!bytes_received}. A raising
    transport yields [Error], never an escaped exception. [netsim]
    receives the virtual retry/backoff wait via {!Netsim.charge_ns}. *)

val store_id : t -> string

val transport_stats : t -> transport_stats
(** Cumulative wire observability for this connection: handshake
    included, every retry and fault counted. *)

val read : t -> Serial.t -> Worm_core.Client.verdict
(** One verified remote read. Transport/protocol failures surface as
    [Violation [Absence_unproven]] — an unreachable or garbled server
    proves nothing, exactly like a refusing one — after the retry
    policy's attempts and confirming re-reads are exhausted. *)

val erase_tenant : t -> string -> (Worm_core.Firmware.erasure_cert, string) result
(** Request crypto-erasure of a tenant and verify the served receipt:
    the returned certificate has been checked under the store's
    deletion certificate ({!Worm_core.Client.verify_erasure_cert}) — a
    host claiming erasure without its SCPU's signature is an error, not
    a receipt. Idempotent: re-erasing returns the original
    certificate. *)

val erasure_cert : t -> string -> (Worm_core.Firmware.erasure_cert option, string) result
(** Fetch (and verify) the erasure certificate for a tenant; [Ok None]
    when the tenant has not been erased on this store. *)

val audit_sweep : t -> lo:Serial.t -> hi:Serial.t -> (Serial.t * Worm_core.Client.verdict) list
(** Batched verified reads over an inclusive serial range (the
    federal-investigator workload). Response verification fans out
    across {!Worm_util.Pool.shared} ({!Worm_core.Client.verify_read_many});
    results are identical to the sequential sweep. Reassembly is by hashtable (one pass over the
    reply list); a malicious reply answering the same SN twice is
    flagged rather than first-match-trusted, and violating rows earn a
    confirming re-read before they are reported. *)

type remote_audit = {
  scanned : int;  (** serials verified by an individual proof *)
  skipped_below_base : int64;
      (** serials covered wholesale by the signed base bound (one
          representative probe verifies the whole region) *)
  round_trips : int;  (** logical audit-slice + probe roundtrips *)
  violations : (Serial.t * Client.verdict) list;
      (** every non-clean verdict, including protocol violations and a
          server steering the audit cursor backwards *)
  resume : Serial.t option;
      (** [None]: the SN space was covered. [Some c]: the transport
          gave out mid-sweep after every retry — transient failure, not
          evidence; re-run with [~cursor:c] to continue from the last
          good cursor instead of restarting at [Serial.first]. An audit
          with [resume = Some _] is incomplete and proves nothing about
          the unvisited region. *)
}

val run_remote_audit : ?batch:int -> ?cursor:Serial.t -> t -> remote_audit
(** Full-store remote audit over {!Message.Audit_slice} batches
    ([batch] proofs per round trip, default 64): walk the SN space from
    [cursor] (default [Serial.first]), verify every served batch of
    proofs across {!Worm_util.Pool.shared}, fast-forward across the
    below-base region under the base bound, and finish with one probe
    above the served current bound. A dishonest
    server — refusing proofs, serving forgeries, or stalling the
    cursor — lands in [violations]; a transport that dies mid-sweep
    lands in [resume]; an empty [violations] with [resume = None] is a
    verified-clean store. *)

val run_remote_audit_to_completion : ?batch:int -> ?max_stalls:int -> t -> remote_audit
(** {!run_remote_audit} plus the resume discipline: keep re-running
    from the returned cursor while it advances, tolerating up to
    [max_stalls] (default 2) consecutive non-advancing resumes (each of
    which still burns a full retry budget against the outage). Counters
    and violations merge across the runs. *)

val bytes_sent : t -> int
val bytes_received : t -> int
(** Physical bytes over the transport, both directions, handshake and
    every retry included. *)
