(** Continuous compliance scrubber.

    Walks the full serial-number space in budgeted slices, verifying for
    every SN exactly one of the §4.2.2 read outcomes — a live record
    with valid metasig/datasig, a deletion proof [S_d(SN)], membership
    in a coherent deletion window, or the below-base / above-current
    bounds — then runs the cross-cutting invariants no single read
    exercises: bound freshness against the heartbeat, deletion-window
    coherence against the VRDT, the journal's hash chain and SCPU
    anchors, and deferred/audit backlog sanity.

    The scrubber is host-side and untrusted, like every auditor in the
    paper's model: all verification goes through {!Client} against
    SCPU-rooted signatures, so a lying scrubber gains nothing — it can
    only fail to report, which an external {!Remote_client} audit
    catches independently.

    Cost discipline: each {!run_slice} stops once the configured host
    budget (or record cap) is consumed, and bills its verification work
    to the store's host ledger via {!Worm.charge_host}, so simulations
    measure steady-state audit overhead honestly. The cursor (and the
    findings accumulated so far) checkpoint to bytes and reload after a
    host restart; a corrupt checkpoint degrades to a fresh pass from the
    bottom of the SN space, never to a silent mis-resume. *)

open Worm_core

type config = {
  slice_budget_ns : int64;  (** host CPU per slice; slice ends when consumed *)
  max_records_per_slice : int;  (** hard cap regardless of budget *)
  max_bound_age_ns : int64;  (** freshness limit for the current bound *)
}

val default_config : config
(** 5 ms of host CPU per slice, at most 512 records, 5-minute bound
    freshness (the {!Client} default). *)

type t

val create : ?config:config -> store:Worm.t -> client:Client.t -> unit -> t
(** [client] must be bound to [store]'s certificates (e.g.
    {!Client.for_store}).

    Each slice reads responses on the calling domain (the store's
    tables are single-writer), exactly as many as its budget affords —
    a record's cost depends on its response, not its verdict — and
    verifies them as one batch on {!Worm_util.Pool.shared}
    ({!Client.verify_read_many}). Findings (classified in SN order),
    cursor movement, reads and budget accounting are those of a walk
    that reads and verifies one serial at a time. *)

val attach_mirror : t -> Replicator.t -> unit
(** Give the repair engine a replica to heal from. The [Replicator]'s
    primary must be this scrubber's store. *)

val config : t -> config
val cursor : t -> Serial.t
(** Next SN the scrubber will examine. *)

val findings : t -> Finding.t list
(** Findings of the pass in progress (or just completed), oldest first. *)

type slice_stats = {
  examined : int;  (** per-SN checks performed in this slice *)
  spent_ns : int64;  (** host cost charged for the slice *)
  pass_completed : bool;  (** this slice finished the pass *)
}

val run_slice : t -> slice_stats
(** One budgeted increment of scrubbing. Starts a new pass (snapshotting
    the SN range to cover) if none is in progress; on the slice that
    reaches the end of the range, also runs the cross-cutting invariant
    checks and finalizes the pass report. *)

val run_pass : t -> Report.t
(** Drive {!run_slice} until the current pass completes and return its
    report. *)

val last_report : t -> Report.t option
(** The most recently completed pass. *)

val report : t -> Report.t
(** Snapshot of the pass in progress ([pass_complete = false] unless the
    pass just finished). *)

(** {2 Checkpointing} *)

val save_state : t -> string
(** Serialize cursor, pass extent, and accumulated findings. *)

val load_state : t -> string -> (unit, string) result
(** Restore a checkpoint taken by {!save_state} on a scrubber for the
    same store. On any corruption — bad magic, wrong store, truncated or
    malformed bytes — the scrubber resets to a fresh pass starting at
    the bottom of the SN space and reports the reason as [Error]: a
    damaged cursor must never cause a region to be silently skipped. *)

(** {2 Repair} *)

type repair_outcome = { finding : Finding.t; action : string; result : (unit, string) result }

val repair_all : t -> repair_outcome list
(** Attempt to repair every finding of the last completed pass:
    stale bounds via a heartbeat; torn windows by SCPU re-certification
    (or safe removal — the per-SN proofs and base bound still cover the
    records); forged witnesses from the mirror's verified VRD backup;
    damaged or destroyed data from the mirror copy, re-queueing an SCPU
    data audit; missing deletion proofs re-issued by the SCPU for
    serials it positively knows are deleted, else re-ingested from the
    mirror. Mirror-based repairs fail with [Error] when no mirror is
    attached. Run another pass afterwards to confirm a clean report. *)
