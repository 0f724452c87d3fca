(** Cluster-wide compliance scrubbing.

    A cluster scrub is exactly N single-store scrubs — each shard's
    serving store is walked by its own {!Worm_audit.Scrubber} with full
    client verification under that shard's certificates — interleaved
    slice-by-slice so audit load spreads across the shards' host budgets
    the way it would across real machines, then merged into one
    {!Worm_audit.Report.t} in the {e global} serial space. Findings keep
    their per-shard identity in the detail text; scanned/slice/cost
    counters sum; the merged bounds are the cluster base/current the
    shard bounds imply. Mirrored shards get their replicator attached,
    so {!Worm_audit.Scrubber.repair_all} keeps working per shard. *)

module Report = Worm_audit.Report
module Scrubber = Worm_audit.Scrubber

type outcome = {
  merged : Report.t;  (** cluster-level report, global serial space *)
  per_shard : (int * Report.t) list;  (** each shard's own pass report *)
  skipped : int list;  (** shards with no serving store (fenced, no mirror) *)
}

val run : ?config:Scrubber.config -> Shard_router.t -> outcome
(** Round-robin budgeted slices across every scrubbable shard until each
    pass completes, then merge. [merged.pass_complete] is [false] when
    any shard had to be skipped — partial coverage must not read as a
    clean bill. *)
