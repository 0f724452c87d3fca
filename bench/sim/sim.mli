(** Throughput simulation (the paper's §5 evaluation).

    Runs real protocol traffic — genuine RSA signatures, hashes, disk
    and VRDT updates — through a {!Worm_core.Worm} store while the cost
    models charge virtual time to three resource ledgers: the SCPU
    (Table 2's IBM 4764 column), the host CPU (the P4 column), and the
    disk. In steady state the pipeline's throughput is set by its
    slowest stage, so

    {v throughput = records / max(scpu, host, disk busy time) v}

    which is what Figure 1 plots against record size for the different
    witnessing modes. Costs per record are deterministic, so modest
    record counts give exact results.

    Every experiment returns {!Row.t} values; each function's comment
    names the keys its rows carry. *)

type mode = {
  label : string;
  witness : Worm_core.Firmware.witness_mode;
  datasig : Worm_core.Worm.datasig_mode;
}

val mode_strong_scpu_hash : mode
(** Sustained operation: 1024-bit signatures, SCPU hashes the data —
    the paper's 450–500 records/s regime. *)

val mode_strong_host_hash : mode
(** Sustained with host-side hashing (§4.2.2's weaker trust model). *)

val mode_weak_host_hash : mode
(** Burst: deferred 512-bit signatures + host hashing — the paper's
    2000–2500 records/s headline regime. *)

val mode_mac_host_hash : mode
(** Burst: HMAC witnesses — "practically unlimited throughputs at
    levels only restricted by the SCPU–main memory bus" (§4.3). *)

val all_modes : mode list

type env
(** Shared provisioning (CA, SCPU device, clock) so sweeps don't pay
    RSA key generation per data point. *)

val make_env : ?profile:Worm_scpu.Cost_model.profile -> ?strong_bits:int -> ?weak_bits:int -> seed:string -> unit -> env

val run_write_burst :
  env ->
  mode:mode ->
  record_bytes:int ->
  records:int ->
  ?disk_latency:Worm_simdisk.Disk.latency_model ->
  unit ->
  Row.t
(** One Figure 1 data point: ingest [records] records of [record_bytes]
    each under [mode], then run the idle maintenance and verify the
    deferred queue drained within every security lifetime. Keys:
    [label], [record_bytes], [records], [rps], [bottleneck] (["scpu"],
    ["host"] or ["disk"]), the burst's busy seconds [scpu_s], [host_s]
    and [disk_s], [idle_scpu_s] (deferred work paid later) and
    [deferred_after_idle] (must be 0). *)

val figure1 : env -> ?records:int -> unit -> Row.t list
(** The full Figure 1 sweep: {!all_modes} x {!Worm_workload.Workload.figure1_sizes},
    on a fast disk so the WORM layer (not I/O) is what is measured. *)

val local_figure1 :
  profile:Worm_scpu.Cost_model.profile -> ?records:int -> ?sizes:int list -> seed:string -> unit -> Row.t list
(** Figure 1 with the SCPU cost model replaced by a profile calibrated
    from measurements on the running host (see
    {!Worm_scpu.Cost_model.of_measurements}): projects what this machine
    would sustain in each witnessing mode. Provisions its own
    environment so the caller's [env] profile is undisturbed. *)

val read_projection :
  verify_per_sec:float ->
  hash_bytes_per_sec:float ->
  ?sizes:int list ->
  ?epoch_reads:int ->
  unit ->
  Row.t list
(** {!local_figure1}'s counterpart for the §4.2.2 read path, from this
    host's measured verify and hash rates. Reads never involve the SCPU
    (§4.1): an uncached read costs its public-key verifications plus a
    hash over the record bytes. The [cached_rps] column amortizes the
    epoch-stable signatures — current/base bounds, window bounds, per-SN
    deletion proofs — over [epoch_reads] reads per refresh epoch
    (default 1024), modeling {!Worm_core.Client}'s verified-signature
    memo. Per-record witnesses are never cached, so found-record rows
    are identical in both columns. Keys: [kind] (["found-<n>KB"] or an
    absence-proof shape), [record_bytes] (0 for absence proofs),
    [sig_verifies] (per uncached read), [uncached_rps], [cached_rps]. *)

val io_bottleneck : env -> ?records:int -> record_bytes:int -> unit -> Row.t list
(** §5's closing observation: sweep disk seek latency 0–8 ms and watch
    the bottleneck shift from the WORM layer to I/O. Keys: [seek_ms],
    and [row], the {!run_write_burst} row at that latency. *)

val window_vs_merkle : env -> ns:int list -> Row.t list
(** §2.3/§4.1 ablation: constant-cost window authentication versus
    O(log n) Merkle maintenance, as store size grows. Uses 1-byte
    records so authentication (not data hashing) dominates. Keys:
    [records], [window_us_per_update], [merkle_us_per_update] (SCPU
    microseconds) and [merkle_hashes_per_update]. *)

val read_mix : env -> ?ops:int -> record_bytes:int -> unit -> Row.t list
(** §4.1's design payoff: "the SCPU is involved in updates only but not
    in reads, thus minimizing the overhead for a query load dominated by
    read queries". Sweeps the write fraction from read-only to
    write-only; SCPU cost per operation scales with the write fraction
    and a read-heavy store runs at disk speed. Keys: [write_fraction],
    [ops_per_sec], [scpu_us_per_op], [bottleneck]. *)

val cluster_scaling :
  ?record_bytes:int ->
  ?records:int ->
  ?strong_bits:int ->
  ?weak_bits:int ->
  seed:string ->
  shards_list:int list ->
  unit ->
  Row.t list
(** Measured multi-SCPU scaling: for each N in [shards_list], provision
    a real N-shard {!Worm_cluster.Shard_router} (independent SCPU +
    disk + host ledger per shard), mount one batching
    {!Worm_proto.Event_server} per shard over its
    {!Worm_proto.Cluster_server.shard_server}, drive the interleaved
    stripe of the same [records]-record workload through each loop, and
    report aggregate throughput from the per-shard busy ledgers — no
    multiplied projections. Every run is gated: the aggregated
    {!Worm_cluster.Cluster_proof} must verify and its coherent global
    bound must equal the record count, and reading every global serial
    back through the router must produce verdicts and content digests
    identical to a sequential single-store run of the same payloads.
    Keys: [shards], [records], [aggregate_rps] (whole workload over the
    slowest shard's busy time), [speedup] (against the measured 1-shard
    cluster), [bottleneck_shard] and its saturated resource
    [bottleneck], [makespan_s] (slowest shard loop, virtual), [flushes],
    the gates [proof_ok], [global_current_ok] and [fingerprint_match],
    [minor_words_per_req] (real wire-path allocation, not part of the
    virtual model), and [shards_detail], one row per shard with
    [shard], [records], [scpu_s], [host_s], [disk_s], [rps] and
    [bottleneck]. *)

val storage_reduction : env -> ?records:int -> ?long_lived_every:int -> unit -> Row.t list
(** §4.2.1's stated motivation: "Serial number issuing and VRDT
    management are designed to minimize the VRDT-related storage."
    Ingest a mixed-retention load (every [long_lived_every]-th record is
    long-lived, the rest expire), run the RM, and report the VRDT
    footprint before expiry, with per-record deletion proofs, and after
    window collapsing expels them. Keys: [stage], [vrdt_bytes],
    [entries], [windows]. *)

val burst_sustainability :
  ?profile:Worm_scpu.Cost_model.profile ->
  ?strong_bits:int ->
  ?weak_lifetime_min:float ->
  ?rates:float list ->
  unit ->
  Row.t list
(** §4.3 quantified: the paper allows deferred-construct bursts "of no
    more than 60-180 minutes (life-time of the short-lived constructs)".
    A burst at arrival rate [r] accrues strengthening debt at [2r]
    signatures/s; draining it FIFO at the strong key's rate [s] after
    the burst, every weak witness must be re-signed within its lifetime
    [L], giving

    {v T_max = L * min(1, s / (2r)) v}

    — the paper's "no more than the lifetime" bound when the strong key
    can keep pace ([2r <= s]), and the tighter repayment bound above it.
    Rows where [T_max < L] tell the operator the lifetime alone is not
    the binding constraint at that rate. Keys: [arrival_rps],
    [debt_per_sec] (strengthening signatures per burst second),
    [max_burst_min]. *)

type day_phase = { label : string; rate_per_sec : float; duration_s : float }

val adaptive_day : env -> ?phases:day_phase list -> unit -> Row.t list
(** Drive a store through load phases with the §4.3 {!Worm_core.Adaptive}
    controller choosing the witness strength per write, running idle
    maintenance between phases. Default phases model a trading day:
    opening burst, steady trading, lunch trickle, closing flood. The
    invariant checked per row: no deferred witness ever outlives its
    security lifetime. Keys: [phase], [writes], [strong], [weak],
    [mac], [overdue_after] (must be 0). *)

val audit_overhead : env -> ?records:int -> ?record_bytes:int -> ?budgets_ms:float list -> unit -> Row.t list
(** Steady-state cost of the continuous compliance scrubber
    ({!Worm_audit.Scrubber}): populate a store, complete one full audit
    pass in budgeted slices, and report how amortizing per-record
    verification into the ingest pipeline moves write throughput.
    Tighter budgets take more slices but the same total work — the
    knob trades audit latency against per-tick jitter, not total
    overhead. Keys: [slice_budget_ms], [records_scanned], [slices],
    [scanned_per_slice], [scrub_host_s] (the whole pass),
    [baseline_rps] and [with_scrub_rps] (ingest without and with one
    amortized pass), [overhead_pct], [findings] (must be 0). *)

val tenant_erasure : env -> ?volumes:int list -> ?record_bytes:int -> unit -> Row.t list
(** O(1) crypto-erasure versus per-record shredding: for each volume in
    [volumes] (default spans 10 to 10,000 — three orders of magnitude),
    seal that many records under one tenant's key hierarchy, measure
    the disk time a key-less design would spend overwriting them, then
    measure {!Worm_core.Worm.erase_tenant} on the busy ledgers. Every
    row is gated before it is returned: the SCPU-signed erasure
    certificate must verify against the CA-rooted deletion certificate,
    every erased serial must read back as a provable properly-erased
    verdict, and a bystander tenant's end-to-end verdicts must be
    identical before and after the erasure. Keys: [tenant_records],
    the erasure's busy time [erase_scpu_us] and [erase_host_us] (flat),
    and [shred_disk_us], the disk time to shred the same records
    (linear).
    @raise Failure if any gate fails. *)

val remote_fault_tolerance : ?records:int -> ?batch:int -> ?rates:float list -> seed:string -> unit -> Row.t list
(** Cost of graceful degradation on the wire: run
    {!Worm_proto.Remote_client.run_remote_audit_to_completion} against
    an honest store behind a {!Worm_proto.Faulty} transport (drop,
    garble, truncate, duplicate, delay at each rate in [rates], plus a
    bounded crash outage), with retry backoff charged to the
    {!Worm_proto.Netsim} ledger. Every row must report
    [verdicts_match = true]: injected faults may only cost wire time
    and retries, never change what the audit concludes. Keys: [fault]
    (["clean"] for the baseline), [rate], [attempts] (transport calls),
    [retries], [resumes] (extra audit round trips over the clean run),
    [reverifications], [wire_ms] (virtual wire and retry-wait time),
    [wire_overhead] (relative to the clean run), [verdicts_match]. *)

val multi_client :
  ?phases:day_phase list ->
  ?fault_rate:float ->
  ?batch_size:int ->
  ?debt_ceiling:int ->
  ?record_bytes:int ->
  ?strong_bits:int ->
  ?weak_bits:int ->
  seed:string ->
  unit ->
  Row.t
(** Drive one writer per arrival of [phases] (default: {!adaptive_day}'s trading day)
    through the real {!Worm_proto.Message} / {!Worm_proto.Server} stack
    twice: once through {!Worm_proto.Event_server} with cross-client
    batch witnessing, adaptive witness selection, debt-ceiling admission
    control, and a seeded {!Worm_proto.Faulty} ingress at [fault_rate]
    per fault kind; and once as a sequential no-fault client, which is
    both the unbatched [sign_calls] baseline and the convergence oracle
    for [fingerprint_match]. Each acked write is followed by a
    read-after-write verified with the real client verifier.
    Deterministic in [seed]. Keys: [clients], [virtual_s] (event-run
    makespan), [writes_acked], [reads_ok] (read-after-writes that
    verified clean), [throughput_rps], [gave_up], [shed] (answered
    Busy), [flushes], [strengthened_in_run], [deferred_after] (debt
    when serving ended), [sign_calls] and [baseline_sign_calls]
    (batched run vs. sequential unbatched serving),
    [sign_call_reduction], [write_latency] and [read_latency] (rows of
    [p50_ms], [p95_ms], [p99_ms], [mean_ms], [max_ms]),
    [fingerprint_match] (after both stores drained their debt, every
    record verified alike in both runs), [requests], and
    [minor_words_per_req] (real wire-path allocation metered by the
    event server, not part of the virtual model). *)

val table2 : ?profile:Worm_scpu.Cost_model.profile -> ?host:Worm_scpu.Cost_model.profile -> unit -> Row.t list
(** Regenerate Table 2 from the calibrated cost models. Keys:
    [operation], [scpu], [host]. *)
