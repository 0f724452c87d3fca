(** Workload generation for the evaluation harness.

    Deterministic (seeded) generators for the loads the paper's
    evaluation exercises: record-size sweeps (Figure 1), bursts followed
    by idle periods (§4.3), mixed read/write query loads (§4.1 "query
    loads expected to be often mostly read-only"), and retention-period
    mixes that produce out-of-order expirations (§4.2.1 multiple-window
    behavior). *)

val record : Worm_crypto.Drbg.t -> bytes:int -> string list
(** Pseudorandom record payload split into 64 KiB blocks. *)

val figure1_sizes : int list
(** Record sizes swept in Figure 1: 1 KiB to 256 KiB, powers of two. *)

type op =
  | Write of { blocks : string list; policy : Worm_core.Policy.t }
  | Read of int  (** index into previously written records (modulo) *)

val mixed_trace :
  Worm_crypto.Drbg.t ->
  ops:int ->
  write_fraction:float ->
  record_bytes:int ->
  policy:Worm_core.Policy.t ->
  op list
(** Reads address uniformly random previously written records. *)

val short_retention_mix : Worm_crypto.Drbg.t -> min_ns:int64 -> max_ns:int64 -> n:int -> Worm_core.Policy.t list
(** Custom policies with uniform retention in [\[min_ns, max_ns\]] —
    for deletion/window experiments that must expire within a run. *)
