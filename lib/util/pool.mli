(** Fixed-size domain pools, over stdlib domains only.

    The process has one {!shared} pool, which nothing shuts down. The
    SCPU device signs its batches on it (the paper's SCPU is a card of
    its own, signing beside the host), and batched host-side
    verification runs on it: the paper's read path is host-CPU-only
    (§4.2.2). Pools made with {!create} are only for a fixed size: a
    1/2/4-domain curve, or a test comparing a pooled result with a
    sequential one.

    A pool of size [n] uses [n - 1] persistent worker domains plus the
    submitting domain, which drains the same queue while it waits, so a
    busy pool degrades toward inline execution and a task may submit a
    batch to the pool it runs on. A pool of size 1 spawns no domains and
    runs every batch sequentially in the caller.

    Batches are synchronous: [parallel_map]/[parallel_for] return only
    after every element has been processed. If any element raises, the
    first exception is re-raised on the submitting domain after the
    whole batch has finished (no element is silently skipped).

    The pool itself is domain-safe; the work functions must be too:
    pure computation, {!Worm_crypto.Rsa} signing and verification (their
    contexts are per call or per domain), and the mutex-guarded caches
    in {!Worm_core.Client}. Do not touch a {!Worm_core.Worm.t} (host
    Hashtbls are single-writer) from inside a pooled task. *)

type t

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()], clamped to at least 1. *)

val create : ?domains:int -> unit -> t
(** Spawn a pool of [domains] total domains (default
    {!recommended_domains}). [domains = 1] spawns nothing and makes
    every batch sequential.
    @raise Invalid_argument if [domains < 1]. *)

val size : t -> int
(** Total domains participating in a batch (workers + submitter). *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map t f arr] is [Array.map f arr] with elements processed
    on the pool's domains in chunked ranges. Result order matches input
    order. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map] over a list. *)

val parallel_for : t -> n:int -> (int -> unit) -> unit
(** [parallel_for t ~n f] runs [f i] for [0 <= i < n] across the pool.
    Iterations must be independent. *)

val shutdown : t -> unit
(** Stop the workers (after the queue drains) and join them.
    Idempotent; subsequent submissions raise [Invalid_argument]. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)

val shared : unit -> t
(** The process-wide pool, built by the first call from any domain with
    {!recommended_domains} domains. The count follows the CPU affinity
    mask: under [taskset -c 0] the pool has one domain and spawns none. *)
