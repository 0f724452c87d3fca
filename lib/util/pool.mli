(** The process's domain pool, over stdlib domains only, and the one
    rule for when work leaves the calling domain.

    The SCPU device signs its batches on it (the paper's SCPU is a card
    of its own, signing beside the host), and host-side verification
    runs on it too: the paper's read path is host-CPU-only (§4.2.2).
    The pool has {!width} domains: [width - 1] persistent workers plus
    the calling domain. It is built by the first {!both} or {!map} that
    could split, with {!recommended_domains} domains, and is never shut
    down; under
    [taskset -c 0] it has one domain and spawns none.

    {b The rule.} Work runs inline, in the caller and in order, when the
    width is 1 or the call comes from inside a pool task (a domain-local
    flag), so tasks never wait on tasks and nothing nests. Otherwise
    {!both} and a {!map} of two or more items hand work to the workers.
    A caller runs every task of its own that no worker has started yet
    itself, and waits only for tasks already running on another domain.
    Whether a single operation is worth splitting at all is its call
    site's decision: a 1024-bit [Rsa.sign], a strongly witnessed
    [Client.verify_read]. On a 2-core host an idle worker's wake-up is
    ~60 µs.

    Results, and which exception a call raises, do not depend on the
    width; split, an exception is re-raised in the caller only after
    every task of the call has finished (no task is left running). The work functions must be
    domain-safe: pure computation, [Rsa] signing and verification
    (their contexts are per call or per domain), and the mutex-guarded
    caches of [Client]. Do not touch a [Worm.t] (host Hashtbls are
    single-writer) from a task. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()], clamped to at least 1. *)

val width : unit -> int
(** The number of domains calls split over: the innermost {!with_width}
    in scope, else {!recommended_domains}. *)

val with_width : int -> (unit -> 'a) -> 'a
(** [with_width n f] runs [f] with the pool replaced by one of [n]
    domains, then shuts that pool down and restores the previous one,
    also when [f] raises. For a domain curve (the bench) or a pooled
    result compared with a sequential one (the tests); at [n = 1]
    everything in [f] runs inline.
    @raise Invalid_argument if [n < 1] or when called from inside a
    pool task. *)

val both : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** [both f g] is [(f (), g ())]. [f] runs on the calling domain while
    [g] is offered to an idle worker; the caller takes [g] back if no
    worker has started it. Inline, [f] runs before [g]. If either side
    raises, the exception is re-raised once both sides are done; [f]'s
    wins. *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] is [List.map f xs], results in input order. Two or more
    items are handed out in contiguous chunks, several per domain, and
    any pool call made inside [f] runs inline. A single item runs in the
    caller as a plain call, so a one-item batch can still split inside
    [f]. If items raise, the exception of the first failing chunk is
    re-raised once every chunk is done.

    Short batches, measured as [Client.verify_read_many] at width 2
    against width 1 on a shared 2-core host (12 alternating rounds,
    per-call medians): 2, 4 and 13 strongly witnessed 4 KiB records
    (~190 µs each) took 0.54–0.58× the inline time, faster in 10–11 of
    12 rounds; 2, 4 and 13 memo-hit absence proofs (~0.5 µs each) took
    2.7–4.3× (1.0 → 4.1 µs at 2 items), faster in none. The hand-off
    costs a few µs, so a batch repays it unless all its items are that
    short. *)
