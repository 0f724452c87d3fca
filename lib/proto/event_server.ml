open Worm_core
module Clock = Worm_simclock.Clock
module Device = Worm_scpu.Device
module Disk = Worm_simdisk.Disk

type witness_policy = Fixed of Firmware.witness_mode | Adaptive of Adaptive.t

type config = { batch_size : int; debt_ceiling : int; max_attempts : int; witness : witness_policy }

let default_config = { batch_size = 32; debt_ceiling = 4096; max_attempts = 5; witness = Fixed Firmware.Strong_now }

(* A batch is flushed this long after it opened, if it has not filled. *)
let batch_deadline_ns = Clock.ns_of_ms 2.

(* Deferred strengthenings paid per shed slot. *)
let drain_chunk = 32

(* The retry-after hint of a [Busy] reply, honoured by clients. *)
let shed_retry_ns = Clock.ns_of_ms 5.

(* Client resend backoff per lost frame, times the attempt number. *)
let retry_backoff_ns = Clock.ns_of_ms 1.

type outcome = Replied of Message.response | Gave_up

type completion = { client : int; submitted_ns : int64; delivered_ns : int64; attempts : int; outcome : outcome }

(* One in-flight request: the encoded frame plus enough context to
   deliver (or retry) it. [j_submitted] is the client's original send
   time — latency is measured from there, across every retry. *)
type job = {
  j_client : int;
  j_submitted : int64;
  j_attempts : int;
  j_bytes : string;
  j_on_reply : (completion -> unit) option;
}

type pending_write = { pw_job : job; pw_policy : Policy.t; pw_tenant : string; pw_blocks : string list }

type event = Arrival of job | Flush of int

(* Deterministic priority queue: virtual time, FIFO within a tick. *)
module Pq = Map.Make (struct
  type t = int64 * int

  let compare (t1, s1) (t2, s2) =
    let c = Int64.compare t1 t2 in
    if c <> 0 then c else Int.compare s1 s2
end)

type stats = { flushes : int; batched_writes : int; shed : int; gave_up : int; strengthened : int }

type t = {
  server : Server.t;
  worm : Worm.t;
  clock : Clock.t;
  net : Netsim.t;
  config : config;
  ingress : (string -> string) option;
  mutable queue : event Pq.t;
  mutable seq : int;
  mutable free_at : int64;  (** the single dispatcher is busy until then *)
  mutable pending : pending_write list;  (** open write batch, reversed *)
  mutable pending_count : int;
  mutable batch_gen : int;  (** invalidates stale deadline events *)
  mutable completions : completion list;  (** reversed *)
  mutable stats : stats;
  mutable wire_minor_words : float;  (** minor words allocated encoding/decoding frames *)
}

let zero_stats = { flushes = 0; batched_writes = 0; shed = 0; gave_up = 0; strengthened = 0 }

let create ?(config = default_config) ?ingress ~clock ~net server =
  if config.batch_size < 1 then invalid_arg "Event_server.create: batch_size < 1";
  if config.max_attempts < 1 then invalid_arg "Event_server.create: max_attempts < 1";
  {
    server;
    worm = Server.store server;
    clock;
    net;
    config;
    ingress;
    queue = Pq.empty;
    seq = 0;
    free_at = Clock.now clock;
    pending = [];
    pending_count = 0;
    batch_gen = 0;
    completions = [];
    stats = zero_stats;
    wire_minor_words = 0.;
  }

let stats t = t.stats
let completions t = List.rev t.completions
let wire_minor_words t = t.wire_minor_words

(* Meter exactly the wire work — request encode, frame decode, response
   encode/framing — and none of the store dispatch (signing, hashing,
   disk) or client callbacks. This is the allocation column the serve
   and scaling bench rows report per request. *)
let metered t f =
  let w0 = Worm_util.Allocmeter.minor_words () in
  let r = f () in
  t.wire_minor_words <- t.wire_minor_words +. (Worm_util.Allocmeter.minor_words () -. w0);
  r

let enqueue t ~at ev =
  t.seq <- t.seq + 1;
  t.queue <- Pq.add (at, t.seq) ev t.queue

let submit t ~client ~at ?on_reply request =
  let bytes = metered t (fun () -> Message.encode_request request) in
  let arrives = Int64.add at (Netsim.one_way_ns t.net ~bytes:(String.length bytes)) in
  enqueue t ~at:arrives
    (Arrival { j_client = client; j_submitted = at; j_attempts = 0; j_bytes = bytes; j_on_reply = on_reply })

(* Virtual service cost of whatever just ran: the sum of the SCPU, host
   CPU, and disk busy-ledger deltas around the call. *)
let busy_total t =
  let dev = Firmware.device (Worm.firmware t.worm) in
  Int64.add (Device.busy_ns dev) (Int64.add (Worm.host_busy_ns t.worm) (Disk.busy_ns (Worm.disk t.worm)))

(* Completions carry the structured response; the wire only needs its
   length (for transit time and byte accounting), so delivery never
   materialises the encoded string — a pooled length-only encode, or a
   precomputed length when [flush] frames a whole batch at once. *)
let deliver_len t job ~attempts ~finished_ns ~resp_len response =
  let delivered_ns = Int64.add finished_ns (Netsim.one_way_ns t.net ~bytes:resp_len) in
  Netsim.note_exchange t.net
    ~bytes:(String.length job.j_bytes + resp_len)
    ~wait_ns:(Int64.sub delivered_ns job.j_submitted);
  let c = { client = job.j_client; submitted_ns = job.j_submitted; delivered_ns; attempts; outcome = Replied response } in
  t.completions <- c :: t.completions;
  Option.iter (fun f -> f c) job.j_on_reply

let deliver t job ~attempts ~finished_ns response =
  let resp_len = metered t (fun () -> Server.response_wire_length t.server response) in
  deliver_len t job ~attempts ~finished_ns ~resp_len response

let give_up t job ~attempts ~now =
  t.stats <- { t.stats with gave_up = t.stats.gave_up + 1 };
  Netsim.note_exchange t.net
    ~bytes:(String.length job.j_bytes * attempts)
    ~wait_ns:(Int64.sub now job.j_submitted);
  let c = { client = job.j_client; submitted_ns = job.j_submitted; delivered_ns = now; attempts; outcome = Gave_up } in
  t.completions <- c :: t.completions;
  Option.iter (fun f -> f c) job.j_on_reply

(* Coalesce the open batch into one firmware signing flush: every
   queued write — across every connection — is witnessed through a
   single Worm.write_batch call, so the SCPU pays its per-key setup once
   per flush instead of once per client. *)
let flush t ~now =
  if t.pending_count > 0 then begin
    let batch = List.rev t.pending in
    t.pending <- [];
    t.pending_count <- 0;
    t.batch_gen <- t.batch_gen + 1;
    let start = Int64.max now t.free_at in
    Clock.advance_to t.clock start;
    (* A tenant can be erased by an interleaved request between a
       write's admission and its flush; re-check here so the batch
       never reaches the firmware with a write it would refuse — the
       refused client gets a protocol error, everyone else's batch
       proceeds. *)
    let refused, batch =
      List.partition (fun pw -> pw.pw_tenant <> "" && Worm.tenant_is_erased t.worm pw.pw_tenant) batch
    in
    List.iter
      (fun pw ->
        deliver t pw.pw_job ~attempts:(pw.pw_job.j_attempts + 1) ~finished_ns:start
          (Message.Protocol_error (Printf.sprintf "tenant %S has been erased; writes refused" pw.pw_tenant)))
      refused;
    if batch = [] then ()
    else begin
    let before = busy_total t in
    let witness =
      match t.config.witness with
      | Fixed mode -> mode
      | Adaptive a -> Adaptive.recommend a ~now:start ~deferred_backlog:(Worm.deferred_length t.worm)
    in
    let sns =
      Worm.write_attr_batch ~witness t.worm
        (List.map
           (fun pw ->
             ( Attr.make ~tenant:pw.pw_tenant ~created_at:0L (* stamped by the firmware *) ~policy:pw.pw_policy (),
               pw.pw_blocks ))
           batch)
    in
    let finished = Int64.add start (Int64.sub (busy_total t) before) in
    t.free_at <- finished;
    t.stats <- { t.stats with flushes = t.stats.flushes + 1; batched_writes = t.stats.batched_writes + List.length batch };
    (* frame every ack of the batch through one pooled buffer; per-ack
       wire lengths fall out of the encoder position deltas *)
    let ack_lens =
      metered t (fun () ->
          Worm_util.Codec.with_encoder (fun enc ->
              List.map
                (fun sn ->
                  let p0 = Worm_util.Codec.length enc in
                  Message.encode_response_into enc (Message.Write_ack { sn });
                  Worm_util.Codec.length enc - p0)
                sns))
    in
    List.iter2
      (fun pw (sn, resp_len) ->
        deliver_len t pw.pw_job ~attempts:(pw.pw_job.j_attempts + 1) ~finished_ns:finished ~resp_len
          (Message.Write_ack { sn }))
      batch
      (List.combine sns ack_lens)
    end
  end

(* Admission control: the deferred-strengthening ledger is the debt this
   store owes its own security argument — weak witnesses must be
   re-signed within their lifetime (§4.3). Over the ceiling we shed the
   write with Busy and spend the slot paying down a chunk of debt
   instead, so backpressure itself guarantees the ledger drains and a
   shed client's retry eventually lands. *)
let shed_write t job ~start =
  t.stats <- { t.stats with shed = t.stats.shed + 1 };
  let before = busy_total t in
  let repaid = Worm.strengthen_pending t.worm ~max:drain_chunk () in
  t.stats <- { t.stats with strengthened = t.stats.strengthened + repaid };
  let finished = Int64.add start (Int64.sub (busy_total t) before) in
  t.free_at <- finished;
  let busy_len =
    metered t (fun () -> Message.response_wire_length (Message.Busy { retry_after_ns = shed_retry_ns }))
  in
  let retry_at = Int64.add (Int64.add finished (Netsim.one_way_ns t.net ~bytes:busy_len)) shed_retry_ns in
  Netsim.note_exchange t.net
    ~bytes:(String.length job.j_bytes + busy_len)
    ~wait_ns:(Int64.sub retry_at job.j_submitted);
  (* the client honors retry_after; the retry is not a transport failure
     and does not count against max_attempts *)
  enqueue t ~at:retry_at (Arrival job)

let process_arrival t ~now job =
  let start = Int64.max now t.free_at in
  Clock.advance_to t.clock start;
  let attempts = job.j_attempts + 1 in
  let frame = match t.ingress with None -> Some job.j_bytes | Some filter -> ( try Some (filter job.j_bytes) with _ -> None) in
  (* submit always encodes a well-formed request, so a frame that no
     longer decodes was damaged in flight — same recovery as a lost one:
     client backoff and resend, up to max_attempts *)
  let decoded =
    metered t (fun () -> Option.bind frame (fun bytes -> Result.to_option (Message.decode_request bytes)))
  in
  match decoded with
  | None ->
      if attempts >= t.config.max_attempts then give_up t job ~attempts ~now:start
      else begin
        let backoff = Int64.mul (Int64.of_int attempts) retry_backoff_ns in
        enqueue t ~at:(Int64.add start backoff) (Arrival { job with j_attempts = attempts })
      end
  | Some (Message.Write { policy = _; tenant; blocks = _ }) when tenant <> "" && Worm.tenant_is_erased t.worm tenant ->
      (* Refuse at admission: an erased tenant's write must never enter
         a batch (it would mint a record no key can decrypt). *)
      t.free_at <- start;
      deliver t job ~attempts ~finished_ns:start
        (Message.Protocol_error (Printf.sprintf "tenant %S has been erased; writes refused" tenant))
  | Some (Message.Write { policy; tenant; blocks }) ->
      (match t.config.witness with
      | Adaptive a -> Adaptive.note_write a ~now:start
      | Fixed _ -> ());
      (* [job] keeps its pre-attempt count: the batch delivery and the
         shed retry both reconstruct attempts as [j_attempts + 1] *)
      if Worm.deferred_length t.worm > t.config.debt_ceiling then shed_write t job ~start
      else begin
        t.pending <- { pw_job = job; pw_policy = policy; pw_tenant = tenant; pw_blocks = blocks } :: t.pending;
        t.pending_count <- t.pending_count + 1;
        if t.pending_count = 1 then enqueue t ~at:(Int64.add start batch_deadline_ns) (Flush t.batch_gen);
        if t.pending_count >= t.config.batch_size then flush t ~now:start
      end
  | Some request ->
      (* reads and audits are served interleaved, never held for a batch *)
      let before = busy_total t in
      let response =
        try
          Server.refresh_for t.server request;
          Server.handle t.server request
        with exn -> Message.Protocol_error ("dispatch failed: " ^ Printexc.to_string exn)
      in
      let finished = Int64.add start (Int64.sub (busy_total t) before) in
      t.free_at <- finished;
      deliver t job ~attempts ~finished_ns:finished response

let run t =
  let rec go () =
    match Pq.min_binding_opt t.queue with
    | None -> ()
    | Some (((at, _) as key), ev) ->
        t.queue <- Pq.remove key t.queue;
        (match ev with
        | Arrival job -> process_arrival t ~now:at job
        | Flush gen -> if gen = t.batch_gen && t.pending_count > 0 then flush t ~now:at);
        go ()
  in
  go ();
  (* safety net; any open batch always has a live deadline event *)
  flush t ~now:(Clock.now t.clock)
