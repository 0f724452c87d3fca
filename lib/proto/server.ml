open Worm_core
module Codec = Worm_util.Codec

type limits = { max_read_many : int; max_audit_slice : int }

let default_limits = { max_read_many = 256; max_audit_slice = 1024 }

(* ---------- encode-once memo ---------- *)

(* Epoch-stable artifacts — bounds, window proofs, deletion proofs, the
   hello ack — are re-served verbatim between refreshes, so their
   canonical encodings are cached and spliced with [Codec.raw]. Every
   entry is keyed by physical equality on the record the store hands
   out: [Worm.heartbeat]/[refresh] allocates a fresh bound record when
   it re-signs, so a stale cache entry simply never matches again — the
   memo is invalidated exactly when the served artifact changes, by
   construction, with no explicit flush to forget. *)

let memo_hits = Atomic.make 0
let memo_misses = Atomic.make 0
let note_memo_hit () = Atomic.incr memo_hits
let note_memo_miss () = Atomic.incr memo_misses

type memo_stats = { memo_hits : int; memo_misses : int }

let global_memo_stats () = { memo_hits = Atomic.get memo_hits; memo_misses = Atomic.get memo_misses }

let mru_cap = 4
let deleted_cap = 4096

type memo = {
  mutable m_hello : (Worm_crypto.Cert.t * Worm_crypto.Cert.t * string) option;
  mutable m_current : (Firmware.current_bound * string) list;  (** MRU, [mru_cap] *)
  mutable m_base : (Firmware.base_bound * string) list;
  mutable m_window : (Firmware.deletion_window * string) list;
  m_deleted : (Serial.t, string * string) Hashtbl.t;  (** sn -> (proof witness, fragment) *)
}

let memo_create () = { m_hello = None; m_current = []; m_base = []; m_window = []; m_deleted = Hashtbl.create 64 }

let fragment response = Codec.encode Message.encode_read_response response

let memo_fragment ~get ~set key response =
  match List.find_opt (fun (k, _) -> k == key) (get ()) with
  | Some (_, frag) ->
      Atomic.incr memo_hits;
      frag
  | None ->
      Atomic.incr memo_misses;
      let frag = fragment response in
      set ((key, frag) :: List.filteri (fun i _ -> i < mru_cap - 1) (get ()));
      frag

(* The default encoder for anything not worth caching: [Found] carries
   the data blocks (large, and the audit walk touches each live SN
   once), [Refused] is an error path, [Erased] is cheap to re-encode
   and rare enough that caching it would only grow the memo. *)
let memo_read_response memo enc response =
  match response with
  | Proof.Proof_unallocated current ->
      Codec.raw enc
        (memo_fragment ~get:(fun () -> memo.m_current) ~set:(fun l -> memo.m_current <- l) current response)
  | Proof.Proof_below_base base ->
      Codec.raw enc (memo_fragment ~get:(fun () -> memo.m_base) ~set:(fun l -> memo.m_base <- l) base response)
  | Proof.Proof_in_window w ->
      Codec.raw enc (memo_fragment ~get:(fun () -> memo.m_window) ~set:(fun l -> memo.m_window <- l) w response)
  | Proof.Proof_deleted { sn; proof } -> begin
      match Hashtbl.find_opt memo.m_deleted sn with
      | Some (p, frag) when p == proof ->
          Atomic.incr memo_hits;
          Codec.raw enc frag
      | _ ->
          Atomic.incr memo_misses;
          let frag = fragment response in
          if Hashtbl.length memo.m_deleted >= deleted_cap then Hashtbl.reset memo.m_deleted;
          Hashtbl.replace memo.m_deleted sn (proof, frag);
          Codec.raw enc frag
    end
  | Proof.Found _ | Proof.Refused _ | Proof.Erased _ -> Message.encode_read_response enc response

(* The cluster front end shares one read memo across all its shards:
   physical keys never collide between stores, so per-shard segregation
   would buy nothing. *)
type read_memo = memo

let read_memo () = memo_create ()

type t = {
  worm : Worm.t;
  limits : limits;
  memo : memo;
  hook : Codec.encoder -> Proof.read_response -> unit;
}

let create ?(limits = default_limits) worm =
  let memo = memo_create () in
  { worm; limits; memo; hook = memo_read_response memo }

let store t = t.worm
let limits t = t.limits

let encode_response t response =
  match response with
  | Message.Hello_ack { signing_cert; deletion_cert; _ } -> begin
      match t.memo.m_hello with
      | Some (sc, dc, bytes) when sc == signing_cert && dc == deletion_cert ->
          Atomic.incr memo_hits;
          bytes
      | _ ->
          Atomic.incr memo_misses;
          let bytes = Message.encode_response response in
          t.memo.m_hello <- Some (signing_cert, deletion_cert, bytes);
          bytes
    end
  | _ -> Message.encode_response ~read_response:t.hook response

let response_wire_length t response =
  match response with
  | Message.Hello_ack _ -> String.length (encode_response t response)
  | _ -> Message.response_wire_length ~read_response:t.hook response

(* Bound-cache maintenance, hoisted out of dispatch. The base bound is
   healed on every request (it re-signs only when the base moved or the
   bound expired). The current bound is re-signed by
   {!Worm.refresh_current_bound} only for a request whose reply carries
   it: an audit slice, or a read of a serial above the SCPU counter
   (answered [Proof_unallocated]). A read of a record written since the
   last bound needs no new bound, so read-after-write signs nothing.
   Keeping the mutation here (and not in [handle]) keeps dispatch pure:
   serving a request consumes no SCPU signatures, so a replaying or
   duplicating client cannot burn device time, and re-dispatching the
   same bytes re-serves the identical reply. *)
let refresh_bounds t ~current =
  ignore (Worm.cached_base_bound t.worm : Firmware.base_bound);
  if current then Worm.refresh_current_bound t.worm

let refresh t = refresh_bounds t ~current:true

let refresh_for t request =
  let above_counter sn = Serial.(sn > Firmware.sn_current (Worm.firmware t.worm)) in
  refresh_bounds t
    ~current:
      (match request with
      | Message.Audit_slice _ -> true
      | Message.Read sn -> above_counter sn
      | Message.Read_many sns ->
          (* an over-limit frame is refused by [handle] before any per-SN
             work, and this scan must not walk it either *)
          List.compare_length_with sns t.limits.max_read_many <= 0 && List.exists above_counter sns
      | _ -> false)

let handle t = function
  | Message.Hello ->
      let fw = Worm.firmware t.worm in
      Message.Hello_ack
        {
          store_id = Worm.store_id t.worm;
          signing_cert = Firmware.signing_cert fw;
          deletion_cert = Firmware.deletion_cert fw;
        }
  | Message.Read sn -> Message.Read_reply { sn; response = Worm.read t.worm sn }
  | Message.Read_many sns ->
      (* Cap before doing any per-SN work: an adversarial frame listing
         millions of serials must not monopolize the dispatcher (or the
         event loop it runs under). *)
      let n = List.length sns in
      if n > t.limits.max_read_many then
        Message.Protocol_error (Printf.sprintf "read-many of %d sns exceeds limit %d" n t.limits.max_read_many)
      else Message.Read_many_reply (List.map (fun sn -> (sn, Worm.read t.worm sn)) sns)
  | Message.Write { policy; tenant; blocks } ->
      (* Synchronous ingest — the unbatched baseline. The event server
         never routes writes here; it coalesces them across connections
         into {!Worm_core.Worm.write_batch} flushes instead. Erased
         tenants are refused at the protocol layer: admitting the write
         would mint a record no key can ever decrypt. *)
      if tenant <> "" && Worm.tenant_is_erased t.worm tenant then
        Message.Protocol_error (Printf.sprintf "tenant %S has been erased; writes refused" tenant)
      else Message.Write_ack { sn = Worm.write t.worm ~tenant ~policy ~blocks }
  | Message.Audit_slice { cursor; max } ->
      let base = Worm.peek_base_bound t.worm in
      let current = Worm.peek_current_bound t.worm in
      (* Clamp, don't refuse: a truncated reply still carries the resume
         cursor, so an honest auditor asking for too much just takes one
         more round trip — while a hostile [max] cannot pin the loop. *)
      let max = Stdlib.max 1 (Stdlib.min t.limits.max_audit_slice max) in
      if Serial.(cursor < base.Firmware.sn) then
        (* The whole below-base region is covered by one signed bound;
           skip the auditor straight to the base instead of streaming
           per-SN proofs of ancient deletions. *)
        Message.Audit_slice_reply { replies = []; next = Some base.Firmware.sn; base; current }
      else begin
        let rec serve acc sn served =
          if served >= max || Serial.(sn > current.Firmware.sn) then (List.rev acc, sn)
          else serve ((sn, Worm.read t.worm sn) :: acc) (Serial.next sn) (served + 1)
        in
        let replies, stopped = serve [] cursor 0 in
        let next = if Serial.(stopped > current.Firmware.sn) then None else Some stopped in
        Message.Audit_slice_reply { replies; next; base; current }
      end
  | Message.Erase_tenant tenant ->
      (* Right to be forgotten: one SCPU key destruction, O(1) in record
         count. Idempotent — re-erasing returns the original cert. *)
      if tenant = "" then Message.Protocol_error "erase-tenant: empty tenant id"
      else Message.Erasure_cert_reply (Some (Worm.erase_tenant t.worm ~tenant))
  | Message.Erasure_cert_get tenant ->
      if tenant = "" then Message.Protocol_error "erasure-cert-get: empty tenant id"
      else Message.Erasure_cert_reply (Worm.erasure_cert_of t.worm tenant)
  | Message.Cluster_hello | Message.Cluster_read _ | Message.Cluster_read_many _ | Message.Cluster_proof_get ->
      (* The cluster vocabulary only makes sense against a router front
         end ({!Cluster_server}); a single store has no shards to route
         over or aggregate, and pretending to be shard 0 of 1 would hand
         clients a freshness proof with the wrong trust story. *)
      Message.Protocol_error "cluster request sent to a single-store server"

(* The server must stay total on adversarial input: nothing a client
   sends may crash the dispatcher — a fault-injecting transport (see
   {!Faulty}) replays and mangles requests freely. Bound staleness is
   healed by [refresh_for] before dispatch; it is convergent (a second
   call at the same store state does nothing), so replayed bytes still
   re-serve identical replies for the read/audit vocabulary. *)
let handle_bytes t bytes =
  match Message.decode_request bytes with
  | Error e -> Message.encode_response (Message.Protocol_error e)
  | Ok request -> begin
      (* [refresh_for] sits inside the guard: it signs through the SCPU,
         and a device fault (ledger exhaustion, clock refusal)
         mid-refresh must degrade to a protocol error, not kill the
         dispatcher. *)
      match
        refresh_for t request;
        encode_response t (handle t request)
      with
      | reply -> reply
      | exception exn ->
          Message.encode_response (Message.Protocol_error ("dispatch failed: " ^ Printexc.to_string exn))
    end
