open Worm_core
module Drbg = Worm_crypto.Drbg

type transport = string -> string

type retry = {
  attempts : int;
  base_backoff_ns : int64;
  backoff_multiplier : float;
  jitter : float;
  attempt_timeout_ns : int64;
  verify_retries : int;
}

let default_retry =
  {
    attempts = 4;
    base_backoff_ns = 1_000_000L (* 1 ms *);
    backoff_multiplier = 2.0;
    jitter = 0.25;
    attempt_timeout_ns = 5_000_000L (* 5 ms waited per lost reply *);
    verify_retries = 2;
  }

let no_retry =
  {
    attempts = 1;
    base_backoff_ns = 0L;
    backoff_multiplier = 1.0;
    jitter = 0.;
    attempt_timeout_ns = 0L;
    verify_retries = 0;
  }

type transport_stats = {
  requests : int;
  attempts : int;
  retries : int;
  faults : int;
  decode_failures : int;
  reverifications : int;
  waited_ns : int64;
}

(* The wire layer under the verified client: one transport plus the
   retry policy, fault counters, and byte ledger shared by the
   handshake and every later roundtrip. *)
type wire = {
  transport : transport;
  retry : retry;
  netsim : Netsim.t option;
  jitter_rng : Drbg.t;
  mutable requests : int;
  mutable attempts : int;
  mutable retries : int;
  mutable faults : int;
  mutable decode_failures : int;
  mutable reverifications : int;
  mutable waited_ns : int64;
  mutable bytes_sent : int;
  mutable bytes_received : int;
}

type t = { wire : wire; client : Client.t; store_id : string }

let make_wire ?(retry = default_retry) ?netsim transport =
  if retry.attempts < 1 then invalid_arg "Remote_client: retry.attempts must be >= 1";
  if retry.verify_retries < 0 then invalid_arg "Remote_client: negative verify_retries";
  {
    transport;
    retry;
    netsim;
    jitter_rng = Drbg.create ~seed:"remote-client-backoff";
    requests = 0;
    attempts = 0;
    retries = 0;
    faults = 0;
    decode_failures = 0;
    reverifications = 0;
    waited_ns = 0L;
    bytes_sent = 0;
    bytes_received = 0;
  }

(* Retry waits are virtual, like every other latency in the
   reproduction: billed to the Netsim ledger (when one is attached) and
   to [waited_ns], never slept on the wall clock. *)
let charge_wait w ns =
  if Int64.compare ns 0L > 0 then begin
    w.waited_ns <- Int64.add w.waited_ns ns;
    match w.netsim with
    | Some n -> Netsim.charge_ns n ns
    | None -> ()
  end

let backoff_ns w ~failures =
  let base =
    Int64.to_float w.retry.base_backoff_ns *. (w.retry.backoff_multiplier ** float_of_int (failures - 1))
  in
  let jitter =
    if w.retry.jitter <= 0. then 0.
    else base *. w.retry.jitter *. (float_of_int (Drbg.byte w.jitter_rng) /. 255.)
  in
  Int64.of_float (base +. jitter)

(* One physical exchange. Anything the transport throws is caught here:
   a raising transport is a lost reply, indistinguishable from a
   timeout, so the per-attempt timeout is billed and the failure
   surfaces as a result — never as an exception (§3: a wire that
   misbehaves proves nothing, it must not crash the auditor). *)
let attempt_once w bytes =
  w.attempts <- w.attempts + 1;
  w.bytes_sent <- w.bytes_sent + String.length bytes;
  match w.transport bytes with
  | reply -> begin
      w.bytes_received <- w.bytes_received + String.length reply;
      match Message.decode_response reply with
      | Ok r -> Ok r
      | Error e ->
          w.decode_failures <- w.decode_failures + 1;
          Error ("reply undecodable: " ^ e)
    end
  | exception exn ->
      w.faults <- w.faults + 1;
      charge_wait w w.retry.attempt_timeout_ns;
      Error ("transport failed: " ^ Printexc.to_string exn)

(* A logical roundtrip: bounded attempts with exponential backoff and
   jitter between them. Only wire-level failures (raises and
   undecodable replies) are retried; a well-formed reply — even
   [Protocol_error] — is the server's answer and is returned as is. *)
let exchange w bytes =
  w.requests <- w.requests + 1;
  let rec go failures =
    match attempt_once w bytes with
    | Ok r -> Ok r
    | Error e ->
        let failures = failures + 1 in
        if failures >= w.retry.attempts then Error e
        else begin
          w.retries <- w.retries + 1;
          charge_wait w (backoff_ns w ~failures);
          go failures
        end
  in
  go 0

let roundtrip t request = exchange t.wire (Message.encode_request request)

let connect ~ca ~clock ?max_bound_age_ns ?retry ?netsim transport =
  let wire = make_wire ?retry ?netsim transport in
  match exchange wire (Message.encode_request Message.Hello) with
  | Error e -> Error ("handshake failed: " ^ e)
  | Ok (Message.Hello_ack { store_id; signing_cert; deletion_cert }) -> begin
      match Client.connect ~ca ~clock ?max_bound_age_ns ~signing_cert ~deletion_cert ~store_id () with
      | Ok client -> Ok { wire; client; store_id }
      | Error e -> Error e
    end
  | Ok (Message.Protocol_error e) -> Error ("server error: " ^ e)
  | Ok
      ( Message.Read_reply _ | Message.Read_many_reply _ | Message.Audit_slice_reply _ | Message.Write_ack _
      | Message.Busy _ | Message.Cluster_hello_ack _ | Message.Cluster_read_reply _
      | Message.Cluster_read_many_reply _ | Message.Cluster_proof_reply _ | Message.Erasure_cert_reply _
      | Message.Cluster_erasure_reply _ ) ->
      Error "handshake failed: unexpected response"

let store_id t = t.store_id

let transport_stats t =
  let w = t.wire in
  {
    requests = w.requests;
    attempts = w.attempts;
    retries = w.retries;
    faults = w.faults;
    decode_failures = w.decode_failures;
    reverifications = w.reverifications;
    waited_ns = w.waited_ns;
  }

(* A transport that garbles, drops, or misroutes proves nothing — treat
   any protocol-level failure as an unproven absence, the same verdict a
   refusing host earns. *)
let transport_violation = Client.Violation [ Client.Absence_unproven ]

let read_once t sn =
  match roundtrip t (Message.Read sn) with
  | Ok (Message.Read_reply { sn = reply_sn; response }) when Serial.equal reply_sn sn ->
      Client.verify_read t.client ~sn response
  | Ok _ | Error _ -> transport_violation

(* A violating verdict is re-derived from fresh roundtrips before it is
   believed: transient wire damage (a garbled signature byte that still
   decodes, a dropped slice entry) heals into the clean verdict, while a
   genuine violation — which is a stable property of what the host
   serves — survives every re-read unchanged. *)
let read t sn =
  let rec go budget verdict =
    match verdict with
    | Client.Violation _ when budget > 0 ->
        t.wire.reverifications <- t.wire.reverifications + 1;
        charge_wait t.wire (backoff_ns t.wire ~failures:1);
        go (budget - 1) (read_once t sn)
    | v -> v
  in
  go t.wire.retry.verify_retries (read_once t sn)

let confirm t sn verdict =
  match verdict with
  | Client.Violation _ when t.wire.retry.verify_retries > 0 ->
      t.wire.reverifications <- t.wire.reverifications + 1;
      read t sn
  | v -> v

(* Erasure over the wire: the request is trivial, the receipt is what
   matters. A served certificate is verified under the store's deletion
   certificate before the caller ever sees it — a host claiming "I
   forgot the tenant" without its SCPU's signature proves nothing. *)
let erase_tenant t tenant =
  match roundtrip t (Message.Erase_tenant tenant) with
  | Ok (Message.Erasure_cert_reply (Some cert)) -> (
      match Client.verify_erasure_cert t.client cert with
      | Ok () -> Ok cert
      | Error e -> Error ("erasure certificate rejected: " ^ e))
  | Ok (Message.Erasure_cert_reply None) -> Error "server did not issue an erasure certificate"
  | Ok (Message.Protocol_error e) -> Error ("server refused erasure: " ^ e)
  | Ok _ -> Error "unexpected response to erase-tenant"
  | Error e -> Error e

let erasure_cert t tenant =
  match roundtrip t (Message.Erasure_cert_get tenant) with
  | Ok (Message.Erasure_cert_reply None) -> Ok None
  | Ok (Message.Erasure_cert_reply (Some cert)) -> (
      match Client.verify_erasure_cert t.client cert with
      | Ok () -> Ok (Some cert)
      | Error e -> Error ("erasure certificate rejected: " ^ e))
  | Ok (Message.Protocol_error e) -> Error ("server error: " ^ e)
  | Ok _ -> Error "unexpected response to erasure-cert-get"
  | Error e -> Error e

let audit_sweep t ~lo ~hi =
  let sns = Serial.range lo hi in
  match roundtrip t (Message.Read_many sns) with
  | Ok (Message.Read_many_reply replies) ->
      (* Reassemble through a hashtable: one pass over the reply list
         instead of a List.assoc per requested SN, and a reply list that
         answers the same SN twice — first-match-wins under the old
         List.assoc — is flagged instead of silently trusted. *)
      let by_sn = Hashtbl.create (List.length replies * 2) in
      let duplicated = Hashtbl.create 7 in
      List.iter
        (fun (sn, response) ->
          if Hashtbl.mem by_sn sn then Hashtbl.replace duplicated sn ()
          else Hashtbl.add by_sn sn response)
        replies;
      let answered =
        List.filter_map
          (fun sn ->
            if Hashtbl.mem duplicated sn then None
            else Option.map (fun r -> (sn, r)) (Hashtbl.find_opt by_sn sn))
          sns
      in
      let verified = Hashtbl.create (List.length answered * 2) in
      List.iter (fun (sn, v) -> Hashtbl.replace verified sn v) (Client.verify_read_many t.client answered);
      (* Requested serial order; unanswered and duplicated SNs prove
         nothing. Violations get a confirming re-read each. *)
      List.map
        (fun sn ->
          let v =
            match Hashtbl.find_opt verified sn with
            | Some v -> v
            | None -> transport_violation
          in
          (sn, confirm t sn v))
        sns
  | Ok _ | Error _ -> List.map (fun sn -> (sn, confirm t sn transport_violation)) sns

type remote_audit = {
  scanned : int;
  skipped_below_base : int64;
  round_trips : int;
  violations : (Serial.t * Client.verdict) list;
  resume : Serial.t option;
}

let run_remote_audit ?(batch = 64) ?(cursor = Serial.first) t =
  let batch = Stdlib.max 1 batch in
  let rec go cursor scanned skipped trips violations =
    match roundtrip t (Message.Audit_slice { cursor; max = batch }) with
    | Ok (Message.Audit_slice_reply { replies; next; base = _; current }) -> begin
        (* Each served batch verifies across the shared pool; only
           violations are kept, in reply order, exactly as the sequential
           fold — after a confirming re-read weeds out wire damage. *)
        let violations =
          List.fold_left
            (fun acc (sn, verdict) ->
              match verdict with
              | Client.Violation _ -> begin
                  match confirm t sn verdict with
                  | Client.Violation _ as v -> (sn, v) :: acc
                  | _ -> acc
                end
              | _ -> acc)
            violations
            (Client.verify_read_many t.client replies)
        in
        let scanned = scanned + List.length replies in
        match next with
        | None ->
            (* The walk stopped at the served current bound; one probe
               above it verifies the open upper region wholesale. *)
            let above = Serial.next current.Firmware.sn in
            let violations =
              match Client.verify_read t.client ~sn:above (Proof.Proof_unallocated current) with
              | Client.Violation _ as v -> (above, v) :: violations
              | _ -> violations
            in
            { scanned; skipped_below_base = skipped; round_trips = trips;
              violations = List.rev violations; resume = None }
        | Some resume_sn when Serial.( <= ) resume_sn cursor ->
            (* A server steering the cursor backwards (or in place) is
               stalling the audit; that is a refusal in disguise. *)
            { scanned; skipped_below_base = skipped; round_trips = trips;
              violations = List.rev ((resume_sn, transport_violation) :: violations); resume = None }
        | Some resume_sn ->
            let violations, skipped, probe_trips =
              if replies = [] then begin
                (* Fast-forward over the below-base region: legitimate
                   only when a valid base bound covers every skipped
                   serial, which one representative probe checks. *)
                match read t cursor with
                | Client.Properly_deleted -> (violations, Int64.add skipped (Serial.distance cursor resume_sn), 1)
                | Client.Violation _ as v -> ((cursor, v) :: violations, skipped, 1)
                | _ -> ((cursor, transport_violation) :: violations, skipped, 1)
              end
              else (violations, skipped, 0)
            in
            go resume_sn scanned skipped (trips + 1 + probe_trips) violations
      end
    | Ok _ ->
        (* A well-formed but wrong-shaped answer (or a served
           [Protocol_error]) is the server refusing the audit: a
           protocol violation at the cursor, exactly as before. *)
        { scanned; skipped_below_base = skipped; round_trips = trips;
          violations = List.rev ((cursor, transport_violation) :: violations); resume = None }
    | Error _ ->
        (* The wire gave out after every retry. That is transient
           transport failure, not evidence about the store: hand the
           cursor back so the sweep resumes where it stopped instead of
           flagging the cursor SN and restarting from Serial.first. *)
        { scanned; skipped_below_base = skipped; round_trips = trips;
          violations = List.rev violations; resume = Some cursor }
  in
  go cursor 0 0L 1 []

let run_remote_audit_to_completion ?batch ?(max_stalls = 2) t =
  let merge a b =
    {
      scanned = a.scanned + b.scanned;
      skipped_below_base = Int64.add a.skipped_below_base b.skipped_below_base;
      round_trips = a.round_trips + b.round_trips;
      violations = a.violations @ b.violations;
      resume = b.resume;
    }
  in
  let rec go acc cursor stalls =
    let run = run_remote_audit ?batch ~cursor t in
    let acc = match acc with None -> run | Some a -> merge a run in
    match run.resume with
    | None -> acc
    | Some c ->
        (* Keep resuming while the outage lets the cursor advance; a
           cursor pinned in place [max_stalls] consecutive times means
           the transport is down for good — return what we have, with
           [resume] still set so the caller can try again later. *)
        let stalls = if Serial.( > ) c cursor then 0 else stalls + 1 in
        if stalls > max_stalls then acc else go (Some acc) c stalls
  in
  go None Serial.first 0

let bytes_sent t = t.wire.bytes_sent
let bytes_received t = t.wire.bytes_received
