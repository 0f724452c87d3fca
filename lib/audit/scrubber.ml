open Worm_core
module Codec = Worm_util.Codec
module Cost_model = Worm_scpu.Cost_model
module Device = Worm_scpu.Device
module Rsa = Worm_crypto.Rsa
module Cert = Worm_crypto.Cert

type config = {
  slice_budget_ns : int64;
  max_records_per_slice : int;
  max_bound_age_ns : int64;
}

let default_config =
  { slice_budget_ns = 5_000_000L; max_records_per_slice = 512; max_bound_age_ns = 300_000_000_000L }

(* A pass walks [cursor, target] — the SN space as it stood when the
   pass began. Records written after the snapshot belong to the next
   pass; an ever-growing store must not keep a pass from terminating. *)
type pass = { target : Serial.t; mutable scanned : int; mutable slices : int; mutable spent_ns : int64 }

type t = {
  store : Worm.t;
  client : Client.t;
  cfg : config;
  mutable mirror : Replicator.t option;
  mutable cursor : Serial.t;
  mutable pass : pass option;
  mutable pass_findings : Finding.t list;  (* newest first *)
  mutable last : Report.t option;
}

let create ?(config = default_config) ~store ~client () =
  { store; client; cfg = config; mirror = None; cursor = Serial.first; pass = None; pass_findings = [];
    last = None }

let attach_mirror t r = t.mirror <- Some r
let config t = t.cfg
let cursor t = t.cursor
let findings t = List.rev t.pass_findings
let last_report t = t.last

let fw t = Worm.firmware t.store
let now t = Device.now (Firmware.device (fw t))
let signing_key t = (Firmware.signing_cert (fw t)).Cert.key

let flag t subject cls detail = t.pass_findings <- Finding.make subject cls detail :: t.pass_findings

(* ---------- per-SN verification ---------- *)

(* What one scrubbed SN costs the host: two public-key verifications
   (both witnesses, or a proof plus a bound) and a hash over whatever
   data came back. Billed to the store's host ledger so the simulator's
   audit-overhead section measures real contention with writes. *)
let record_cost blocks =
  let p = Worm.host_profile in
  let bytes = List.fold_left (fun acc b -> acc + String.length b) 0 blocks in
  Int64.add (Int64.mul 2L (Cost_model.rsa_verify_ns p ~bits:1024)) (Cost_model.hash_ns p ~bytes:(bytes + 40))

let blocks_of = function
  | Proof.Found { blocks; _ } -> blocks
  | _ -> []

(* Turn one (response, verdict) pair into findings. *)
let classify t sn response verdict =
  match (response, verdict) with
  | Proof.Refused excuse, _ -> begin
      (* A refusal is never legitimate (Theorem 2); distinguish the
         repairable case — live VRDT entry whose data blocks are gone —
         from a flat absence claim with no proof. *)
      match Vrdt.find (Worm.vrdt t.store) sn with
      | Some (Vrdt.Active _) -> flag t (Finding.Record sn) Finding.Unreadable ("data blocks unreadable: " ^ excuse)
      | _ -> flag t (Finding.Record sn) Finding.Missing_proof ("read refused: " ^ excuse)
    end
  | _, Client.Violation vs ->
      flag t (Finding.Record sn) (Finding.of_violations vs)
        (String.concat "; " (List.map Client.violation_to_string vs))
  | _, Client.Never_written ->
      (* The walk only probes serials at or below the pass target — the
         SCPU's counter when the pass began — so this absence claim is
         false even when a within-tolerance stale bound lets a remote
         client accept it (the §4.2.1 staleness window). *)
      flag t (Finding.Record sn) Finding.Missing_proof "never-written claimed for an allocated serial"
  | _, (Client.Valid_data _ | Client.Committed_unverifiable | Client.Properly_deleted | Client.Properly_erased) ->
      (* Properly_erased is compliant: the cert verified, the tenant's
         records are provably unrecoverable — nothing to flag. *)
      ()

(* ---------- cross-cutting invariants ---------- *)

let check_bounds t =
  (* Peek, do not refresh: cached_current_bound would heal the very
     staleness we are here to detect. *)
  let cb = Worm.peek_current_bound t.store in
  let cb_msg = Wire.current_bound_msg ~store_id:(Worm.store_id t.store) ~sn:cb.Firmware.sn ~timestamp:cb.Firmware.timestamp in
  if not (Rsa.verify (signing_key t) ~msg:cb_msg ~signature:cb.Firmware.signature) then
    flag t Finding.Bounds Finding.Bad_signature "current-bound signature does not verify"
  else if Int64.compare (Int64.sub (now t) cb.Firmware.timestamp) t.cfg.max_bound_age_ns > 0 then
    flag t Finding.Bounds Finding.Stale_bound
      (Printf.sprintf "current bound is %Lds old" (Int64.div (Int64.sub (now t) cb.Firmware.timestamp) 1_000_000_000L));
  let bb = Worm.cached_base_bound t.store in
  let bb_msg = Wire.base_bound_msg ~store_id:(Worm.store_id t.store) ~sn:bb.Firmware.sn ~expires_at:bb.Firmware.expires_at in
  if not (Rsa.verify (signing_key t) ~msg:bb_msg ~signature:bb.Firmware.signature) then
    flag t Finding.Bounds Finding.Bad_signature "base-bound signature does not verify"
  else if Int64.compare (now t) bb.Firmware.expires_at >= 0 then
    flag t Finding.Bounds Finding.Stale_bound "base bound expired and was not re-fetched"

let check_windows t =
  List.iter
    (fun (w : Firmware.deletion_window) ->
      (* The client's window check covers signature validity, id
         correlation, and coverage of the probe serial. *)
      (match Client.verify_read t.client ~sn:w.Firmware.lo (Proof.Proof_in_window w) with
      | Client.Violation vs ->
          flag t
            (Finding.Window (w.Firmware.lo, w.Firmware.hi))
            Finding.Torn_window
            (String.concat "; " (List.map Client.violation_to_string vs))
      | _ -> ());
      (* A coherent-looking window must not shadow live records. *)
      List.iter
        (fun sn ->
          match Vrdt.find (Worm.vrdt t.store) sn with
          | Some (Vrdt.Active _) ->
              flag t
                (Finding.Window (w.Firmware.lo, w.Firmware.hi))
                Finding.Torn_window
                ("window covers live record " ^ Serial.to_string sn)
          | _ -> ())
        (Serial.range w.Firmware.lo w.Firmware.hi))
    (Worm.deletion_windows t.store)

let check_journal t =
  match Worm.journal t.store with
  | None -> ()
  | Some j ->
      let entries = Journal.entries j in
      if not (Journal.verify_chain ~entries) then
        flag t Finding.Journal Finding.Bad_signature "journal hash chain is inconsistent"
      else begin
        match List.rev (Journal.anchors j) with
        | [] -> ()
        | anchor :: _ ->
            if not (Journal.verify_anchor ~signing:(signing_key t) ~store_id:(Worm.store_id t.store) ~entries anchor)
            then flag t Finding.Journal Finding.Bad_signature "latest SCPU anchor does not verify against the chain"
      end

let check_backlogs t =
  let vrdt = Worm.vrdt t.store in
  List.iter
    (fun sn ->
      match Vrdt.find vrdt sn with
      | Some (Vrdt.Active _) -> ()
      | _ ->
          flag t Finding.Backlog Finding.Backlog_anomaly
            ("audit queue references non-live record " ^ Serial.to_string sn))
    (Worm.audit_backlog t.store);
  List.iter
    (fun (e : Deferred.entry) ->
      match Vrdt.find vrdt e.Deferred.sn with
      | Some (Vrdt.Active _) -> ()
      | _ ->
          flag t Finding.Backlog Finding.Backlog_anomaly
            ("deferred queue references non-live record " ^ Serial.to_string e.Deferred.sn))
    (Worm.deferred_backlog t.store);
  List.iter
    (fun (e : Deferred.entry) ->
      flag t Finding.Backlog Finding.Backlog_anomaly
        (Printf.sprintf "record %s is past its strengthening deadline" (Serial.to_string e.Deferred.sn)))
    (Worm.deferred_overdue t.store ~now:(now t));
  (* Failures idle maintenance already hit (audit mismatches, refused
     strengthenings) fold into this pass's findings. *)
  List.iter
    (fun (sn, e) ->
      flag t (Finding.Record sn) (Finding.of_firmware_error e)
        ("idle maintenance: " ^ Firmware.error_to_string e))
    (Worm.drain_audit_findings t.store)

let cross_cutting_cost t =
  let p = Worm.host_profile in
  (* Bounds, latest anchor, and per-window bound pairs: all public-key
     verifications. *)
  let windows = List.length (Worm.deletion_windows t.store) in
  Int64.mul (Int64.of_int (3 + (2 * windows))) (Cost_model.rsa_verify_ns p ~bits:1024)

(* ---------- pass / slice machinery ---------- *)

let begin_pass t =
  t.cursor <- Serial.first;
  t.pass <- Some { target = Firmware.sn_current (fw t); scanned = 0; slices = 0; spent_ns = 0L };
  t.pass_findings <- []

let make_report t (pass : pass) ~complete =
  {
    Report.store_id = Worm.store_id t.store;
    sn_base = Firmware.sn_base (fw t);
    sn_current = Firmware.sn_current (fw t);
    records_scanned = pass.scanned;
    slices = pass.slices;
    host_ns = pass.spent_ns;
    pass_complete = complete;
    findings = List.rev t.pass_findings;
  }

type slice_stats = { examined : int; spent_ns : int64; pass_completed : bool }

let finalize_pass t (pass : pass) =
  check_bounds t;
  check_windows t;
  check_journal t;
  check_backlogs t;
  let cost = cross_cutting_cost t in
  pass.spent_ns <- Int64.add pass.spent_ns cost;
  t.last <- Some (make_report t pass ~complete:true);
  t.pass <- None;
  cost

let run_slice t =
  let pass =
    match t.pass with
    | Some p -> p
    | None ->
        begin_pass t;
        Option.get t.pass
  in
  pass.slices <- pass.slices + 1;
  let spent = ref 0L in
  let examined = ref 0 in
  let budget_left () =
    Int64.compare !spent t.cfg.slice_budget_ns < 0 && !examined < t.cfg.max_records_per_slice
  in
  (* Reads stay on this domain (the store's Hashtbls are single-writer).
     A record's cost depends on its response alone, never on its
     verdict, so the slice reads exactly the serials its budget affords
     and then verifies them as one batch on the shared pool: the reads,
     the cursor, the findings (classified in SN order) and the billed
     cost are those of a read-verify-classify walk, one SN at a time. *)
  let batch = ref [] in
  while Serial.(t.cursor <= pass.target) && budget_left () do
    let sn = t.cursor in
    let response = Worm.read t.store sn in
    batch := (sn, response) :: !batch;
    spent := Int64.add !spent (record_cost (blocks_of response));
    incr examined;
    t.cursor <- Serial.next sn
  done;
  let responses = List.rev !batch in
  List.iter2
    (fun (sn, response) (_, verdict) -> classify t sn response verdict)
    responses
    (Client.verify_read_many t.client responses);
  pass.scanned <- pass.scanned + !examined;
  pass.spent_ns <- Int64.add pass.spent_ns !spent;
  let completed =
    if Serial.(t.cursor > pass.target) && budget_left () then begin
      spent := Int64.add !spent (finalize_pass t pass);
      true
    end
    else false
  in
  Worm.charge_host t.store !spent;
  { examined = !examined; spent_ns = !spent; pass_completed = completed }

let report t =
  match (t.pass, t.last) with
  | Some pass, _ -> make_report t pass ~complete:false
  | None, Some r -> r
  | None, None -> make_report t { target = Serial.zero; scanned = 0; slices = 0; spent_ns = 0L } ~complete:false

let run_pass t =
  let rec go () =
    let stats = run_slice t in
    if stats.pass_completed then Option.get t.last else go ()
  in
  go ()

(* ---------- checkpointing ---------- *)

let state_magic = "worm-audit-state:v1"

let save_state t =
  Codec.encode
    (fun enc () ->
      Codec.bytes enc state_magic;
      Codec.bytes enc (Worm.store_id t.store);
      Serial.encode enc t.cursor;
      (Codec.option (fun enc (p : pass) ->
           Serial.encode enc p.target;
           Codec.int_as_u64 enc p.scanned;
           Codec.int_as_u64 enc p.slices;
           Codec.u64 enc p.spent_ns))
        enc t.pass;
      Codec.list Finding.encode enc (List.rev t.pass_findings))
    ()

let reset t =
  t.cursor <- Serial.first;
  t.pass <- None;
  t.pass_findings <- []

let load_state t blob =
  let decoded =
    Codec.decode
      (fun dec ->
        let magic = Codec.read_bytes dec in
        if not (String.equal magic state_magic) then raise (Codec.Malformed "bad audit-state magic");
        let store_id = Codec.read_bytes dec in
        if not (String.equal store_id (Worm.store_id t.store)) then
          raise (Codec.Malformed "audit state belongs to a different store");
        let cursor = Serial.decode dec in
        let pass =
          Codec.read_option
            (fun dec ->
              let target = Serial.decode dec in
              let scanned = Codec.read_int_as_u64 dec in
              let slices = Codec.read_int_as_u64 dec in
              let spent_ns = Codec.read_u64 dec in
              { target; scanned; slices; spent_ns })
            dec
        in
        let findings = Codec.read_list Finding.decode dec in
        (cursor, pass, findings))
      blob
  in
  match decoded with
  | Ok (cursor, pass, findings) ->
      t.cursor <- cursor;
      t.pass <- pass;
      t.pass_findings <- List.rev findings;
      Ok ()
  | Error e ->
      (* Never resume from bytes we cannot trust: a truncated cursor
         could silently skip a damaged region. Start over from the
         bottom of the SN space instead. *)
      reset t;
      Error ("audit checkpoint rejected (restarting from SN base): " ^ e)

(* ---------- repair ---------- *)

type repair_outcome = { finding : Finding.t; action : string; result : (unit, string) result }

let need_mirror t f =
  match t.mirror with
  | Some r -> f r
  | None -> Error "no mirror attached"

let window_of t lo hi =
  List.find_opt
    (fun (w : Firmware.deletion_window) -> Serial.equal w.Firmware.lo lo && Serial.equal w.Firmware.hi hi)
    (Worm.deletion_windows t.store)

let repair_torn_window t lo hi =
  match window_of t lo hi with
  | None -> Ok ()
  | Some bad -> begin
      let others = List.filter (fun w -> w != bad) (Worm.deletion_windows t.store) in
      (* Re-certify through the SCPU: collapse_window only signs bounds
         for runs it knows are fully deleted, so either we get a fresh
         coherent window or the torn one was misplaced and is dropped —
         per-SN proofs and the base bound still cover the range. *)
      match Firmware.collapse_window (fw t) ~lo ~hi with
      | Ok fresh ->
          Worm.Raw.set_windows t.store (fresh :: others);
          Ok ()
      | Error _ ->
          Worm.Raw.set_windows t.store others;
          Ok ()
    end

let repair_record t r sn cls =
  let requeue () = ignore (Worm.request_audit t.store sn) in
  match cls with
  | Finding.Bad_signature -> begin
      match Replicator.heal_witness r ~sn with
      | Ok () ->
          requeue ();
          Ok ()
      | Error _ when Vrdt.find (Worm.vrdt t.store) sn = None ->
          Result.map (fun _ -> ()) (Replicator.heal_missing r ~sn)
      | Error e -> Error e
    end
  | Finding.Data_mismatch | Finding.Unreadable -> begin
      match Replicator.heal_data r ~sn with
      | Ok () ->
          requeue ();
          Ok ()
      | Error _ when Vrdt.find (Worm.vrdt t.store) sn = None ->
          Result.map (fun _ -> ()) (Replicator.heal_missing r ~sn)
      | Error e -> Error e
    end
  | Finding.Missing_proof -> Result.map (fun _ -> ()) (Replicator.heal_missing r ~sn)
  | _ -> Error "no automated repair for this class"

let repair_one t (f : Finding.t) =
  (* Repairs that make the SCPU re-sign — a heartbeat refreshing the
     current bound, a window re-certification, a re-issued deletion
     proof — end the epoch the client's verified-signature memo was
     built in. Drop it so post-repair reads verify live state. *)
  let invalidate () = Client.invalidate_verify_cache t.client in
  match (f.Finding.subject, f.Finding.cls) with
  | _, Finding.Stale_bound ->
      Worm.heartbeat t.store;
      invalidate ();
      ("heartbeat", Ok ())
  | Finding.Window (lo, hi), _ ->
      let result = repair_torn_window t lo hi in
      invalidate ();
      ("re-certify window", result)
  | Finding.Record sn, Finding.Missing_proof -> begin
      (* The SCPU can restore evidence it positively holds: a deletion
         proof for a serial in its deleted set or below its base. *)
      match Firmware.reissue_deletion_proof (fw t) ~sn with
      | Ok proof ->
          Vrdt.set_deleted (Worm.vrdt t.store) sn ~proof;
          invalidate ();
          ("re-issue deletion proof", Ok ())
      | Error Firmware.Not_deleted ->
          ("re-ingest from mirror", need_mirror t (fun r -> repair_record t r sn Finding.Missing_proof))
      | Error e -> ("re-issue deletion proof", Error (Firmware.error_to_string e))
    end
  | Finding.Record sn, (Finding.Bad_signature | Finding.Data_mismatch | Finding.Unreadable) ->
      ("heal from mirror", need_mirror t (fun r -> repair_record t r sn f.Finding.cls))
  | _, _ -> ("none", Error "no automated repair for this finding")

let repair_all t =
  let findings =
    match t.last with
    | Some r -> r.Report.findings
    | None -> []
  in
  List.map
    (fun f ->
      let action, result = repair_one t f in
      { finding = f; action; result })
    findings
