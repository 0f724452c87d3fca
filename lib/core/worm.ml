module Device = Worm_scpu.Device
module Cost_model = Worm_scpu.Cost_model
module Disk = Worm_simdisk.Disk
module Clock = Worm_simclock.Clock
module Chained_hash = Worm_crypto.Chained_hash

type datasig_mode = Scpu_hashes | Host_hash

type config = {
  datasig_mode : datasig_mode;
  default_witness : Firmware.witness_mode;
  vexp_capacity : int;
  dedup : bool;
  journal : bool;
  encrypt_at_rest : bool;
}

let default_config =
  {
    datasig_mode = Scpu_hashes;
    default_witness = Firmware.Strong_now;
    vexp_capacity = 4096;
    dedup = false;
    journal = false;
    encrypt_at_rest = false;
  }

(* §4.2.1 option ii: the current bound's timestamp is refreshed "every
   few minutes"; a bound older than this is re-signed before it is served. *)
let heartbeat_interval_ns = Clock.ns_of_sec 60.
let host_profile = Cost_model.host_p4

(* Most [Host_hash] audits one idle tick drains, so a huge audit backlog
   cannot starve deferred strengthening. *)
let idle_audit_budget = 256

type t = {
  config : config;
  fw : Firmware.t;
  disk : Disk.t;
  dedup : Dedup_store.t option;
  journal : Journal.t option;
  vault : Vault.t option;
  vrdt : Vrdt.t;
  tenants : Tenant_map.t;
  deferred : Deferred.t;
  audit_queue : (Serial.t, unit) Hashtbl.t;
  mutable vexp_backlog : (int64 * Serial.t) list;
  mutable windows : Firmware.deletion_window list;
  mutable current_cache : Firmware.current_bound;
  mutable base_cache : Firmware.base_bound;
  mutable host_busy_ns : int64;
  (* Adversarial failures surfaced by idle maintenance (audit mismatches,
     refused strengthenings): findings to report, not host crashes. *)
  mutable audit_findings : (Serial.t * Firmware.error) list;
}

let create ?(config = default_config) ?disk ~device ~ca () =
  if config.dedup && config.encrypt_at_rest then
    invalid_arg "Worm.create: dedup and encrypt_at_rest cannot be combined";
  let disk =
    match disk with
    | Some d -> d
    | None -> Disk.create ()
  in
  let fw = Firmware.create ~device ~ca ~vexp_capacity:config.vexp_capacity in
  {
    config;
    fw;
    disk;
    dedup = (if config.dedup then Some (Dedup_store.create disk) else None);
    journal = (if config.journal then Some (Journal.create fw) else None);
    vault = (if config.encrypt_at_rest then Some (Vault.create fw) else None);
    vrdt = Vrdt.create ();
    tenants = Tenant_map.create ();
    deferred = Deferred.create ();
    audit_queue = Hashtbl.create 64;
    vexp_backlog = [];
    windows = [];
    current_cache = Firmware.current_bound fw;
    base_cache = Firmware.base_bound fw;
    host_busy_ns = 0L;
    audit_findings = [];
  }

let firmware t = t.fw
let disk t = t.disk
let vrdt t = t.vrdt
let store_id t = Firmware.store_id t.fw
let now t = Device.now (Firmware.device t.fw)

let charge_host t ns = t.host_busy_ns <- Int64.add t.host_busy_ns ns

let record_op t op =
  match t.journal with
  | Some j -> ignore (Journal.append j op)
  | None -> ()

(* The cipher guarding one record's blocks: the SCPU's per-tenant key
   hierarchy when the record is tenanted, the store vault when
   encrypt_at_rest is on, neither otherwise. [Error] only once the
   tenant has been crypto-erased. *)
let record_cipher t ~(attr : Attr.t) ~sn =
  let tenant = attr.Attr.tenant in
  if String.equal tenant "" then Ok t.vault
  else begin
    match Firmware.record_key t.fw ~tenant ~sn with
    | Ok key -> Ok (Some (Vault.of_key key))
    | Error e -> Error e
  end

let tenant_erasure t (vrd : Vrd.t) =
  let tenant = vrd.Vrd.attr.Attr.tenant in
  if String.equal tenant "" then None else Firmware.erasure_cert_of t.fw tenant

let apply_cipher t ~(attr : Attr.t) cipher ~sn blocks =
  match cipher with
  | None -> blocks
  | Some v ->
      (* Tenant sealing runs on the host CPU (the derived key left the
         SCPU); the store-vault path keeps its historical free-of-charge
         accounting. *)
      let tenanted = not (String.equal attr.Attr.tenant "") in
      List.mapi
        (fun index b ->
          if tenanted then charge_host t (Cost_model.hash_ns host_profile ~bytes:(String.length b));
          Vault.seal v ~sn ~index b)
        blocks

let seal_blocks t ~(attr : Attr.t) ~sn blocks =
  match record_cipher t ~attr ~sn with
  | Ok cipher -> apply_cipher t ~attr cipher ~sn blocks
  | Error e ->
      (* Writes for erased tenants are refused at admission; reaching
         the sealing path with a dead key is a host-logic bug. *)
      invalid_arg ("Worm.seal_blocks: " ^ Firmware.error_to_string e)

(* CTR sealing is an involution, so unsealing is the same transform —
   but on the read path a dead tenant key is an expected outcome, not a
   bug, hence the result. *)
let unseal_blocks t ~(attr : Attr.t) ~sn blocks =
  match record_cipher t ~attr ~sn with
  | Ok cipher -> Ok (apply_cipher t ~attr cipher ~sn blocks)
  | Error e -> Error e

let store_blocks t blocks =
  match t.dedup with
  | Some d -> List.map (Dedup_store.store_block d) blocks
  | None -> List.map (Disk.write t.disk) blocks

let shred_rdl t ~passes rdl =
  match t.dedup with
  | Some d -> List.iter (fun rd -> ignore (Dedup_store.release d ~passes rd)) rdl
  | None -> List.iter (fun rd -> ignore (Disk.shred t.disk ~passes rd)) rdl

let host_chained_hash t blocks =
  (* Chained hash computed on the host CPU (Host_hash mode); each link
     hashes the block plus the 40-byte chain prefix. *)
  List.fold_left
    (fun acc block ->
      charge_host t (Cost_model.hash_ns host_profile ~bytes:(String.length block + 40));
      Chained_hash.add acc block)
    Chained_hash.empty blocks

(* The security lifetime applicable to deferred witnesses. *)
let deferred_deadline t (vrd : Vrd.t) =
  match Vrd.weakest_strength vrd with
  | `Strong -> None
  | `Weak -> begin
      match (vrd.Vrd.metasig, vrd.Vrd.datasig) with
      | Witness.Weak { cert; _ }, _ | _, Witness.Weak { cert; _ } -> Some cert.Worm_crypto.Cert.not_after
      | _ -> assert false
    end
  | `Mac ->
      let cfg = Device.config (Firmware.device t.fw) in
      Some (Int64.add (now t) cfg.Device.weak_lifetime_ns)

(* Host-side bookkeeping after the firmware witnessed a record: seal and
   store the blocks (sealing needs the SCPU-issued serial), activate the
   VRDT entry, and register the deferred/audit obligations. *)
let finish_write t ~blocks { Firmware.vrd; vexp_shed } =
  let rdl = store_blocks t (seal_blocks t ~attr:vrd.Vrd.attr ~sn:vrd.Vrd.sn blocks) in
  let vrd = { vrd with Vrd.rdl } in
  Vrdt.set_active t.vrdt vrd;
  Tenant_map.note t.tenants ~tenant:vrd.Vrd.attr.Attr.tenant ~sn:vrd.Vrd.sn;
  t.vexp_backlog <- vexp_shed @ t.vexp_backlog;
  (match deferred_deadline t vrd with
  | Some deadline -> Deferred.push t.deferred ~sn:vrd.Vrd.sn ~deadline
  | None -> ());
  (match t.config.datasig_mode with
  | Host_hash -> Hashtbl.replace t.audit_queue vrd.Vrd.sn ()
  | Scpu_hashes -> ());
  record_op t (Journal.Op_write vrd.Vrd.sn);
  vrd.Vrd.sn

let data_source_of_blocks t blocks =
  match t.config.datasig_mode with
  | Scpu_hashes -> Firmware.Blocks blocks
  | Host_hash ->
      let total = List.fold_left (fun acc b -> acc + String.length b) 0 blocks in
      Firmware.Claimed_hash (Chained_hash.value (host_chained_hash t blocks), total)

(* Admission check for tenanted writes: an erased tenant's identity is
   permanently closed. Checked before the firmware allocates a serial —
   raising later, mid-seal, would leak a witnessed record with no data. *)
let tenant_admission t (attr : Attr.t) =
  let tenant = attr.Attr.tenant in
  if (not (String.equal tenant "")) && Firmware.tenant_is_erased t.fw tenant then
    invalid_arg ("Worm.write: " ^ Firmware.error_to_string (Firmware.Tenant_erased tenant))

let write_attr_batch ?witness t entries =
  let witness =
    match witness with
    | Some w -> w
    | None -> t.config.default_witness
  in
  List.iter (fun (attr, _) -> tenant_admission t attr) entries;
  let prepared = List.map (fun (attr, blocks) -> (attr, [], data_source_of_blocks t blocks)) entries in
  let results = Firmware.write_batch t.fw ~mode:witness prepared in
  List.map2 (fun (_, blocks) result -> finish_write t ~blocks result) entries results

let write_batch ?witness t entries =
  write_attr_batch ?witness t
    (List.map
       (fun (policy, blocks) ->
         (Attr.make ~created_at:0L (* stamped by the firmware *) ~policy (), blocks))
       entries)

let write ?witness ?attr ?tenant t ~policy ~blocks =
  let attr =
    match attr with
    | Some a -> a
    | None -> Attr.make ?tenant ~created_at:0L (* stamped by the firmware *) ~policy ()
  in
  match write_attr_batch ?witness t [ (attr, blocks) ] with [ sn ] -> sn | _ -> assert false

type part = Fresh of string | Borrow of Serial.t * int

let write_shared ?witness t ~policy ~parts =
  match t.dedup with
  | None -> Error "write_shared requires a dedup-enabled store"
  | Some dedup -> begin
      (* resolve each part to its content (the SCPU witnesses the full
         logical record) and, for borrows, the existing block address *)
      let resolve part =
        match part with
        | Fresh block -> Ok (block, None)
        | Borrow (sn, index) -> begin
            match Vrdt.find t.vrdt sn with
            | Some (Vrdt.Active vrd) -> begin
                match List.nth_opt vrd.Vrd.rdl index with
                | None -> Error (Printf.sprintf "%s has no block %d" (Serial.to_string sn) index)
                | Some rd -> begin
                    match Disk.read t.disk rd with
                    | Some content -> Ok (content, Some rd)
                    | None -> Error (Printf.sprintf "block %d of %s unreadable" index (Serial.to_string sn))
                  end
              end
            | Some (Vrdt.Deleted _) | None -> Error (Serial.to_string sn ^ " is not an active record")
          end
      in
      let rec resolve_all acc = function
        | [] -> Ok (List.rev acc)
        | p :: rest -> begin
            match resolve p with
            | Ok r -> resolve_all (r :: acc) rest
            | Error e -> Error e
          end
      in
      match resolve_all [] parts with
      | Error e -> Error e
      | Ok resolved ->
          let witness =
            match witness with
            | Some w -> w
            | None -> t.config.default_witness
          in
          let blocks = List.map fst resolved in
          let attr = Attr.make ~created_at:0L ~policy () in
          let data = data_source_of_blocks t blocks in
          let { Firmware.vrd; vexp_shed } = Firmware.write t.fw ~attr ~rdl:[] ~data ~mode:witness in
          let rdl =
            List.map
              (fun (content, existing) ->
                match existing with
                | Some rd ->
                    ignore (Dedup_store.addref dedup rd);
                    rd
                | None -> Dedup_store.store_block dedup content)
              resolved
          in
          let vrd = { vrd with Vrd.rdl } in
          Vrdt.set_active t.vrdt vrd;
          t.vexp_backlog <- vexp_shed @ t.vexp_backlog;
          (match deferred_deadline t vrd with
          | Some deadline -> Deferred.push t.deferred ~sn:vrd.Vrd.sn ~deadline
          | None -> ());
          (match t.config.datasig_mode with
          | Host_hash -> Hashtbl.replace t.audit_queue vrd.Vrd.sn ()
          | Scpu_hashes -> ());
          record_op t (Journal.Op_write vrd.Vrd.sn);
          Ok vrd.Vrd.sn
    end

let import_record t ~source_signing_cert ~source_store_id ~vrd_bytes ~blocks =
  match Firmware.import t.fw ~source_signing_cert ~source_store_id ~vrd_bytes ~blocks with
  | Error e -> Error e
  | Ok { Firmware.vrd; vexp_shed } ->
      let rdl = store_blocks t (seal_blocks t ~attr:vrd.Vrd.attr ~sn:vrd.Vrd.sn blocks) in
      Vrdt.set_active t.vrdt { vrd with Vrd.rdl };
      Tenant_map.note t.tenants ~tenant:vrd.Vrd.attr.Attr.tenant ~sn:vrd.Vrd.sn;
      t.vexp_backlog <- vexp_shed @ t.vexp_backlog;
      Ok vrd.Vrd.sn

let heartbeat t =
  t.current_cache <- Firmware.current_bound t.fw;
  match t.journal with
  | Some j -> ignore (Journal.anchor j)
  | None -> ()

let current_bound_aged t =
  Int64.compare (Int64.sub (now t) t.current_cache.Firmware.timestamp) heartbeat_interval_ns > 0

(* The one freshness rule for the served SN_current bound. A bound that
   predates recent writes would truncate an audit walk (or undercount a
   cluster stripe) while still verifying, so re-sign when the SCPU
   counter has moved past the cache — and, like any heartbeat, when the
   timestamp has aged out. *)
let refresh_current_bound t =
  if Serial.(t.current_cache.Firmware.sn < Firmware.sn_current t.fw) || current_bound_aged t then heartbeat t

let cached_current_bound t =
  if current_bound_aged t then heartbeat t;
  t.current_cache

let cached_base_bound t =
  let fw_base = Firmware.sn_base t.fw in
  if
    (not (Serial.equal t.base_cache.Firmware.sn fw_base))
    || Int64.compare (now t) t.base_cache.Firmware.expires_at >= 0
  then t.base_cache <- Firmware.base_bound t.fw;
  t.base_cache

let find_window t sn =
  List.find_opt (fun w -> Serial.(w.Firmware.lo <= sn) && Serial.(sn <= w.Firmware.hi)) t.windows

let read t sn =
  match Vrdt.find t.vrdt sn with
  | Some (Vrdt.Active vrd) -> begin
      (* Erasure check first: a provable [Erased] outcome costs no disk
         I/O at all — the VRD plus the cached certificate suffice, so a
         post-erasure read is O(1) no matter how much the tenant wrote. *)
      match tenant_erasure t vrd with
      | Some cert -> Proof.Erased { vrd; cert }
      | None -> begin
          let blocks = List.map (Disk.read t.disk) vrd.Vrd.rdl in
          if List.exists Option.is_none blocks then Proof.Refused "data blocks unreadable"
          else begin
            match unseal_blocks t ~attr:vrd.Vrd.attr ~sn (List.filter_map Fun.id blocks) with
            | Ok blocks -> Proof.Found { vrd; blocks }
            | Error e -> Proof.Refused (Firmware.error_to_string e)
          end
        end
    end
  | Some (Vrdt.Deleted { proof }) -> Proof.Proof_deleted { sn; proof }
  | None -> begin
      match find_window t sn with
      | Some w -> Proof.Proof_in_window w
      | None ->
          let base = cached_base_bound t in
          if Serial.(sn < base.Firmware.sn) then Proof.Proof_below_base base
          else begin
            let current = cached_current_bound t in
            (* Compare against the SCPU counter, not the cached bound: a
               serial the counter has issued is never claimed
               unallocated, however far writes have run past the cache. *)
            if Serial.(sn > Firmware.sn_current t.fw) then Proof.Proof_unallocated current
            else Proof.Refused "no record and no proof (inconsistent store)"
          end
    end

let delete_one t sn =
  match Vrdt.find t.vrdt sn with
  | Some (Vrdt.Active vrd) -> begin
      match Firmware.delete t.fw ~vrd_bytes:(Vrd.to_bytes vrd) with
      | Ok proof ->
          let passes = vrd.Vrd.attr.Attr.policy.Policy.shred_passes in
          shred_rdl t ~passes vrd.Vrd.rdl;
          Vrdt.set_deleted t.vrdt sn ~proof;
          Tenant_map.remove t.tenants ~tenant:vrd.Vrd.attr.Attr.tenant ~sn;
          Deferred.remove t.deferred sn |> ignore;
          Hashtbl.remove t.audit_queue sn;
          record_op t (Journal.Op_delete sn);
          Ok ()
      | Error e -> Error e
    end
  | Some (Vrdt.Deleted _) -> Error Firmware.Already_deleted
  | None -> Error Firmware.Already_deleted

let expire_due t =
  let due = Firmware.rm_pop_due t.fw in
  List.map
    (fun (_expiry, sn) ->
      let result = delete_one t sn in
      (match result with
      | Error (Firmware.Not_expired real_expiry) ->
          (* stale schedule (e.g. the record was re-attributed); re-feed *)
          t.vexp_backlog <- (real_expiry, sn) :: t.vexp_backlog
      | Error (Firmware.On_litigation_hold _) | Error _ | Ok () -> ());
      (sn, result))
    due

let next_rm_wakeup t = Firmware.next_rm_wakeup t.fw

let with_active_vrd t sn f =
  match Vrdt.find t.vrdt sn with
  | Some (Vrdt.Active vrd) -> f vrd
  | Some (Vrdt.Deleted _) | None -> Error Firmware.Already_deleted

let lit_hold t ~sn ~authority ~credential ~lit_id ~timestamp ~timeout =
  with_active_vrd t sn (fun vrd ->
      match
        Firmware.lit_hold t.fw ~vrd_bytes:(Vrd.to_bytes vrd) ~authority ~credential ~lit_id ~timestamp ~timeout
      with
      | Ok vrd' ->
          Vrdt.set_active t.vrdt vrd';
          record_op t (Journal.Op_hold (sn, lit_id));
          Ok ()
      | Error e -> Error e)

let lit_release t ~sn ~authority ~credential ~timestamp =
  with_active_vrd t sn (fun vrd ->
      match Firmware.lit_release t.fw ~vrd_bytes:(Vrd.to_bytes vrd) ~authority ~credential ~timestamp with
      | Ok vrd' ->
          Vrdt.set_active t.vrdt vrd';
          record_op t
            (Journal.Op_release
               ( sn,
                 match vrd.Vrd.attr.Attr.litigation with
                 | Some h -> h.Attr.lit_id
                 | None -> "?" ));
          Ok ()
      | Error e -> Error e)

let read_blocks_opt t (vrd : Vrd.t) =
  let blocks = List.map (Disk.read t.disk) vrd.Vrd.rdl in
  if List.exists Option.is_none blocks then None
  else begin
    match unseal_blocks t ~attr:vrd.Vrd.attr ~sn:vrd.Vrd.sn (List.filter_map Fun.id blocks) with
    | Ok blocks -> Some blocks
    | Error _ -> None
  end

(* Deferred repayment drains in chunks so each trip into the firmware
   amortizes signing setup over a whole burst without holding an
   unboundedly large batch of VRDs in flight. *)
let strengthen_chunk = 32

let strengthen_pending t ?deadline ?(max = max_int) () =
  let strengthened = ref 0 in
  let taken = ref 0 in
  let continue = ref true in
  while !continue do
    let want = min strengthen_chunk (max - !taken) in
    let batch =
      if want <= 0 then []
      else begin
        match deadline with
        | Some d -> Deferred.take_until t.deferred ~deadline:d ~max:want
        | None -> Deferred.take_batch t.deferred ~max:want
      end
    in
    if batch = [] then continue := false
    else begin
      taken := !taken + List.length batch;
      let entries =
        List.filter_map
          (fun { Deferred.sn; _ } ->
            match Vrdt.find t.vrdt sn with
            | Some (Vrdt.Active vrd) ->
                if Hashtbl.mem t.audit_queue sn && tenant_erasure t vrd = None then begin
                  match read_blocks_opt t vrd with
                  | Some blocks -> Some (sn, vrd, Firmware.Blocks blocks)
                  | None ->
                      (* One unreadable record is a classified finding,
                         not an abort of the whole maintenance pass. *)
                      Hashtbl.remove t.audit_queue sn;
                      t.audit_findings <- (sn, Firmware.Data_required) :: t.audit_findings;
                      None
                end
                else
                  (* No pending audit — or an erased tenant, whose audit
                     the firmware discharges (the plaintext is gone by
                     design): strengthen over the claimed hash. *)
                  Some (sn, vrd, Firmware.Claimed_hash (vrd.Vrd.data_hash, 0))
            | Some (Vrdt.Deleted _) | None -> None)
          batch
      in
      let results =
        Firmware.strengthen_batch t.fw (List.map (fun (_, vrd, data) -> (Vrd.to_bytes vrd, data)) entries)
      in
      List.iter2
        (fun (sn, _, _) result ->
          match result with
          | Ok vrd' ->
              Vrdt.set_active t.vrdt vrd';
              Hashtbl.remove t.audit_queue sn;
              record_op t (Journal.Op_strengthen sn);
              incr strengthened
          | Error e ->
              (* An adversarial mismatch (or lapsed weak witness) is a
                 finding, not a host crash: record it and keep draining.
                 The record stays as-is; clients flag it on read. *)
              t.audit_findings <- (sn, e) :: t.audit_findings)
        entries results
    end
  done;
  !strengthened

type audit_outcome = { audited : int; mismatches : (Serial.t * Firmware.error) list }

let run_audits t ?(max = max_int) () =
  let pending = Hashtbl.fold (fun sn () acc -> sn :: acc) t.audit_queue [] |> List.sort Serial.compare in
  let rec go count bad = function
    | [] -> (count, bad)
    | _ when count >= max -> (count, bad)
    | sn :: rest -> begin
        match Vrdt.find t.vrdt sn with
        | Some (Vrdt.Active vrd) when tenant_erasure t vrd <> None ->
            (* Crypto-erased tenant: the obligation is moot (and the
               firmware discharges it); compliant, not a finding. *)
            Hashtbl.remove t.audit_queue sn;
            go count bad rest
        | Some (Vrdt.Active vrd) -> begin
            (* Both failure modes below are findings, never crashes: the
               queue keeps draining and the caller gets the classified
               outcome (unreadable data reports as [Data_required]). *)
            match read_blocks_opt t vrd with
            | None ->
                Hashtbl.remove t.audit_queue sn;
                go (count + 1) ((sn, Firmware.Data_required) :: bad) rest
            | Some blocks -> begin
                match Firmware.audit t.fw ~vrd_bytes:(Vrd.to_bytes vrd) ~blocks with
                | Ok () ->
                    Hashtbl.remove t.audit_queue sn;
                    go (count + 1) bad rest
                | Error e ->
                    Hashtbl.remove t.audit_queue sn;
                    go (count + 1) ((sn, e) :: bad) rest
              end
          end
        | Some (Vrdt.Deleted _) | None ->
            Hashtbl.remove t.audit_queue sn;
            go count bad rest
      end
  in
  let count, bad = go 0 [] pending in
  let mismatches = List.rev bad in
  t.audit_findings <- List.rev_append mismatches t.audit_findings;
  { audited = count; mismatches }

(* ---------- crypto-erasure (right to be forgotten) ---------- *)

(* O(1) in the tenant's record count: one firmware key destruction plus
   one journal line. Records stay in the VRDT — their ciphertext is now
   provably unrecoverable, and reads return [Proof.Erased] with the
   certificate instead of touching the disk. *)
let erase_tenant t ~tenant =
  let cert = Firmware.erase_tenant t.fw ~tenant in
  record_op t (Journal.Op_custom ("erase-tenant:" ^ tenant));
  cert

let erasure_cert_of t tenant = Firmware.erasure_cert_of t.fw tenant
let tenant_is_erased t tenant = Firmware.tenant_is_erased t.fw tenant
let erased_tenants t = Firmware.erased_tenants t.fw
let tenant_serials t tenant = Tenant_map.serials t.tenants tenant
let tenant_record_count t tenant = Tenant_map.count t.tenants tenant
(* "Live" excludes erased tenants: their serials stay indexed (the VRDT
   still holds the records), but for reporting they are gone. *)
let live_tenants t =
  List.filter (fun tenant -> not (tenant_is_erased t tenant)) (Tenant_map.tenants t.tenants)

let drain_audit_findings t =
  let findings = List.rev t.audit_findings in
  t.audit_findings <- [];
  findings

let compact_windows t =
  (* Prune entries already covered by the base bound... *)
  let base = Firmware.sn_base t.fw in
  let pruned =
    Vrdt.fold t.vrdt ~init:[] ~f:(fun acc sn entry ->
        match entry with
        | Vrdt.Deleted _ when Serial.(sn < base) -> sn :: acc
        | Vrdt.Deleted _ | Vrdt.Active _ -> acc)
  in
  List.iter (Vrdt.drop t.vrdt) pruned;
  t.windows <- List.filter (fun w -> Serial.(w.Firmware.hi >= base)) t.windows;
  (* ...then collapse contiguous runs of >= 3 deletion proofs. *)
  let deleted =
    Vrdt.fold t.vrdt ~init:[] ~f:(fun acc sn entry ->
        match entry with
        | Vrdt.Deleted _ -> sn :: acc
        | Vrdt.Active _ -> acc)
    |> List.sort Serial.compare
  in
  let runs =
    let rec group acc run = function
      | [] -> List.rev (List.rev run :: acc)
      | sn :: rest -> begin
          match run with
          | prev :: _ when Serial.equal sn (Serial.next prev) -> group acc (sn :: run) rest
          | _ :: _ -> group (List.rev run :: acc) [ sn ] rest
          | [] -> group acc [ sn ] rest
        end
    in
    match deleted with
    | [] -> []
    | _ -> group [] [] deleted |> List.filter (fun run -> List.length run >= 3)
  in
  List.fold_left
    (fun expelled run ->
      match run with
      | [] -> expelled
      | lo :: _ -> begin
          let hi = List.nth run (List.length run - 1) in
          match Firmware.collapse_window t.fw ~lo ~hi with
          | Ok window ->
              List.iter (Vrdt.drop t.vrdt) run;
              t.windows <- window :: t.windows;
              record_op t (Journal.Op_window (window.Firmware.lo, window.Firmware.hi));
              expelled + List.length run
          | Error _ -> expelled
        end)
    (List.length pruned) runs

let refeed_vexp t =
  let backlog = t.vexp_backlog in
  t.vexp_backlog <- Firmware.vexp_feed t.fw backlog;
  List.length t.vexp_backlog

let idle_tick t =
  heartbeat t;
  ignore (strengthen_pending t ());
  (* Budgeted: a huge Host_hash backlog must not starve the rest of the
     tick (deferred strengthening ran first, vexp/window work follows). *)
  ignore (run_audits t ~max:idle_audit_budget ());
  ignore (refeed_vexp t);
  ignore (compact_windows t)

(* ---------- host restart ---------- *)

module Codec = Worm_util.Codec

let host_state_magic = "worm-host-state:v1"

let encode_vrdt_entry enc (sn, entry) =
  Serial.encode enc sn;
  match entry with
  | Vrdt.Active vrd ->
      Codec.u8 enc 0;
      Vrd.encode enc vrd
  | Vrdt.Deleted { proof } ->
      Codec.u8 enc 1;
      Codec.bytes enc proof

let decode_vrdt_entry dec =
  let sn = Serial.decode dec in
  match Codec.read_u8 dec with
  | 0 -> (sn, Vrdt.Active (Vrd.decode dec))
  | 1 -> (sn, Vrdt.Deleted { proof = Codec.read_bytes dec })
  | n -> raise (Codec.Malformed (Printf.sprintf "bad vrdt entry tag %d" n))

let save_host_state t =
  Codec.encode
    (fun enc () ->
      Codec.bytes enc host_state_magic;
      Codec.list encode_vrdt_entry enc (Vrdt.Raw.snapshot t.vrdt);
      Codec.list Firmware.encode_deletion_window enc t.windows;
      Codec.list
        (fun enc { Deferred.sn; deadline } ->
          Serial.encode enc sn;
          Codec.u64 enc deadline)
        enc (Deferred.to_list t.deferred);
      Codec.list (fun enc sn -> Serial.encode enc sn) enc
        (Hashtbl.fold (fun sn () acc -> sn :: acc) t.audit_queue []);
      Codec.list
        (fun enc (expiry, sn) ->
          Codec.u64 enc expiry;
          Serial.encode enc sn)
        enc t.vexp_backlog)
    ()

let restore ?(config = default_config) ~firmware:fw ~disk ~host_state () =
  if config.dedup && config.encrypt_at_rest then
    invalid_arg "Worm.restore: dedup and encrypt_at_rest cannot be combined";
  let decode dec =
    let magic = Codec.read_bytes dec in
    if not (String.equal magic host_state_magic) then raise (Codec.Malformed "not a host-state blob");
    let entries = Codec.read_list decode_vrdt_entry dec in
    let windows = Codec.read_list Firmware.decode_deletion_window dec in
    let deferred = Codec.read_list
        (fun dec ->
          let sn = Serial.decode dec in
          let deadline = Codec.read_u64 dec in
          (sn, deadline))
        dec
    in
    let audits = Codec.read_list Serial.decode dec in
    let backlog = Codec.read_list
        (fun dec ->
          let expiry = Codec.read_u64 dec in
          let sn = Serial.decode dec in
          (expiry, sn))
        dec
    in
    (entries, windows, deferred, audits, backlog)
  in
  match Codec.decode decode host_state with
  | Error e -> Error ("host state rejected: " ^ e)
  | Ok (entries, windows, deferred_entries, audits, backlog) ->
      let vrdt = Vrdt.create () in
      Vrdt.Raw.restore vrdt entries;
      (* The tenant index is derivable state: rebuilt from VRDT attrs,
         so the host-state blob format is unchanged. *)
      let tenants = Tenant_map.create () in
      List.iter
        (fun (sn, entry) ->
          match entry with
          | Vrdt.Active vrd -> Tenant_map.note tenants ~tenant:vrd.Vrd.attr.Attr.tenant ~sn
          | Vrdt.Deleted _ -> ())
        entries;
      let dedup =
        if config.dedup then begin
          let holders =
            List.filter_map
              (fun (_, entry) ->
                match entry with
                | Vrdt.Active vrd -> Some vrd.Vrd.rdl
                | Vrdt.Deleted _ -> None)
              entries
          in
          Some (Dedup_store.rebuild disk ~holders)
        end
        else None
      in
      let deferred = Deferred.create () in
      List.iter (fun (sn, deadline) -> Deferred.push deferred ~sn ~deadline) deferred_entries;
      let audit_queue = Hashtbl.create 64 in
      List.iter (fun sn -> Hashtbl.replace audit_queue sn ()) audits;
      Ok
        {
          config;
          fw;
          disk;
          dedup;
          journal = (if config.journal then Some (Journal.create fw) else None);
          vault = (if config.encrypt_at_rest then Some (Vault.create fw) else None);
          vrdt;
          tenants;
          deferred;
          audit_queue;
          vexp_backlog = backlog;
          windows;
          current_cache = Firmware.current_bound fw;
          base_cache = Firmware.base_bound fw;
          host_busy_ns = 0L;
          audit_findings = [];
        }

let dedup_stats t = Option.map Dedup_store.stats t.dedup
let journal t = t.journal
let vault t = t.vault

type metrics = {
  m_active : int;
  m_deleted_entries : int;
  m_windows : int;
  m_vrdt_bytes : int;
  m_deferred : int;
  m_audit_backlog : int;
  m_vexp_backlog : int;
  m_sn_base : Serial.t;
  m_sn_current : Serial.t;
  m_disk_records : int;
  m_disk_bytes : int;
  m_journal_entries : int;
  m_dedup_ratio : float;
}

let metrics t =
  {
    m_active = Vrdt.active_count t.vrdt;
    m_deleted_entries = Vrdt.deleted_count t.vrdt;
    m_windows = List.length t.windows;
    m_vrdt_bytes = Vrdt.approx_bytes t.vrdt;
    m_deferred = Deferred.length t.deferred;
    m_audit_backlog = Hashtbl.length t.audit_queue;
    m_vexp_backlog = List.length t.vexp_backlog;
    m_sn_base = Firmware.sn_base t.fw;
    m_sn_current = Firmware.sn_current t.fw;
    m_disk_records = Disk.record_count t.disk;
    m_disk_bytes = Disk.bytes_stored t.disk;
    m_journal_entries =
      (match t.journal with
      | Some j -> Journal.length j
      | None -> 0);
    m_dedup_ratio =
      (match t.dedup with
      | Some d -> Dedup_store.dedup_ratio d
      | None -> 1.0);
  }

let pp_metrics fmt m =
  Format.fprintf fmt
    "active %d, deletion proofs %d, windows %d, vrdt %dB, deferred %d, audits %d, vexp backlog %d, window \
     [%a, %a], disk %d recs/%dB, journal %d, dedup %.2fx"
    m.m_active m.m_deleted_entries m.m_windows m.m_vrdt_bytes m.m_deferred m.m_audit_backlog m.m_vexp_backlog
    Serial.pp m.m_sn_base Serial.pp m.m_sn_current m.m_disk_records m.m_disk_bytes m.m_journal_entries
    m.m_dedup_ratio
let deferred_backlog t = Deferred.to_list t.deferred
let deferred_length t = Deferred.length t.deferred
let deferred_overdue t ~now = Deferred.overdue t.deferred ~now
let audit_backlog t = Hashtbl.fold (fun sn () acc -> sn :: acc) t.audit_queue [] |> List.sort Serial.compare
let deletion_windows t = t.windows
let vrdt_bytes t = Vrdt.approx_bytes t.vrdt
let host_busy_ns t = t.host_busy_ns
let reset_host_busy t = t.host_busy_ns <- 0L

(* ---------- scrubber hooks ---------- *)

let peek_current_bound t = t.current_cache
let peek_base_bound t = t.base_cache

let request_audit t sn =
  match Vrdt.find t.vrdt sn with
  | Some (Vrdt.Active _) ->
      Firmware.reaudit t.fw ~sn;
      Hashtbl.replace t.audit_queue sn ();
      true
  | Some (Vrdt.Deleted _) | None -> false

module Raw = struct
  let set_windows t ws = t.windows <- ws
end
