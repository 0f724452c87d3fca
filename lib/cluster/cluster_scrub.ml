open Worm_core
module Report = Worm_audit.Report
module Scrubber = Worm_audit.Scrubber
module Finding = Worm_audit.Finding
module Sha256 = Worm_crypto.Sha256

type outcome = { merged : Report.t; per_shard : (int * Report.t) list; skipped : int list }

let scrubbers ?config router =
  List.init (Shard_router.shard_count router) Fun.id
  |> List.filter_map (fun i ->
         match Shard_router.serving_store router i with
         | None -> None
         | Some store ->
             let client = Client.for_store ~ca:(Shard_router.ca_public router) ~clock:(Shard_router.clock router) store in
             let scrubber = Scrubber.create ?config ~store ~client () in
             (* The repair engine can heal from the mirror only while the
                replicator's primary is the store being scrubbed — i.e.
                the shard is serving its primary, not a fenced fallback;
                [Shard_router.replicator] returns [None] otherwise. *)
             Option.iter (Scrubber.attach_mirror scrubber) (Shard_router.replicator router i);
             Some (i, scrubber))

let cluster_store_id router =
  let ids =
    List.init (Shard_router.shard_count router) (fun i ->
        match Shard_router.serving_store router i with
        | Some store -> Worm.store_id store
        | None -> "")
  in
  "cluster:" ^ String.sub (Worm_util.Hex.encode (Sha256.digest (String.concat "|" ids))) 0 12

(* The first global serial not provably below its owner's base — the
   same scan {!Cluster_proof.global_base} performs, here from the live
   stores instead of a shipped proof. *)
let global_base router =
  let n = Shard_router.shard_count router in
  let base_of i =
    match Shard_router.serving_store router i with
    | Some store -> (Worm.metrics store).Worm.m_sn_base
    | None -> Serial.zero
  in
  let bases = Array.init n base_of in
  let limit = Array.fold_left (fun acc b -> max acc (Serial.to_int b)) 1 bases * n in
  let rec scan g =
    if g > limit then Serial.of_int limit
    else
      let s = Partition.shard_of ~shards:n (Serial.of_int g) in
      let l = Partition.local_of ~shards:n (Serial.of_int g) in
      if Serial.(l < bases.(s)) then scan (g + 1) else Serial.of_int g
  in
  scan 1

let global_current router =
  let n = Shard_router.shard_count router in
  let total = ref 0 in
  for i = 0 to n - 1 do
    match Shard_router.serving_store router i with
    | Some store -> total := !total + Serial.to_int (Worm.metrics store).Worm.m_sn_current
    | None -> ()
  done;
  Serial.of_int !total

let tag_findings i findings =
  List.map
    (fun (f : Finding.t) -> { f with Finding.detail = Printf.sprintf "shard %d: %s" i f.Finding.detail })
    findings

let merge router reports ~skipped =
  let skip_findings =
    List.map
      (fun i ->
        Finding.make Finding.Bounds Finding.Unreadable
          (Printf.sprintf "shard %d fenced with no serving store; stripe not scrubbed" i))
      skipped
  in
  {
    Report.store_id = cluster_store_id router;
    sn_base = global_base router;
    sn_current = global_current router;
    records_scanned = List.fold_left (fun acc (_, r) -> acc + r.Report.records_scanned) 0 reports;
    slices = List.fold_left (fun acc (_, r) -> acc + r.Report.slices) 0 reports;
    host_ns = List.fold_left (fun acc (_, r) -> Int64.add acc r.Report.host_ns) 0L reports;
    pass_complete = skipped = [] && List.for_all (fun (_, r) -> r.Report.pass_complete) reports;
    findings =
      skip_findings @ List.concat_map (fun (i, r) -> tag_findings i r.Report.findings) reports;
  }

let run ?config router =
  let scrubs = scrubbers ?config router in
  let skipped =
    List.init (Shard_router.shard_count router) Fun.id
    |> List.filter (fun i -> not (List.mem_assoc i scrubs))
  in
  (* Interleave budgeted slices round-robin until every pass completes:
     audit load lands on each shard's own host ledger a slice at a time,
     the way independent machines would schedule it. *)
  let pending = ref scrubs in
  while !pending <> [] do
    pending :=
      List.filter
        (fun (_, scrub) ->
          let stats = Scrubber.run_slice scrub in
          not stats.Scrubber.pass_completed)
        !pending
  done;
  let per_shard =
    List.map
      (fun (i, scrub) ->
        match Scrubber.last_report scrub with
        | Some r -> (i, r)
        | None -> (i, Scrubber.report scrub))
      scrubs
  in
  { merged = merge router per_shard ~skipped; per_shard; skipped }
