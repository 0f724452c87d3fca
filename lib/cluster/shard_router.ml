open Worm_core
module Device = Worm_scpu.Device
module Disk = Worm_simdisk.Disk
module Clock = Worm_simclock.Clock
module Rsa = Worm_crypto.Rsa

type config = {
  shards : int;
  mirrored : bool;
  store_config : Worm.config;
  device_config : Device.config;
  disk_latency : Disk.latency_model;
  router_overhead_ns : int64;
}

let default_config =
  {
    shards = 4;
    mirrored = true;
    store_config = Worm.default_config;
    device_config = Device.default_config;
    disk_latency = Disk.enterprise_latency;
    router_overhead_ns = 200L;
  }

type shard_state = Active | Fenced

type shard = {
  index : int;
  mutable serving : Worm.t;  (* the primary; replaced on promotion *)
  mutable repl : Replicator.t option;
  mutable state : shard_state;
  mutable failovers : int;
  mutable lockstep : bool;
}

type t = {
  config : config;
  seed : string;
  ca : Rsa.secret;
  ca_pub : Rsa.public;
  clock : Clock.t;
  shards : shard array;
  mutable next_global : Serial.t;
  mutable epoch : int;
  mutable provisioned : int;  (* distinguishes replacement-device seeds *)
}

let device_of store = Firmware.device (Worm.firmware store)

let make_store t ~name =
  let dev =
    Device.provision ~seed:(t.seed ^ "|dev|" ^ name) ~clock:t.clock ~ca:t.ca
      ~config:t.config.device_config ~name ()
  in
  let disk = Disk.create ~latency:t.config.disk_latency () in
  Worm.create ~config:t.config.store_config ~disk ~device:dev ~ca:t.ca_pub ()

let create ?(config = default_config) ~seed ~ca ~clock () =
  if config.shards < 1 then invalid_arg "Shard_router.create: shard count must be >= 1";
  let t =
    {
      config;
      seed;
      ca;
      ca_pub = Rsa.public_of ca;
      clock;
      shards = [||];
      next_global = Serial.of_int 1;
      epoch = 0;
      provisioned = 0;
    }
  in
  let shards =
    Array.init config.shards (fun i ->
        let primary = make_store t ~name:(Printf.sprintf "shard-%d" i) in
        let repl =
          if config.mirrored then
            let mirror = make_store t ~name:(Printf.sprintf "shard-%d-mirror" i) in
            Some (Replicator.create ~primary ~mirror)
          else None
        in
        { index = i; serving = primary; repl; state = Active; failovers = 0; lockstep = config.mirrored })
  in
  { t with shards }

let shard_count t = Array.length t.shards
let clock t = t.clock
let ca_public t = t.ca_pub
let epoch t = t.epoch
let shard_state t i = t.shards.(i).state

let serving_store_of s =
  match s.state with
  | Active -> Some s.serving
  | Fenced -> (
      match s.repl with
      | Some r when s.lockstep -> Some (Replicator.mirror r)
      | Some _ | None -> None)

let serving_store t i = serving_store_of t.shards.(i)

let replicator t i =
  let s = t.shards.(i) in
  match (s.state, s.repl) with Active, Some r -> Some r | _ -> None

let fence_unchecked s = if s.state = Active then s.state <- Fenced

(* A write that survives losing the mirror mid-flight: the primary's own
   serial counter decides whether the record landed before degrading the
   shard to unmirrored operation. A dead primary propagates. *)
let write_shard ?witness ?tenant s ~policy ~blocks =
  match s.repl with
  | None -> Worm.write ?witness ?tenant s.serving ~policy ~blocks
  | Some r -> (
      let before = Firmware.sn_current (Worm.firmware s.serving) in
      try fst (Replicator.write ?witness ?tenant r ~policy ~blocks)
      with Device.Tamper_detected when not (Device.is_zeroized (device_of s.serving)) ->
        s.repl <- None;
        s.lockstep <- false;
        let after = Firmware.sn_current (Worm.firmware s.serving) in
        if Serial.(after > before) then after else Worm.write ?witness ?tenant s.serving ~policy ~blocks)

(* Erasure is cluster-wide, so any shard remembering the tombstone is
   enough to refuse: the stripe interleave spreads a tenant's records
   over every shard, and re-admitting the tenant on one stripe would
   mint records no key can decrypt. *)
let tenant_is_erased t tenant =
  (not (String.equal tenant ""))
  && Array.exists
       (fun s ->
         match serving_store_of s with
         | Some store -> Worm.tenant_is_erased store tenant
         | None -> false)
       t.shards

let write ?witness ?(tenant = "") t ~policy ~blocks =
  let n = shard_count t in
  let g = t.next_global in
  let idx = Partition.shard_of ~shards:n g in
  let s = t.shards.(idx) in
  match s.state with
  | Fenced -> Error (Printf.sprintf "shard %d is fenced; stripe unavailable until recovery" idx)
  | Active when tenant_is_erased t tenant ->
      Error (Printf.sprintf "tenant %S has been erased; writes refused" tenant)
  | Active -> (
      match write_shard ?witness ~tenant s ~policy ~blocks with
      | exception Device.Tamper_detected ->
          fence_unchecked s;
          Error (Printf.sprintf "shard %d zeroized during write; shard fenced" idx)
      | local ->
          Worm.charge_host s.serving t.config.router_overhead_ns;
          let expected = Partition.local_of ~shards:n g in
          if not (Serial.equal local expected) then
            Error
              (Printf.sprintf "shard %d allocated local %d where the interleave expects %d (out-of-band writes?)"
                 idx (Serial.to_int local) (Serial.to_int expected))
          else begin
            t.next_global <- Serial.next g;
            Ok g
          end)

let read t g =
  let n = shard_count t in
  let idx = Partition.shard_of ~shards:n g in
  let s = t.shards.(idx) in
  let local = Partition.local_of ~shards:n g in
  let attempt store =
    Worm.charge_host store t.config.router_overhead_ns;
    Worm.read store local
  in
  match serving_store_of s with
  | None -> (idx, Proof.Refused (Printf.sprintf "shard %d fenced with no mirror" idx))
  | Some store -> (
      match attempt store with
      | response -> (idx, response)
      | exception Device.Tamper_detected -> (
          (* The read path only touches the SCPU for a stale-bound
             refresh, so tripping the tamper response here means the
             serving device just died: fence and fall back once. *)
          fence_unchecked s;
          match serving_store_of s with
          | Some fallback -> (idx, attempt fallback)
          | None -> (idx, Proof.Refused (Printf.sprintf "shard %d zeroized with no mirror" idx))))

let read_many t sns = List.map (fun g -> let idx, r = read t g in (g, idx, r)) sns

let register_ack t ~shard ~local =
  let g = Partition.global_of ~shards:(shard_count t) ~shard local in
  if Serial.(g >= t.next_global) then t.next_global <- Serial.next g;
  g

let freshness_proof t =
  let rec collect acc i =
    if i < 0 then Ok acc
    else
      let s = t.shards.(i) in
      match serving_store_of s with
      | None -> Error (Printf.sprintf "shard %d has no serving store; cannot prove cluster freshness" i)
      | Some store ->
          let fw = Worm.firmware store in
          (* a freshness proof built from a bound that predates recent
             writes would undercount the stripe *)
          Worm.refresh_current_bound store;
          let bound =
            {
              Cluster_proof.shard_index = i;
              store_id = Worm.store_id store;
              signing_cert = Firmware.signing_cert fw;
              deletion_cert = Firmware.deletion_cert fw;
              base = Worm.cached_base_bound store;
              current = Worm.cached_current_bound store;
            }
          in
          collect (bound :: acc) (i - 1)
  in
  Result.map (Cluster_proof.make ~epoch:t.epoch) (collect [] (shard_count t - 1))

(* A fenced shard with no mirror has no certificates to verify against;
   its slot is [None], and any response claiming to come from it is
   unverifiable by construction — never an exception on the verify
   path. *)
let verifiers t =
  Array.map
    (fun s ->
      match serving_store_of s with
      | Some store -> Some (Client.for_store ~ca:t.ca_pub ~clock:t.clock store)
      | None -> None)
    t.shards

let verify_read t clients g (idx, response) =
  let n = shard_count t in
  if idx <> Partition.shard_of ~shards:n g then Client.Violation [ Client.Wrong_serial ]
  else
    match clients.(idx) with
    | None -> Client.Violation [ Client.Absence_unproven ]
    | Some client -> Client.verify_read client ~sn:(Partition.local_of ~shards:n g) response

(* Crypto-erase one shard: the serving store destroys the tenant's
   keys, and while the shard is healthy the lockstep mirror does too —
   the key hierarchies are independent SCPU state, so erasure must
   reach every device that ever sealed for this tenant. A device dying
   mid-erase falls back once, exactly like the read path. *)
let erase_shard s ~tenant =
  let mirror_erase () =
    match (s.state, s.repl) with
    | Active, Some r -> (
        try ignore (Worm.erase_tenant (Replicator.mirror r) ~tenant : Firmware.erasure_cert)
        with Device.Tamper_detected ->
          s.repl <- None;
          s.lockstep <- false)
    | _ -> ()
  in
  match serving_store_of s with
  | None -> None
  | Some store -> (
      match Worm.erase_tenant store ~tenant with
      | cert ->
          mirror_erase ();
          Some (s.index, Worm.store_id store, cert)
      | exception Device.Tamper_detected -> (
          fence_unchecked s;
          match serving_store_of s with
          | None -> None
          | Some fallback -> (
              match Worm.erase_tenant fallback ~tenant with
              | cert -> Some (s.index, Worm.store_id fallback, cert)
              | exception Device.Tamper_detected -> None)))

(* Right to be forgotten, cluster-wide: every shard attests or the
   request fails — the stripe interleave spreads a tenant's records
   over all shards, and a tenant must not believe itself forgotten
   while one stripe still holds live keys. O(shards), independent of
   how many records the tenant wrote. Partial completion (a shard
   fencing mid-sweep) is safe to retry after {!recover}: per-store
   erasure is idempotent and returns the original certificate. *)
let erase_tenant t ~tenant =
  if String.equal tenant "" then Error "erase-tenant: empty tenant id"
  else begin
    let rec go acc i =
      if i >= shard_count t then Ok (List.rev acc)
      else
        match erase_shard t.shards.(i) ~tenant with
        | Some entry -> go (entry :: acc) (i + 1)
        | None ->
            Error
              (Printf.sprintf
                 "shard %d has no serving store; erasure incomplete (idempotent — retry after recovery)" i)
    in
    go [] 0
  end

(* The certificates already issued for a tenant, shard by shard — empty
   when no serving store has erased it. *)
let erasure_certs t ~tenant =
  Array.to_list t.shards
  |> List.filter_map (fun s ->
         match serving_store_of s with
         | None -> None
         | Some store ->
             Option.map (fun cert -> (s.index, Worm.store_id store, cert)) (Worm.erasure_cert_of store tenant))

let count_deletions outcomes = List.length (List.filter (fun (_, r) -> r = Ok ()) outcomes)

let expire_due t =
  Array.to_list t.shards
  |> List.filter_map (fun s ->
         match s.state with
         | Fenced -> None
         | Active -> (
             try
               match s.repl with
               | Some r -> Some (s.index, fst (Replicator.expire_due r))
               | None -> Some (s.index, count_deletions (Worm.expire_due s.serving))
             with Device.Tamper_detected ->
               fence_unchecked s;
               None))

let compact_shard t i =
  let s = t.shards.(i) in
  match serving_store_of s with
  | None -> 0
  | Some store -> (
      try
        let expelled = Worm.compact_windows store in
        (match s.repl with
        | Some r when s.state = Active -> ignore (Worm.compact_windows (Replicator.mirror r))
        | Some _ | None -> ());
        if expelled > 0 then t.epoch <- t.epoch + 1;
        expelled
      with Device.Tamper_detected ->
        fence_unchecked s;
        0)

let idle_tick t =
  Array.iter
    (fun s ->
      try
        match (s.state, s.repl) with
        | Active, Some r -> Replicator.idle_tick r
        | Active, None -> Worm.idle_tick s.serving
        | Fenced, _ -> (
            match serving_store_of s with Some store -> Worm.idle_tick store | None -> ())
      with Device.Tamper_detected -> fence_unchecked s)
    t.shards

let probe t =
  Array.to_list t.shards
  |> List.filter_map (fun s ->
         if s.state = Active && Device.is_zeroized (device_of s.serving) then Some s.index else None)

let fence t i =
  let s = t.shards.(i) in
  match s.state with
  | Fenced -> Error (Printf.sprintf "shard %d is already fenced" i)
  | Active ->
      s.state <- Fenced;
      Ok ()

type recovery = { resynced : int; new_mirror_id : string }

let recover t i =
  let s = t.shards.(i) in
  if s.state <> Fenced then Error (Printf.sprintf "shard %d is not fenced" i)
  else
    match s.repl with
    | None -> Error (Printf.sprintf "shard %d has no mirror to re-provision from" i)
    | Some _ when not s.lockstep ->
        Error
          (Printf.sprintf
             "shard %d's mirror was already rebuilt once and is not serial-aligned; a cluster-level \
              migration is required"
             i)
    | Some r ->
        let promoted = Replicator.mirror r in
        if Device.is_zeroized (device_of promoted) then
          Error (Printf.sprintf "shard %d's mirror is also zeroized" i)
        else begin
          t.provisioned <- t.provisioned + 1;
          let fresh = make_store t ~name:(Printf.sprintf "shard-%d-reprov-%d" i t.provisioned) in
          let repl = Replicator.create ~primary:promoted ~mirror:fresh in
          match Replicator.resync_mirror repl with
          | Error e -> Error ("mirror rebuild failed: " ^ e)
          | Ok resynced ->
              s.serving <- promoted;
              s.repl <- Some repl;
              s.state <- Active;
              s.failovers <- s.failovers + 1;
              (* the fresh mirror holds live records under fresh serials:
                 a healing source, never a promotion candidate *)
              s.lockstep <- false;
              Ok { resynced; new_mirror_id = Worm.store_id fresh }
        end

let kill t i =
  match serving_store_of t.shards.(i) with
  | Some store -> Device.tamper_respond (device_of store)
  | None -> ()

type shard_metrics = {
  sm_shard : int;
  sm_state : shard_state;
  sm_store_id : string;
  sm_mirrored : bool;
  sm_lockstep : bool;
  sm_failovers : int;
  sm_active : int;
  sm_local_current : Serial.t;
  sm_local_base : Serial.t;
  sm_windows : int;
  sm_scpu_busy_ns : int64;
  sm_host_busy_ns : int64;
  sm_disk_busy_ns : int64;
}

let metrics t =
  Array.to_list t.shards
  |> List.map (fun s ->
         match serving_store_of s with
         | None ->
             {
               sm_shard = s.index;
               sm_state = s.state;
               sm_store_id = "";
               sm_mirrored = false;
               sm_lockstep = s.lockstep;
               sm_failovers = s.failovers;
               sm_active = 0;
               sm_local_current = Serial.zero;
               sm_local_base = Serial.zero;
               sm_windows = 0;
               sm_scpu_busy_ns = 0L;
               sm_host_busy_ns = 0L;
               sm_disk_busy_ns = 0L;
             }
         | Some store ->
             let m = Worm.metrics store in
             {
               sm_shard = s.index;
               sm_state = s.state;
               sm_store_id = Worm.store_id store;
               sm_mirrored = s.repl <> None;
               sm_lockstep = s.lockstep;
               sm_failovers = s.failovers;
               sm_active = m.Worm.m_active;
               sm_local_current = m.Worm.m_sn_current;
               sm_local_base = m.Worm.m_sn_base;
               sm_windows = m.Worm.m_windows;
               sm_scpu_busy_ns = Device.busy_ns (device_of store);
               sm_host_busy_ns = Worm.host_busy_ns store;
               sm_disk_busy_ns = Disk.busy_ns (Worm.disk store);
             })

let reset_store_busy store =
  (try Device.reset_busy (device_of store) with Device.Tamper_detected -> ());
  Worm.reset_host_busy store;
  Disk.reset_busy (Worm.disk store)

let reset_busy t =
  Array.iter
    (fun s ->
      reset_store_busy s.serving;
      match s.repl with Some r -> reset_store_busy (Replicator.mirror r) | None -> ())
    t.shards
