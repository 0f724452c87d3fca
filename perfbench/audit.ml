(* Workload [audit]: a closed-loop investigator over a pre-populated
   single store, with no writes. Full remote audit sweeps through
   [Remote_client] interleave with point reads at uniformly random
   serials. The store holds more distinct per-serial deletion proofs than
   the client's 256-entry verify memo, plus live records, deletion
   windows, a region below the base bound, and serials above the current
   bound. The SCPU does none of this work (§4.1). *)

open Worm_core
module H = Harness
module S = Stack
module Clock = Worm_simclock.Clock
module Remote_client = Worm_proto.Remote_client

type expect = Live of int | Del_proof | In_window | Below

(* Deletion phase of each record: 0 is long-lived, phase p > 0 expires
   p * 10 minutes in, within the weak witnesses' lifetime. Live records
   are the large majority, so a uniformly random read usually returns a
   record; the per-serial deletion proofs still outnumber the client's
   256-entry verify memo. Counts vary only slightly with the seed. *)
let layout rng =
  let l = ref [] in
  let add phase n = for _ = 1 to n do l := phase :: !l done in
  add 1 (40 + Random.State.int rng 4);
  add 0 1;
  for _ = 1 to 5 do
    add 2 (6 + Random.State.int rng 3);
    add 0 1
  done;
  (* pairs of deletions: too short to collapse into a window *)
  for _ = 1 to 130 + Random.State.int rng 4 do
    add 3 2;
    add 0 1
  done;
  add 0 (610 + Random.State.int rng 8);
  Array.of_list (List.rev !l)

let point_reads = 240
let chunk = 32
let phase_ns = Clock.ns_of_min 10.

let policy_long = Policy.custom ~name:"perfbench-long" ~retention_ns:(Clock.ns_of_years 7.) ~shred_passes:1

let policy_phase p =
  if p = 0 then policy_long else Policy.custom ~name:"perfbench-short" ~retention_ns:(Int64.mul (Int64.of_int p) phase_ns) ~shred_passes:1

type state = {
  s : S.single;
  expect : expect array;  (** index sn - 1 *)
  sizes : int array;
  pay : H.payloads;
  payload_bytes : int;
  base : int;
}

let setup acc ~seed =
  let rng = Random.State.make [| seed; 0xa0d17 |] in
  let pay = H.payloads rng in
  let ca = H.window acc (fun () -> S.make_ca ()) in
  let clock = Clock.create () in
  let device =
    H.window acc (fun () -> S.provision ~ca ~clock ~name:"perfbench-audit")
  in
  let config = { Worm.default_config with Worm.default_witness = Firmware.Strong_now } in
  let s = S.single ~ca ~clock ~device ~config in
  let phases = layout rng in
  let n = Array.length phases in
  let sizes = Array.init n (fun _ -> 512 + Random.State.int rng 1536) in
  let payload_bytes = Array.fold_left ( + ) 0 sizes in
  let i = ref 0 in
  while !i < n do
    let lo = !i and hi = Stdlib.min n (!i + chunk) in
    H.window acc (fun () ->
        (* runs of equal phase share one signing batch; records bound for
           deletion carry cheap weak witnesses, never strengthened *)
        let k = ref lo in
        while !k < hi do
          let p = phases.(!k) in
          let j = ref !k in
          while !j < hi && phases.(!j) = p do incr j done;
          let batch = List.init (!j - !k) (fun d -> (policy_phase p, [ H.payload pay (!k + d + 1) sizes.(!k + d) ])) in
          let witness = if p = 0 then Firmware.Strong_now else Firmware.Weak_deferred in
          let first = !k in
          List.iteri
            (fun d sn -> H.check (Serial.to_int sn = first + d + 1) "audit setup: serial %d" (Serial.to_int sn))
            (Worm.write_batch ~witness s.S.store batch);
          k := !j
        done);
    i := hi
  done;
  let deleted = Array.make n false in
  let t0 = Clock.now clock in
  for p = 1 to 3 do
    Clock.advance_to clock (Int64.add t0 (Int64.add (Int64.mul (Int64.of_int p) phase_ns) (Clock.ns_of_min 1.)));
    H.window acc (fun () ->
        List.iter
          (fun (sn, r) ->
            match r with
            | Ok () -> deleted.(Serial.to_int sn - 1) <- true
            | Error e -> H.fail "audit setup: expire %d: %s" (Serial.to_int sn) (Firmware.error_to_string e))
          (Worm.expire_due s.S.store))
  done;
  H.window acc (fun () -> Worm.idle_tick s.S.store);
  let m = Worm.metrics s.S.store in
  let base = Serial.to_int m.Worm.m_sn_base in
  let expect =
    Array.mapi
      (fun k p ->
        let sn = k + 1 in
        if p = 0 then Live sn
        else begin
          H.check deleted.(k) "audit setup: %d not expired" sn;
          if sn < base then Below else if p = 2 then In_window else Del_proof
        end)
      phases
  in
  H.check (m.Worm.m_deleted_entries > 256) "audit setup: only %d per-serial deletion proofs" m.Worm.m_deleted_entries;
  H.check (m.Worm.m_windows >= 4) "audit setup: only %d deletion windows" m.Worm.m_windows;
  H.check (base > 1) "audit setup: nothing below the base bound";
  { s; expect; sizes; pay; payload_bytes; base }

let run ~seed ~windows ~trace : S.metric list =
  let setups, st = S.set_up (setup ~seed) in
  let s = st.s in
  let current = Array.length st.expect in
  let rc =
    match Remote_client.connect ~ca:(Worm_crypto.Rsa.public_of s.S.ca) ~clock:s.S.clock ~netsim:s.S.net (S.wire s) with
    | Ok rc -> rc
    | Error e -> failwith ("audit: remote connect: " ^ e)
  in
  let client = S.connect s in
  S.use_lib_kernel s.S.ca;
  H.ledgers := S.ledgers s;
  let rng = Random.State.make [| seed; 0xa0d18 |] in
  let reads = H.series () in
  let ph = S.phase () in
  let counters () = S.counters ~ledgers:(S.ledgers s) ~devices:[ s.S.device ] ~net:s.S.net in
  let rc0 = Remote_client.transport_stats rc in
  let sweeps = ref 0 and round_trips = ref 0 in
  let c0 = counters () in
  let ops = ref 0 in
  for w = 0 to windows - 1 do
    ops :=
      !ops
      + S.timed_window ph ~trace w (fun () ->
            let a = H.op "op.audit_sweep" (fun () -> H.span "rc.run_remote_audit" (fun () -> Remote_client.run_remote_audit rc)) in
            incr H.attempted;
            incr sweeps;
            round_trips := !round_trips + a.Remote_client.round_trips;
            H.check (a.Remote_client.violations = []) "audit sweep: %d violations" (List.length a.Remote_client.violations);
            H.check (a.Remote_client.resume = None) "audit sweep: incomplete";
            H.check
              (a.Remote_client.scanned = current - st.base + 1
              && a.Remote_client.skipped_below_base = Int64.of_int (st.base - 1))
              "audit sweep: scanned %d, skipped %Ld (current %d, base %d)" a.Remote_client.scanned
              a.Remote_client.skipped_below_base current st.base;
            for _ = 1 to point_reads do
              let sn = 1 + Random.State.int rng (current + (current / 20)) in
              let t0 = H.now () in
              let r = S.read s client (Serial.of_int sn) in
              H.sample reads (H.since t0);
              match r with
              | Error e -> H.fail "audit read %d: %s" sn e
              | Ok v -> (
                  let check = S.check_read ~label:"audit read" ~sn in
                  if sn > current then check ~kinds:[ S.Unallocated ] v
                  else
                    match st.expect.(sn - 1) with
                    | Live i -> check ~blocks:(H.payload st.pay i st.sizes.(sn - 1)) ~kinds:[] v
                    | Del_proof -> check ~kinds:[ S.Deleted ] v
                    | In_window -> check ~kinds:[ S.Window ] v
                    | Below -> check ~kinds:[ S.Below_base ] v)
            done;
            a.Remote_client.scanned + point_reads)
  done;
  let ops = !ops in
  let c1 = counters () in
  let retries = (Remote_client.transport_stats rc).Remote_client.retries - rc0.Remote_client.retries in
  H.check (c1.S.signs = c0.S.signs) "audit: the SCPU signed %d times" (c1.S.signs - c0.S.signs);
  H.check (retries = 0) "audit: %d transport retries" retries;
  let timing = S.timing_metrics ~timed:ph.S.all ~ops ~setups ~reads in
  H.drop reads;
  let store = S.store_metrics [ s.S.store ] ~payload_bytes:st.payload_bytes in
  timing
  @ S.counter_metrics ~timed:ph.S.all ~ops c0 c1
  @ store
  @ [
      S.memo_hit_ratio [ Client.verify_cache_stats client ];
      ("rc.retries_per_op", "count", float retries /. float ops);
      ("rc.audit_round_trips", "count", H.ratio (float !round_trips) (float !sweeps));
    ]
  @
  if trace then begin
    let r = Report.analyse () in
    Report.print_table r;
    S.trace_metrics ph r @ [ ("rc.sweep_us", "us", Report.mean_us r [ "rc.run_remote_audit" ]) ]
  end
  else []
