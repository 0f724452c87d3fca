(* Workload [mixed]: one closed-loop client on a single store whose
   default witness is [Weak_deferred]. About 80 % verified reads, skewed
   towards recent serials so the working set fits the verify memo, and
   20 % [Write] frames. Every [background_every] windows the virtual
   clock advances and the store runs [Worm.expire_due], [Worm.idle_tick]
   and one [Scrubber.run_slice], competing with the foreground. *)

open Worm_core
module H = Harness
module S = Stack
module Clock = Worm_simclock.Clock
module Device = Worm_scpu.Device
module Scrubber = Worm_audit.Scrubber

let ops_per_window = 100
let writes_per_window = 20
let background_every = 4
let tick = Clock.ns_of_sec 20.
let warm_records = 64

type expect = Live of int | Gone

type state = {
  s : S.single;
  scrub : Scrubber.t;
  expect : expect array;  (** index sn - 1 *)
  expiry : int64 array;  (** virtual time each record's retention lapses *)
  sizes : int array;
  mutable current : int;
  pay : H.payloads;
  mutable payload_bytes : int;
}

let policy_long = Policy.custom ~name:"perfbench-long" ~retention_ns:(Clock.ns_of_years 7.) ~shred_passes:1

(* A quarter of the records expire within the run. *)
let policy rng =
  if Random.State.int rng 4 = 0 then
    Policy.custom ~name:"perfbench-short" ~retention_ns:(Clock.ns_of_sec (float (120 + Random.State.int rng 240))) ~shred_passes:1
  else policy_long

let setup acc ~seed ~windows =
  let rng = Random.State.make [| seed; 0x31eed |] in
  let pay = H.payloads rng in
  let ca = H.window acc (fun () -> S.make_ca ()) in
  let clock = Clock.create () in
  let device =
    H.window acc (fun () -> S.provision ~ca ~clock ~name:"perfbench-mixed")
  in
  let config = { Worm.default_config with Worm.default_witness = Firmware.Weak_deferred } in
  let s = S.single ~ca ~clock ~device ~config in
  let capacity = warm_records + (windows * writes_per_window) in
  let sizes = Array.init capacity (fun _ -> 2048 + Random.State.int rng 2048) in
  H.window acc (fun () ->
      let sns = Worm.write_batch s.S.store (List.init warm_records (fun i -> (policy_long, [ H.payload pay (i + 1) sizes.(i) ]))) in
      H.check (List.length sns = warm_records) "mixed setup: warm writes";
      Worm.idle_tick s.S.store);
  let scrub =
    H.window acc (fun () ->
        Scrubber.create ~store:s.S.store ~client:(Client.for_store ~ca:(Worm_crypto.Rsa.public_of ca) ~clock s.S.store) ())
  in
  let expect = Array.make capacity Gone in
  for i = 0 to warm_records - 1 do
    expect.(i) <- Live (i + 1)
  done;
  let payload_bytes = Array.fold_left ( + ) 0 (Array.sub sizes 0 warm_records) in
  { s; scrub; expect; expiry = Array.make capacity Int64.max_int; sizes; current = warm_records; pay; payload_bytes }

(* Recent-skewed read target; 2 % probe above the current bound. *)
let pick rng current =
  if Random.State.int rng 50 = 0 then current + 1 + Random.State.int rng 4
  else Stdlib.max 1 (current - int_of_float (-24. *. Float.log (1. -. Random.State.float rng 1.)))

let run ~seed ~windows ~trace : S.metric list =
  let setups, st = S.set_up (setup ~seed ~windows) in
  let s = st.s in
  let client = S.connect s in
  S.use_lib_kernel s.S.ca;
  H.ledgers := S.ledgers s;
  let rng = Random.State.make [| seed; 0x31eee |] in
  let reads = H.series () and writes = H.series () in
  let virt_writes = ref [] in
  let ph = S.phase () in
  let strong () = (Device.stats s.S.device).Device.strong_signs in
  let refresh_signs = ref 0 and n_reads = ref 0 and refused_at_expiry = ref 0 in
  let ticks = ref 0 and strengthened = ref 0 and slices = ref 0 and examined = ref 0 and traced_examined = ref 0 in
  let counters () = S.counters ~ledgers:(S.ledgers s) ~devices:[ s.S.device ] ~net:s.S.net in
  let c0 = counters () in
  let background () =
    H.op "op.background" (fun () ->
        Clock.advance s.S.clock tick;
        List.iter
          (fun (sn, r) ->
            match r with
            | Ok () -> st.expect.(Serial.to_int sn - 1) <- Gone
            (* The retention monitor pops an entry once its expiry is
               reached, but deletion needs the expiry to have passed: an
               entry due exactly at the tick is refused and re-fed, and
               deleted on a later tick. The store recovers by design, so
               this is counted, not failed. *)
            | Error (Firmware.Not_expired _) -> incr refused_at_expiry
            | Error e -> H.fail "mixed expire %d: %s" (Serial.to_int sn) (Firmware.error_to_string e))
          (H.span "worm.expire_due" (fun () -> Worm.expire_due s.S.store));
        let before = Worm.deferred_length s.S.store in
        H.span "worm.idle_tick" (fun () -> Worm.idle_tick s.S.store);
        strengthened := !strengthened + before - Worm.deferred_length s.S.store;
        incr ticks;
        let sl = H.span "audit.scrub_slice" (fun () -> Scrubber.run_slice st.scrub) in
        incr slices;
        examined := !examined + sl.Scrubber.examined;
        if !H.tracing then traced_examined := !traced_examined + sl.Scrubber.examined)
  in
  let do_read () =
    let sn = pick rng st.current in
    let s0 = strong () in
    let t0 = H.now () in
    let r = S.read s client (Serial.of_int sn) in
    H.sample reads (H.since t0);
    refresh_signs := !refresh_signs + strong () - s0;
    incr n_reads;
    match r with
    | Error e -> H.fail "mixed read %d: %s" sn e
    | Ok v -> (
        let check = S.check_read ~label:"mixed read" ~sn in
        if sn > st.current then check ~kinds:[ S.Unallocated ] v
        else
          match st.expect.(sn - 1) with
          | Live i -> check ~blocks:(H.payload st.pay i st.sizes.(sn - 1)) ~kinds:[] v
          | Gone -> check ~kinds:[ S.Deleted; S.Window; S.Below_base ] v)
  in
  let do_write () =
    let i = st.current + 1 in
    let blocks = [ H.payload st.pay i st.sizes.(i - 1) ] in
    let policy = policy rng in
    let l0 = S.ledgers s () in
    let t0 = H.now () in
    let r = S.write s ~policy ~blocks in
    H.sample writes (H.since t0);
    let l1 = S.ledgers s () in
    virt_writes := (l1.(0) -. l0.(0) +. (l1.(1) -. l0.(1)) +. (l1.(2) -. l0.(2)) +. (l1.(3) -. l0.(3))) :: !virt_writes;
    incr H.attempted;
    match r with
    | Ok sn when Serial.to_int sn = i ->
        st.current <- i;
        st.expect.(i - 1) <- Live i;
        st.expiry.(i - 1) <- Int64.add (Clock.now s.S.clock) policy.Policy.retention_ns;
        st.payload_bytes <- st.payload_bytes + st.sizes.(i - 1)
    | Ok sn -> H.fail "mixed write %d acked as %d" i (Serial.to_int sn)
    | Error e -> H.fail "mixed write %d: %s" i e
  in
  let ops = ref 0 in
  for w = 0 to windows - 1 do
    (* exactly [writes_per_window] writes, at seeded positions *)
    let slots = Array.init ops_per_window (fun k -> k < writes_per_window) in
    for k = ops_per_window - 1 downto 1 do
      let j = Random.State.int rng (k + 1) in
      let t = slots.(k) in
      slots.(k) <- slots.(j);
      slots.(j) <- t
    done;
    ops :=
      !ops
      + S.timed_window ph ~trace w (fun () ->
            if w > 0 && w mod background_every = 0 then background ();
            Array.iter (fun is_write -> if is_write then do_write () else do_read ()) slots;
            ops_per_window)
  done;
  let ops = !ops in
  let c1 = counters () in
  (* the retention monitor must have deleted every record whose
     retention lapsed two ticks or more before the end *)
  let horizon = Int64.sub (Clock.now s.S.clock) (Int64.mul 2L tick) in
  Array.iteri
    (fun k e ->
      if Int64.compare e horizon < 0 && st.expect.(k) <> Gone then H.fail "mixed: record %d outlived its retention" (k + 1))
    st.expiry;
  H.check (Scrubber.findings st.scrub = []) "mixed: scrubber reported %d findings" (List.length (Scrubber.findings st.scrub));
  let timing =
    S.timing_metrics ~timed:ph.S.all ~ops ~setups ~reads
    @ [
        ("write_p50_us", "us", S.pct (H.scaled writes) 0.5 /. 1000.);
        ("write_p99_us", "us", H.block_percentile (H.scaled writes) 0.99 /. 1000.);
        ("wall.write_p50_us", "us", S.pct (H.raw writes) 0.5 /. 1000.);
        ("virt_write_p50_ms", "ms", S.pct !virt_writes 0.5 /. 1e6);
        ("virt_write_p99_ms", "ms", S.pct !virt_writes 0.99 /. 1e6);
      ]
  in
  H.drop reads;
  H.drop writes;
  virt_writes := [];
  let store = S.store_metrics [ s.S.store ] ~payload_bytes:st.payload_bytes in
  timing
  @ S.counter_metrics ~timed:ph.S.all ~ops c0 c1
  @ store
  @ [
      S.memo_hit_ratio [ Client.verify_cache_stats client ];
      ("server.refresh_signs_per_read", "count", H.ratio (float !refresh_signs) (float !n_reads));
      ("worm.strengthened_per_tick", "count", H.ratio (float !strengthened) (float !ticks));
      ("worm.expiry_refused", "count", float !refused_at_expiry);
      ("audit.serials_per_slice", "count", H.ratio (float !examined) (float !slices));
    ]
  @
  if trace then begin
    let r = Report.analyse () in
    Report.print_table r;
    S.trace_metrics ph r
    @ [
        ("worm.idle_tick_us", "us", Report.mean_us r [ "worm.idle_tick" ]);
        ("worm.expire_due_us", "us", Report.mean_us r [ "worm.expire_due" ]);
        ("audit.scrub_us_per_serial", "us", H.ratio (Report.total_us r "audit.scrub_slice") (float !traced_examined));
      ]
  end
  else []
