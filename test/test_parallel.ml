(* Host-side parallel verification: the domain pool, the verified-
   signature cache, and the guarantee that fanning verification across
   domains never changes a verdict — including violation verdicts on a
   tampered store. Also pins encoded_size arithmetic to the encoders it
   mirrors, and the attack surface of the verify cache: stale or forged
   bounds must not ride on a previously cached verification, and a
   migration (key retirement) must drop every memoized entry. *)

open Worm_core
open Worm_testkit.Testkit
module Clock = Worm_simclock.Clock
module Rsa = Worm_crypto.Rsa
module Cert = Worm_crypto.Cert
module Drbg = Worm_crypto.Drbg
module Pool = Worm_util.Pool
module Lru = Worm_util.Lru
module Codec = Worm_util.Codec
module Scrubber = Worm_audit.Scrubber
module Report = Worm_audit.Report
module Finding = Worm_audit.Finding

(* ---------------------------------------------------------------- *)
(* Pool *)

let test_pool_map_matches_sequential () =
  let input = List.init 257 Fun.id in
  let f x = (x * x) + 1 in
  List.iter
    (fun domains ->
      Pool.with_width domains (fun () ->
          let label what = Printf.sprintf "%s at %d domains" what domains in
          Alcotest.(check (list int)) (label "order and values preserved") (List.map f input) (Pool.map f input);
          Alcotest.(check (list int)) (label "empty") [] (Pool.map succ []);
          Alcotest.(check (list int)) (label "singleton") [ 42 ] (Pool.map succ [ 41 ]);
          let visits = Array.make 200 0 in
          ignore (Pool.map (fun i -> visits.(i) <- visits.(i) + 1) (List.init 200 Fun.id));
          Alcotest.(check (array int)) (label "every item visited once") (Array.make 200 1) visits))
    [ 1; 2; 3; 4 ]

let test_pool_exception_propagates () =
  Pool.with_width 3 (fun () ->
      Alcotest.check_raises "worker exception re-raised" (Failure "boom") (fun () ->
          ignore (Pool.map (fun x -> if x = 150 then failwith "boom" else x) (List.init 300 Fun.id)));
      (* the pool survives a failed call *)
      Alcotest.(check (list int)) "pool usable after failure" [ 1; 2; 3 ] (Pool.map succ [ 0; 1; 2 ]))

let test_pool_recommended () =
  Alcotest.(check bool) "recommended_domains >= 1" true (Pool.recommended_domains () >= 1)

let domain_id () = (Domain.self () :> int)

(* Spin until [flag] is set, giving up after a million polls (tens of
   milliseconds): long enough for an idle worker to take a task. *)
let spin_until flag =
  let polls = ref 0 in
  while (not (Atomic.get flag)) && !polls < 1_000_000 do
    Domain.cpu_relax ();
    incr polls
  done

(* The domain that runs [g] of a [both] whose [f] leaves it time to be
   taken: a worker's, when the pool splits. *)
let g_domain () =
  let started = Atomic.make false in
  snd
    (Pool.both
       (fun () -> spin_until started)
       (fun () ->
         Atomic.set started true;
         domain_id ()))

let test_pool_shared_once () =
  (* Three domains race to split on the process-wide pool: every task
     runs on a caller or on that one pool's workers. *)
  let run () = (domain_id (), Pool.map (fun _ -> domain_id ()) (List.init 64 Fun.id) @ [ g_domain () ]) in
  let racers = List.init 2 (fun _ -> Domain.spawn run) in
  let mine = run () in
  let runs = mine :: List.map Domain.join racers in
  let callers = List.map fst runs in
  let workers = List.sort_uniq compare (List.filter (fun d -> not (List.mem d callers)) (List.concat_map snd runs)) in
  Alcotest.(check bool) "one pool's workers" true (List.length workers <= Pool.width () - 1);
  Alcotest.(check int) "recommended width" (Pool.recommended_domains ()) (Pool.width ())

let test_both_runs_f_on_caller () =
  Pool.with_width 2 (fun () ->
      for _ = 1 to 20 do
        (* [g] waits for [f]: were [f] handed out and [g] kept, a worker
           would run [f]. *)
        let f_done = Atomic.make false in
        let f_domain, () =
          Pool.both
            (fun () ->
              Atomic.set f_done true;
              domain_id ())
            (fun () -> spin_until f_done)
        in
        Alcotest.(check int) "f on the calling domain" (domain_id ()) f_domain
      done);
  let order = ref [] in
  Pool.with_width 1 (fun () ->
      ignore (Pool.both (fun () -> order := "f" :: !order) (fun () -> order := "g" :: !order)));
  Alcotest.(check (list string)) "inline: f, then g" [ "g"; "f" ] !order

let test_nested_calls_run_inline () =
  (* Four domains, two outer items: a worker is always idle, so a nested
     call that split would hand its second half to it. *)
  Pool.with_width 4 (fun () ->
      let nested _ =
        let task = domain_id () in
        let both_started = Atomic.make false and map_started = Atomic.make false in
        let f_dom, g_dom =
          Pool.both
            (fun () ->
              spin_until both_started;
              domain_id ())
            (fun () ->
              Atomic.set both_started true;
              domain_id ())
        in
        let mapped =
          Pool.map
            (fun i ->
              if i = 0 then spin_until map_started else Atomic.set map_started true;
              domain_id ())
            [ 0; 1 ]
        in
        List.for_all (( = ) task) (f_dom :: g_dom :: mapped)
      in
      Alcotest.(check (list bool)) "nested both and map on the task's domain" [ true; true ]
        (Pool.map nested [ 0; 1 ]))

let test_exceptions_wait_for_both_sides () =
  Pool.with_width 2 (fun () ->
      let g_done = Atomic.make false in
      Alcotest.check_raises "f's exception" (Failure "f") (fun () ->
          ignore
            (Pool.both
               (fun () -> failwith "f")
               (fun () ->
                 spin_until (Atomic.make false);
                 Atomic.set g_done true)));
      Alcotest.(check bool) "g finished before f's exception" true (Atomic.get g_done);
      let f_done = Atomic.make false in
      Alcotest.check_raises "g's exception" (Failure "g") (fun () ->
          ignore
            (Pool.both
               (fun () ->
                 spin_until (Atomic.make false);
                 Atomic.set f_done true)
               (fun () -> failwith "g")));
      Alcotest.(check bool) "f finished before g's exception" true (Atomic.get f_done);
      Alcotest.check_raises "f's exception wins" (Failure "f") (fun () ->
          ignore (Pool.both (fun () -> failwith "f") (fun () -> failwith "g")));
      (* item 0 fails once item 1 is running elsewhere *)
      let started = Atomic.make false and item_done = Atomic.make false in
      Alcotest.check_raises "map item's exception" (Failure "item 0") (fun () ->
          ignore
            (Pool.map
               (fun i ->
                 if i = 0 then begin
                   spin_until started;
                   failwith "item 0"
                 end
                 else begin
                   Atomic.set started true;
                   spin_until (Atomic.make false);
                   Atomic.set item_done true
                 end)
               [ 0; 1 ]));
      Alcotest.(check bool) "item 1 finished before item 0's exception" true (Atomic.get item_done))

(* Domain ids count spawns: the id a new domain gets tells how many
   domains were spawned since the last probe. *)
let next_domain_id () = Domain.join (Domain.spawn domain_id)

let test_with_width_restores () =
  let width = Pool.width () in
  ignore (g_domain ());
  let before = next_domain_id () in
  Alcotest.check_raises "f's exception" (Failure "inside") (fun () ->
      Pool.with_width (width + 1) (fun () ->
          Alcotest.(check int) "scoped width" (width + 1) (Pool.width ());
          failwith "inside"));
  Alcotest.(check int) "width restored" width (Pool.width ());
  ignore (g_domain ());
  (* the scoped pool's [width] workers and this probe, no new pool *)
  Alcotest.(check int) "shared pool kept" (before + width + 1) (next_domain_id ())

let test_with_width_rejects () =
  Alcotest.check_raises "zero domains" (Invalid_argument "Pool.with_width: need at least one domain") (fun () ->
      Pool.with_width 0 ignore);
  let refused () =
    match Pool.with_width 1 ignore with () -> false | exception Invalid_argument _ -> true
  in
  Pool.with_width 2 (fun () ->
      Alcotest.(check (list bool)) "inside map tasks" [ true; true ] (Pool.map (fun _ -> refused ()) [ 0; 1 ]);
      let started = Atomic.make false in
      Alcotest.(check bool) "inside both's g" true
        (snd
           (Pool.both
              (fun () -> spin_until started)
              (fun () ->
                Atomic.set started true;
                refused ()))))

(* ---------------------------------------------------------------- *)
(* Lru *)

let test_lru_basic () =
  let c = Lru.create 2 in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find c "a");
  (* touching "a" makes "b" the eviction victim *)
  Lru.put c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Lru.find c "c");
  Alcotest.(check int) "length bounded" 2 (Lru.length c);
  Lru.remove c "a";
  Alcotest.(check bool) "removed" false (Lru.mem c "a");
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c)

let test_lru_zero_capacity () =
  let c = Lru.create 0 in
  Lru.put c "a" 1;
  Alcotest.(check int) "capacity 0 stores nothing" 0 (Lru.length c);
  Alcotest.(check (option int)) "no entry" None (Lru.find c "a")

(* ---------------------------------------------------------------- *)
(* encoded_size mirrors the encoders *)

let test_encoded_sizes_match_encoders () =
  let env = fresh_env () in
  let long = short_policy ~retention_s:10_000. () in
  ignore (Worm.write env.store ~witness:Firmware.Strong_now ~policy:long ~blocks:[ "s" ]);
  ignore (Worm.write env.store ~witness:Firmware.Weak_deferred ~policy:long ~blocks:[ "w"; "w2" ]);
  ignore (Worm.write env.store ~witness:Firmware.Mac_deferred ~policy:long ~blocks:[ "m" ]);
  let held = Worm.write env.store ~policy:long ~blocks:[ "held" ] in
  let authority = fresh_authority env in
  (match
     Authority.place_hold authority ~store:env.store ~sn:held ~lit_id:"case-42"
       ~timeout:(Int64.add (Clock.now env.clock) (Clock.ns_of_sec 7200.))
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Firmware.error_to_string e));
  let checked = ref 0 in
  Vrdt.iter (Worm.vrdt env.store) (fun _sn entry ->
      match entry with
      | Vrdt.Active vrd ->
          incr checked;
          let check name size bytes =
            Alcotest.(check int) (Printf.sprintf "%s encoded_size" name) (String.length bytes) size
          in
          check "vrd" (Vrd.encoded_size vrd) (Vrd.to_bytes vrd);
          check "attr" (Attr.encoded_size vrd.Vrd.attr) (Attr.to_bytes vrd.Vrd.attr);
          check "policy"
            (Policy.encoded_size vrd.Vrd.attr.Attr.policy)
            (Codec.encode Policy.encode vrd.Vrd.attr.Attr.policy);
          check "metasig" (Witness.encoded_size vrd.Vrd.metasig) (Codec.encode Witness.encode vrd.Vrd.metasig);
          check "datasig" (Witness.encoded_size vrd.Vrd.datasig) (Codec.encode Witness.encode vrd.Vrd.datasig)
      | _ -> ());
  Alcotest.(check bool) "covered strong/weak/mac/held records" true (!checked >= 4);
  let fw = Worm.firmware env.store in
  List.iter
    (fun (name, cert) ->
      Alcotest.(check int) name (String.length (Codec.encode Cert.encode cert)) (Cert.encoded_size cert))
    [ ("signing cert", Firmware.signing_cert fw); ("deletion cert", Firmware.deletion_cert fw) ];
  let pub = ca_pub () in
  Alcotest.(check int) "rsa public"
    (String.length (Codec.encode Rsa.encode_public pub))
    (Rsa.public_encoded_size pub);
  Alcotest.(check int) "serial" (String.length (Codec.encode Serial.encode Serial.first)) Serial.encoded_size

(* ---------------------------------------------------------------- *)
(* Parallel verification is verdict-identical to sequential *)

(* A store exercising every §4.2.2 read outcome plus tampering: a
   below-base region, a deletion window, live records (one with a
   flipped datasig, one with its VRDT entry dropped), and unallocated
   serials above the current bound. *)
let adversarial_items env =
  ignore (write_n env ~retention_s:10. 4);
  let anchor = write env ~policy:(short_policy ~retention_s:10_000. ()) () in
  ignore (write_n env ~retention_s:10. 4);
  let live = write_n env ~retention_s:10_000. 4 in
  ignore (expire_all env ~after_s:11.);
  Worm.idle_tick env.store;
  ignore (Worm.compact_windows env.store);
  Worm.heartbeat env.store;
  (* tamper: flip a datasig byte on one live record, drop another *)
  let victim = List.nth live 1 in
  (match Vrdt.find (Worm.vrdt env.store) victim with
  | Some (Vrdt.Active vrd) ->
      let datasig =
        match vrd.Vrd.datasig with
        | Witness.Strong s ->
            let b = Bytes.of_string s in
            Bytes.set b 3 (Char.chr (Char.code (Bytes.get b 3) lxor 1));
            Witness.Strong (Bytes.to_string b)
        | w -> w
      in
      Vrdt.Raw.put (Worm.vrdt env.store) victim (Vrdt.Active { vrd with Vrd.datasig })
  | _ -> Alcotest.fail "victim not active");
  Vrdt.Raw.remove (Worm.vrdt env.store) (List.nth live 2);
  let top = List.fold_left (fun _ sn -> sn) anchor live in
  let above = [ Serial.next top; Serial.next (Serial.next top) ] in
  let sns = Serial.range Serial.first top @ above in
  List.map (fun sn -> (sn, Worm.read env.store sn)) sns

let test_parallel_verify_identical () =
  let env = fresh_env () in
  let items = adversarial_items env in
  let sequential_client = Client.for_store ~ca:(ca_pub ()) ~clock:env.clock ~verify_cache:0 env.store in
  let reference = List.map (fun (sn, r) -> (sn, Client.verify_read sequential_client ~sn r)) items in
  (* every proof shape verifies clean; only the two tampered records flag *)
  Alcotest.(check int) "violations exactly at the tampered records" 2
    (List.length (List.filter (fun (_, v) -> match v with Client.Violation _ -> true | _ -> false) reference));
  let check name verdicts = Alcotest.(check bool) name true (verdicts = reference) in
  Pool.with_width 1 (fun () ->
      check "verify_read_many on one domain" (Client.verify_read_many sequential_client items));
  check "cached client, shared pool" (Client.verify_read_many env.client items);
  (* Tasks on the shared pool each verify a batch: inline, sequential
     verdicts. *)
  List.iter (check "nested batch on the shared pool")
    (Pool.map (fun _ -> Client.verify_read_many env.client items) [ (); (); (); () ]);
  List.iter
    (fun domains ->
      Pool.with_width domains (fun () ->
          let cached = Client.for_store ~ca:(ca_pub ()) ~clock:env.clock env.store in
          check
            (Printf.sprintf "pooled x%d, cache cold" domains)
            (Client.verify_read_many cached items);
          check
            (Printf.sprintf "pooled x%d, cache warm" domains)
            (Client.verify_read_many cached items);
          Alcotest.(check bool)
            (Printf.sprintf "pooled x%d, absence proofs hit the cache" domains)
            true
            (match Client.verify_cache_stats cached with Some st -> st.Client.cache_hits > 0 | None -> false);
          check
            (Printf.sprintf "pooled x%d, cache disabled" domains)
            (Client.verify_read_many sequential_client items)))
    [ 2; 4 ]

let test_parallel_scrub_identical () =
  (* Slices verify as batches on the shared pool; the report is pinned
     to the one-serial-at-a-time walk's on this fixture, whose first
     slice runs out of budget mid-pass. *)
  let env = fresh_env () in
  ignore (adversarial_items env);
  let r = Scrubber.run_pass (Scrubber.create ~store:env.store ~client:env.client ()) in
  Alcotest.(check int) "records scanned" 13 r.Report.records_scanned;
  Alcotest.(check int) "slices" 2 r.Report.slices;
  Alcotest.(check int64) "host_ns" 5999570L r.Report.host_ns;
  Alcotest.(check (list string)) "findings"
    [
      "record sn:11: bad-signature (datasig does not verify)";
      "record sn:12: missing-proof (read refused: no record and no proof (inconsistent store))";
    ]
    (List.map (Format.asprintf "%a" Finding.pp) r.Report.findings)

(* One read whose metasig or datasig is Strong splits into a 2-task
   batch; its verdict, violation order included, must match the inline
   check of a 1-domain pool on every witness mix and every tamper. *)
let test_single_read_fan_out_identical () =
  let env = fresh_env () in
  let strong = write env ~witness:Firmware.Strong_now ~blocks:[ "a"; "b" ] () in
  let weak = write env ~witness:Firmware.Weak_deferred () in
  let mac = write env ~witness:Firmware.Mac_deferred () in
  let held = write_held_weak env in
  let erased = Worm.write env.store ~tenant:"alice" ~policy:(short_policy ()) ~blocks:[ "secret" ] in
  ignore (Worm.erase_tenant env.store ~tenant:"alice");
  let vrd, blocks =
    match Worm.read env.store strong with
    | Proof.Found { vrd; blocks } -> (vrd, blocks)
    | _ -> Alcotest.fail "strong record not found"
  in
  let flip s =
    let b = Bytes.of_string s in
    Bytes.set b 3 (Char.chr (Char.code (Bytes.get b 3) lxor 1));
    Bytes.to_string b
  in
  let flip_witness = function
    | Witness.Strong s -> Witness.Strong (flip s)
    | _ -> Alcotest.fail "expected a strong witness"
  in
  let found ?(vrd = vrd) ?(blocks = blocks) () = Proof.Found { vrd; blocks } in
  let violation vs = Client.verdict_name (Client.Violation vs) in
  let cases =
    [
      ("strong", strong, Worm.read env.store strong, "valid-data");
      ("weak", weak, Worm.read env.store weak, "valid-data");
      ("mac", mac, Worm.read env.store mac, "committed-unverifiable");
      ("strong meta, weak data", held, Worm.read env.store held, "valid-data");
      ("erased", erased, Worm.read env.store erased, "properly-erased");
      ( "flipped metasig",
        strong,
        found ~vrd:{ vrd with Vrd.metasig = flip_witness vrd.Vrd.metasig } (),
        violation [ Client.Meta_witness_invalid ] );
      ( "flipped datasig",
        strong,
        found ~vrd:{ vrd with Vrd.datasig = flip_witness vrd.Vrd.datasig } (),
        violation [ Client.Data_witness_invalid ] );
      ("flipped block", strong, found ~blocks:[ "a"; flip "bbbb" ] (), violation [ Client.Data_mismatch ]);
      ("wrong serial", weak, found (), violation [ Client.Wrong_serial ]);
      ( "both signatures flipped",
        strong,
        found
          ~vrd:
            { vrd with Vrd.metasig = flip_witness vrd.Vrd.metasig; datasig = flip_witness vrd.Vrd.datasig }
          (),
        violation [ Client.Meta_witness_invalid; Client.Data_witness_invalid ] );
    ]
  in
  let uncached = Client.for_store ~ca:(ca_pub ()) ~clock:env.clock ~verify_cache:0 env.store in
  List.iter
    (fun (name, sn, response, expected) ->
      let item = [ (sn, response) ] in
      let reference = Pool.with_width 1 (fun () -> Client.verify_read_many uncached item) in
      let check what got = Alcotest.(check bool) (name ^ ": " ^ what) true (got = reference) in
      Alcotest.(check (list string)) (name ^ ": sequential verdict") [ expected ]
        (List.map (fun (_, v) -> Client.verdict_name v) reference);
      Pool.with_width 2 (fun () ->
          check "2-domain pool, uncached" (Client.verify_read_many uncached item);
          check "2-domain pool, cached" (Client.verify_read_many env.client item);
          (* a read inside a task of the pool it would split on *)
          List.iter (check "nested on the 2-domain pool")
            (Pool.map (fun () -> Client.verify_read_many env.client item) [ (); () ]));
      check "verify_read" [ (sn, Client.verify_read env.client ~sn response) ];
      List.iter (check "verify_read nested on the shared pool")
        (Pool.map (fun () -> [ (sn, Client.verify_read env.client ~sn response) ]) [ (); () ]))
    cases

(* ---------------------------------------------------------------- *)
(* Verify-cache attack surface *)

let test_cache_rejects_stale_and_forged_bounds () =
  let env = fresh_env () in
  ignore (write_n env ~retention_s:10_000. 2);
  Worm.heartbeat env.store;
  let above = Serial.next (Serial.next (Serial.next Serial.first)) in
  let old_response = Worm.read env.store above in
  let bound = match old_response with Proof.Proof_unallocated b -> b | _ -> Alcotest.fail "expected unallocated" in
  Alcotest.(check string) "fresh bound accepted (and cached)" "never-written"
    (Client.verdict_name (Client.verify_read env.client ~sn:above old_response));
  let hits_before = match Client.verify_cache_stats env.client with Some s -> s.Client.cache_hits | None -> -1 in
  ignore (Client.verify_read env.client ~sn:above old_response);
  let hits_after = match Client.verify_cache_stats env.client with Some s -> s.Client.cache_hits | None -> -1 in
  Alcotest.(check bool) "second verification memoized" true (hits_after > hits_before);
  (* A forged signature differs from the cached triple, so it can never
     hit the memo: it must be re-verified and rejected. *)
  let forged =
    let b = Bytes.of_string bound.Firmware.signature in
    Bytes.set b 2 (Char.chr (Char.code (Bytes.get b 2) lxor 0x40));
    Proof.Proof_unallocated { bound with Firmware.signature = Bytes.to_string b }
  in
  (match Client.verify_read env.client ~sn:above forged with
  | Client.Violation vs ->
      Alcotest.(check bool) "forged bound flagged" true (List.mem Client.Current_bound_invalid vs)
  | v -> Alcotest.fail ("forged bound accepted as " ^ Client.verdict_name v));
  (* After the freshness window lapses, the old bound's signature is
     still cached as cryptographically valid — but staleness is checked
     per read, outside the memo, so replaying it must fail. *)
  Clock.advance env.clock (Clock.ns_of_sec 400.);
  (match Client.verify_read env.client ~sn:above old_response with
  | Client.Violation vs ->
      Alcotest.(check bool) "stale cached bound rejected" true (List.mem Client.Stale_current_bound vs)
  | v -> Alcotest.fail ("stale bound accepted as " ^ Client.verdict_name v));
  (* A bound-refresh epoch: the new signature misses the cache, gets
     verified fresh, and reads verify clean again. *)
  Worm.heartbeat env.store;
  let misses_before = match Client.verify_cache_stats env.client with Some s -> s.Client.cache_misses | None -> -1 in
  Alcotest.(check string) "refreshed bound verifies" "never-written"
    (Client.verdict_name (Client.verify_read env.client ~sn:above (Worm.read env.store above)));
  let misses_after = match Client.verify_cache_stats env.client with Some s -> s.Client.cache_misses | None -> -1 in
  Alcotest.(check bool) "refreshed bound was not served from cache" true (misses_after > misses_before)

let test_migration_invalidates_cache () =
  let src = fresh_env () in
  let dst = fresh_env () in
  ignore (write_n src ~retention_s:10. 3);
  ignore (expire_all src ~after_s:11.);
  Worm.heartbeat src.store;
  (* prime the cache with absence-proof verifications *)
  List.iter
    (fun sn -> ignore (Client.verify_read src.client ~sn (Worm.read src.store sn)))
    (Serial.range Serial.first (Serial.next (Serial.next (Serial.next Serial.first))));
  let entries () = match Client.verify_cache_stats src.client with Some s -> s.Client.cache_entries | None -> -1 in
  Alcotest.(check bool) "cache primed" true (entries () > 0);
  (match Migration.migrate ~source:src.store ~target:dst.store with
  | Error e -> Alcotest.fail e
  | Ok report ->
      Alcotest.(check bool) "attestation verifies" true
        (Migration.verify_report ~source_client:src.client ~target_store_id:(Worm.store_id dst.store) report));
  Alcotest.(check int) "migration retired the key epoch: cache empty" 0 (entries ());
  (* explicit invalidation is also available to callers *)
  ignore (Client.verify_read src.client ~sn:Serial.first (Worm.read src.store Serial.first));
  Alcotest.(check bool) "repopulates after invalidation" true (entries () > 0);
  Client.invalidate_verify_cache src.client;
  Alcotest.(check int) "invalidate drops everything" 0 (entries ())

let test_cache_disabled_and_bad_capacity () =
  let env = fresh_env () in
  (match Client.verify_cache_stats (Client.for_store ~ca:(ca_pub ()) ~clock:env.clock ~verify_cache:0 env.store) with
  | None -> ()
  | Some _ -> Alcotest.fail "verify_cache:0 should disable the memo");
  let fw = Worm.firmware env.store in
  match
    Client.connect ~ca:(ca_pub ()) ~clock:env.clock ~verify_cache:(-1)
      ~signing_cert:(Firmware.signing_cert fw) ~deletion_cert:(Firmware.deletion_cert fw)
      ~store_id:(Worm.store_id env.store) ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative cache capacity accepted"

(* ---------------------------------------------------------------- *)

let suite =
  [
    ("pool map matches sequential at 1-4 domains", `Quick, test_pool_map_matches_sequential);
    ("pool re-raises worker exceptions", `Quick, test_pool_exception_propagates);
    ("pool recommends at least one domain", `Quick, test_pool_recommended);
    ("shared pool is built once across domains", `Quick, test_pool_shared_once);
    ("pool both runs f on the caller", `Quick, test_both_runs_f_on_caller);
    ("pool calls inside a task run inline", `Quick, test_nested_calls_run_inline);
    ("pool exceptions wait for every task", `Quick, test_exceptions_wait_for_both_sides);
    ("pool with_width restores on exception", `Quick, test_with_width_restores);
    ("pool with_width rejects 0 and tasks", `Quick, test_with_width_rejects);
    ("lru eviction order", `Quick, test_lru_basic);
    ("lru zero capacity", `Quick, test_lru_zero_capacity);
    ("encoded_size mirrors every encoder", `Quick, test_encoded_sizes_match_encoders);
    ("parallel read verification is verdict-identical", `Quick, test_parallel_verify_identical);
    ("parallel scrub pass is report-identical", `Quick, test_parallel_scrub_identical);
    ("single strong read fan-out is verdict-identical", `Quick, test_single_read_fan_out_identical);
    ("stale/forged bounds never ride the cache", `Quick, test_cache_rejects_stale_and_forged_bounds);
    ("migration invalidates the verify cache", `Quick, test_migration_invalidates_cache);
    ("cache disabled and invalid capacities", `Quick, test_cache_disabled_and_bad_capacity);
  ]

let () = Alcotest.run "worm_parallel" [ ("parallel", suite) ]
