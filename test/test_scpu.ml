(* SCPU device model: cost-model calibration against Table 2, signing
   services, weak-key rotation, ledger accounting, tamper response. *)

open Worm_crypto
module Device = Worm_scpu.Device
module Cost_model = Worm_scpu.Cost_model
module Clock = Worm_simclock.Clock

let rng = Drbg.create ~seed:"test-scpu"
let ca = lazy (Rsa.generate rng ~bits:1024)

let device_counter = ref 0

let fresh_device ?(config = Device.test_config) () =
  incr device_counter;
  let clock = Clock.create () in
  let seed = Printf.sprintf "dev-%d" !device_counter in
  let dev = Device.provision ~seed ~clock ~ca:(Lazy.force ca) ~config ~name:"scpu-test" () in
  (dev, clock)

(* ---------- cost model ---------- *)

let close ?(tol = 0.02) name expected actual =
  let rel = abs_float (expected -. actual) /. expected in
  if rel > tol then Alcotest.failf "%s: expected %g within %.0f%%, got %g" name expected (tol *. 100.) actual

let test_table2_anchors_scpu () =
  let p = Cost_model.ibm_4764 in
  close "rsa 512" 4200. (Cost_model.rsa_sign_per_sec p ~bits:512);
  close "rsa 1024" 848. (Cost_model.rsa_sign_per_sec p ~bits:1024);
  close "rsa 2048" 390. (Cost_model.rsa_sign_per_sec p ~bits:2048);
  close "sha1 1KB MB/s" 1.42 (Cost_model.hash_mb_per_sec p ~block_bytes:1024 /. 1.);
  close "sha1 64KB MB/s" 18.6 (Cost_model.hash_mb_per_sec p ~block_bytes:65536);
  close "dma" 82.5e6 p.Cost_model.dma_bytes_per_sec

let test_table2_anchors_host () =
  let p = Cost_model.host_p4 in
  close "rsa 512" 1315. (Cost_model.rsa_sign_per_sec p ~bits:512);
  close "rsa 1024" 261. (Cost_model.rsa_sign_per_sec p ~bits:1024);
  close "rsa 2048" 43. (Cost_model.rsa_sign_per_sec p ~bits:2048);
  close "sha1 1KB" 80e6 (Cost_model.hash_mb_per_sec p ~block_bytes:1024 *. 1e6);
  close "sha1 64KB" 120e6 (Cost_model.hash_mb_per_sec p ~block_bytes:65536 *. 1e6)

let test_cost_model_monotone () =
  let p = Cost_model.ibm_4764 in
  (* longer keys cost strictly more; larger blocks cost strictly more *)
  let s512 = Cost_model.rsa_sign_ns p ~bits:512 in
  let s768 = Cost_model.rsa_sign_ns p ~bits:768 in
  let s1024 = Cost_model.rsa_sign_ns p ~bits:1024 in
  let s4096 = Cost_model.rsa_sign_ns p ~bits:4096 in
  Alcotest.(check bool) "512 < 768 < 1024 < 4096" true (s512 < s768 && s768 < s1024 && s1024 < s4096);
  Alcotest.(check bool) "hash grows" true (Cost_model.hash_ns p ~bytes:100 < Cost_model.hash_ns p ~bytes:100000);
  Alcotest.(check bool) "verify cheaper than sign" true
    (Cost_model.rsa_verify_ns p ~bits:1024 < Cost_model.rsa_sign_ns p ~bits:1024);
  (* extrapolation below the bottom anchor is cubic, not flat *)
  Alcotest.(check bool) "256 cheaper than 512" true (Cost_model.rsa_sign_ns p ~bits:256 < s512)

let test_scpu_host_asymmetry () =
  (* The paper's premise: the SCPU is ~an order of magnitude slower than
     the host on hashing, but faster at RSA (crypto ASICs). *)
  let scpu = Cost_model.ibm_4764 and host = Cost_model.host_p4 in
  Alcotest.(check bool) "host hashes >> scpu" true
    (Cost_model.hash_mb_per_sec host ~block_bytes:1024 > 10. *. Cost_model.hash_mb_per_sec scpu ~block_bytes:1024);
  Alcotest.(check bool) "scpu signs faster (hardware RSA)" true
    (Cost_model.rsa_sign_per_sec scpu ~bits:1024 > Cost_model.rsa_sign_per_sec host ~bits:1024)

(* ---------- device ---------- *)

let test_signing_services () =
  let dev, _ = fresh_device () in
  let msg = "statement" in
  let s = Device.sign_strong dev msg in
  let cert = Device.signing_cert dev in
  Alcotest.(check bool) "strong verifies under signing cert" true
    (Rsa.verify cert.Cert.key ~msg ~signature:s);
  let d = Device.sign_deletion dev msg in
  let dcert = Device.deletion_cert dev in
  Alcotest.(check bool) "deletion verifies under deletion cert" true
    (Rsa.verify dcert.Cert.key ~msg ~signature:d);
  Alcotest.(check bool) "keys are distinct" false
    (Rsa.equal_public cert.Cert.key dcert.Cert.key);
  Alcotest.(check bool) "cross-verification fails" false (Rsa.verify dcert.Cert.key ~msg ~signature:s)

let test_weak_key_chain () =
  let dev, clock = fresh_device () in
  let wcert, wsig = Device.sign_weak dev "burst" in
  let scert = Device.signing_cert dev in
  Alcotest.(check bool) "weak cert chains under signing key" true
    (Cert.verify ~ca:scert.Cert.key ~now:(Clock.now clock) wcert);
  Alcotest.(check bool) "weak cert role" true (wcert.Cert.role = Cert.Scpu_short_term);
  Alcotest.(check bool) "weak signature verifies" true (Rsa.verify wcert.Cert.key ~msg:"burst" ~signature:wsig)

let test_weak_key_rotation () =
  let dev, clock = fresh_device () in
  let c1, _ = Device.sign_weak dev "a" in
  let c2, _ = Device.sign_weak dev "b" in
  Alcotest.(check string) "same key within lifetime" c1.Cert.subject c2.Cert.subject;
  Clock.advance clock (Int64.add (Device.config dev).Device.weak_lifetime_ns 1L);
  let c3, s3 = Device.sign_weak dev "c" in
  Alcotest.(check bool) "rotated" false (String.equal c1.Cert.subject c3.Cert.subject);
  Alcotest.(check bool) "new key signs" true (Rsa.verify c3.Cert.key ~msg:"c" ~signature:s3);
  Alcotest.(check int) "rotation counted" 1 (Device.stats dev).Device.weak_rotations;
  (* the lapsed cert no longer validates *)
  let scert = Device.signing_cert dev in
  Alcotest.(check bool) "old cert expired" false (Cert.verify ~ca:scert.Cert.key ~now:(Clock.now clock) c1)

let test_ledger_and_stats () =
  let dev, _ = fresh_device () in
  Device.reset_busy dev;
  Alcotest.(check int64) "clean" 0L (Device.busy_ns dev);
  ignore (Device.sign_strong dev "x");
  let after_sign = Device.busy_ns dev in
  Alcotest.(check bool) "sign charged" true (after_sign > 0L);
  ignore (Device.hash dev (String.make 1024 'a'));
  Alcotest.(check bool) "hash charged" true (Device.busy_ns dev > after_sign);
  Device.charge_dma dev ~bytes:65536;
  let st = Device.stats dev in
  Alcotest.(check int) "strong signs" 1 st.Device.strong_signs;
  Alcotest.(check int) "hash ops" 1 st.Device.hash_ops;
  Alcotest.(check int) "dma bytes" 65536 st.Device.dma_bytes

(* Batch output must be indistinguishable from the one-at-a-time path.
   Each batch form signs on one device while its twin, provisioned from
   the same seed, signs the same messages one at a time: signatures,
   stats (but [sign_calls], one per batch against one per signature)
   and ledgers must agree. On a host with more than one core every
   batch here fans out on the crypto engine. *)
let test_batch_signing () =
  let provision () =
    let dev =
      Device.provision ~seed:"batch" ~clock:(Clock.create ()) ~ca:(Lazy.force ca) ~config:Device.test_config
        ~name:"scpu-batch" ()
    in
    Device.reset_busy dev;
    dev
  in
  let msgs = List.init 8 (Printf.sprintf "record %d") in
  let count = List.length msgs in
  let check_twins label ~batch ~single =
    let batched = provision () and one_by_one = provision () in
    Alcotest.(check (list string)) (label ^ " batch = sequential") (List.map (single one_by_one) msgs) (batch batched msgs);
    let sb = Device.stats batched and so = Device.stats one_by_one in
    Alcotest.(check int) (label ^ ": one sign call per batch") 1 sb.Device.sign_calls;
    Alcotest.(check int) (label ^ ": one sign call per signature") count so.Device.sign_calls;
    Alcotest.(check bool) (label ^ ": stats otherwise equal") true
      ({ sb with Device.sign_calls = 0 } = { so with Device.sign_calls = 0 });
    Alcotest.(check int64) (label ^ ": busy_ns") (Device.busy_ns one_by_one) (Device.busy_ns batched);
    batched
  in
  let dev = check_twins "strong" ~batch:Device.sign_strong_batch ~single:Device.sign_strong in
  Alcotest.(check int) "batch counts every signature" count (Device.stats dev).Device.strong_signs;
  let per_sig = Cost_model.rsa_sign_ns (Device.config dev).Device.profile ~bits:(Device.config dev).Device.strong_bits in
  Alcotest.(check int64) "batch charges per signature" (Int64.mul (Int64.of_int count) per_sig) (Device.busy_ns dev);
  let verified cert sigs =
    List.iter2
      (fun msg signature -> Alcotest.(check bool) "batch member verifies" true (Rsa.verify cert.Cert.key ~msg ~signature))
      msgs sigs;
    sigs
  in
  (* weak batch: one cert covers the whole batch *)
  ignore
    (check_twins "weak"
       ~batch:(fun d m ->
         let cert, sigs = Device.sign_weak_batch d m in
         verified cert sigs)
       ~single:(fun d m -> snd (Device.sign_weak d m)));
  ignore
    (check_twins "deletion"
       ~batch:(fun d m -> verified (Device.deletion_cert d) (Device.sign_deletion_batch d m))
       ~single:Device.sign_deletion)

let test_pooled_weak_batch_rotates_once () =
  let dev, clock = fresh_device () in
  let msgs = List.init 12 (Printf.sprintf "late record %d") in
  let c0, _ = Device.sign_weak_batch dev msgs in
  Clock.advance clock (Int64.add (Device.config dev).Device.weak_lifetime_ns 1L);
  let c1, sigs = Device.sign_weak_batch dev msgs in
  Alcotest.(check bool) "rotated" false (String.equal c0.Cert.subject c1.Cert.subject);
  Alcotest.(check int) "rotated once" 1 (Device.stats dev).Device.weak_rotations;
  Alcotest.(check bool) "new cert chains" true
    (Cert.verify ~ca:(Device.signing_cert dev).Cert.key ~now:(Clock.now clock) c1);
  List.iter2
    (fun msg signature ->
      Alcotest.(check bool) "verifies under the one returned cert" true (Rsa.verify c1.Cert.key ~msg ~signature))
    msgs sigs

let test_zeroized_batch_refused () =
  let dev, _ = fresh_device () in
  let msgs = List.init 12 (Printf.sprintf "refused record %d") in
  Device.tamper_respond dev;
  let busy = Device.busy_ns dev and stats = Device.stats dev in
  Alcotest.check_raises "strong batch" Device.Tamper_detected (fun () -> ignore (Device.sign_strong_batch dev msgs));
  Alcotest.check_raises "weak batch" Device.Tamper_detected (fun () -> ignore (Device.sign_weak_batch dev msgs));
  Alcotest.check_raises "deletion batch" Device.Tamper_detected (fun () ->
      ignore (Device.sign_deletion_batch dev msgs));
  Alcotest.(check int64) "nothing charged" busy (Device.busy_ns dev);
  Alcotest.(check bool) "nothing counted" true (stats = Device.stats dev)

let test_of_measurements () =
  let p =
    Cost_model.of_measurements ~name:"local" ~rsa_sign_anchors:[ (512, 4000.); (1024, 900.) ]
      ~hash_small:(1024, 50e6) ~hash_large:(65536, 200e6) ()
  in
  close "anchor 512 reproduced" 4000. (Cost_model.rsa_sign_per_sec p ~bits:512);
  close "anchor 1024 reproduced" 900. (Cost_model.rsa_sign_per_sec p ~bits:1024);
  close "hash small reproduced" 50. (Cost_model.hash_mb_per_sec p ~block_bytes:1024);
  close "hash large reproduced" 200. (Cost_model.hash_mb_per_sec p ~block_bytes:65536);
  Alcotest.check_raises "unsorted anchors"
    (Invalid_argument "Cost_model.of_measurements: anchors must ascend in bits") (fun () ->
      ignore
        (Cost_model.of_measurements ~name:"bad" ~rsa_sign_anchors:[ (1024, 900.); (512, 4000.) ]
           ~hash_small:(1024, 50e6) ~hash_large:(65536, 200e6) ()))

(* A hand-built profile with no RSA anchors is a caller error with a
   named exception, not an [assert false] crash. *)
let test_anchorless_profile () =
  let p = { Cost_model.ibm_4764 with Cost_model.name = "anchorless"; rsa_sign_anchors = [] } in
  Alcotest.check_raises "empty anchors named"
    (Invalid_argument "Cost_model.rsa_sign: profile \"anchorless\" has no RSA anchors") (fun () ->
      ignore (Cost_model.rsa_sign_per_sec p ~bits:1024));
  Alcotest.check_raises "non-positive bits still checked first"
    (Invalid_argument "Cost_model.rsa_sign: non-positive bits") (fun () ->
      ignore (Cost_model.rsa_sign_per_sec p ~bits:0))

let test_hmac_internal () =
  let dev, _ = fresh_device () in
  let tag = Device.hmac_tag dev "record" in
  Alcotest.(check bool) "verifies" true (Device.hmac_verify dev ~msg:"record" ~tag);
  Alcotest.(check bool) "wrong msg" false (Device.hmac_verify dev ~msg:"recorc" ~tag);
  (* HMACs from a different device cannot verify here *)
  let dev2, _ = fresh_device () in
  let tag2 = Device.hmac_tag dev2 "record" in
  Alcotest.(check bool) "foreign tag rejected" false (Device.hmac_verify dev ~msg:"record" ~tag:tag2)

let test_deterministic_provisioning () =
  let clock = Clock.create () in
  let ca' = Lazy.force ca in
  let d1 = Device.provision ~seed:"same" ~clock ~ca:ca' ~config:Device.test_config ~name:"n" () in
  let d2 = Device.provision ~seed:"same" ~clock ~ca:ca' ~config:Device.test_config ~name:"n" () in
  Alcotest.(check bool) "same seed, same keys" true
    (Rsa.equal_public (Device.signing_cert d1).Cert.key (Device.signing_cert d2).Cert.key);
  let d3 = Device.provision ~seed:"other" ~clock ~ca:ca' ~config:Device.test_config ~name:"n" () in
  Alcotest.(check bool) "different seed, different keys" false
    (Rsa.equal_public (Device.signing_cert d1).Cert.key (Device.signing_cert d3).Cert.key)

let test_tamper_response () =
  let dev, _ = fresh_device () in
  Alcotest.(check bool) "not zeroized" false (Device.is_zeroized dev);
  Device.tamper_respond dev;
  Alcotest.(check bool) "zeroized" true (Device.is_zeroized dev);
  Alcotest.check_raises "sign after zeroize" Device.Tamper_detected (fun () ->
      ignore (Device.sign_strong dev "x"));
  Alcotest.check_raises "hmac after zeroize" Device.Tamper_detected (fun () ->
      ignore (Device.hmac_tag dev "x"));
  Alcotest.check_raises "random after zeroize" Device.Tamper_detected (fun () -> ignore (Device.random dev 8));
  Alcotest.check_raises "certs after zeroize" Device.Tamper_detected (fun () ->
      ignore (Device.signing_cert dev))

let suite =
  [
    ("table 2 anchors, SCPU", `Quick, test_table2_anchors_scpu);
    ("table 2 anchors, host", `Quick, test_table2_anchors_host);
    ("cost model monotone", `Quick, test_cost_model_monotone);
    ("SCPU/host asymmetry", `Quick, test_scpu_host_asymmetry);
    ("signing services", `Quick, test_signing_services);
    ("weak key chain", `Quick, test_weak_key_chain);
    ("weak key rotation", `Quick, test_weak_key_rotation);
    ("ledger and stats", `Quick, test_ledger_and_stats);
    ("batch signing", `Quick, test_batch_signing);
    ("pooled weak batch rotates once", `Quick, test_pooled_weak_batch_rotates_once);
    ("zeroized batch refused", `Quick, test_zeroized_batch_refused);
    ("profile from measurements", `Quick, test_of_measurements);
    ("anchorless profile refused", `Quick, test_anchorless_profile);
    ("internal hmac", `Quick, test_hmac_internal);
    ("deterministic provisioning", `Quick, test_deterministic_provisioning);
    ("tamper response", `Quick, test_tamper_response);
  ]

let () = Alcotest.run "worm_scpu" [ ("scpu", suite) ]
