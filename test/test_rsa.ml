(* RSA signatures, primality, and certificates. Key generation is the
   slow part, so a few shared keys are generated once and reused. *)

open Worm_crypto
module Clock = Worm_simclock.Clock

let rng = Drbg.create ~seed:"test-rsa"
let key512 = lazy (Rsa.generate rng ~bits:512)
let key1024 = lazy (Rsa.generate rng ~bits:1024)

(* ---------- primality ---------- *)

let test_small_primes () =
  let prime_list = [ 2; 3; 5; 7; 11; 101; 257; 65537; 1_000_000_007 ] in
  List.iter
    (fun p -> Alcotest.(check bool) (string_of_int p) true (Prime.is_probably_prime rng (Nat.of_int p)))
    prime_list;
  let composite_list = [ 0; 1; 4; 9; 255; 65535; 1_000_000_006; 561 (* Carmichael *); 41041 ] in
  List.iter
    (fun c -> Alcotest.(check bool) (string_of_int c) false (Prime.is_probably_prime rng (Nat.of_int c)))
    composite_list

let test_known_large_prime () =
  (* 2^127 - 1 is a Mersenne prime; 2^127 + 1 is divisible by 3. *)
  let m127 = Nat.pred (Nat.shift_left Nat.one 127) in
  Alcotest.(check bool) "M127 prime" true (Prime.is_probably_prime rng m127);
  Alcotest.(check bool) "2^127+1 composite" false
    (Prime.is_probably_prime rng (Nat.succ (Nat.shift_left Nat.one 127)))

let test_generated_prime_shape () =
  let p = Prime.generate rng ~bits:96 in
  Alcotest.(check int) "exact bit width" 96 (Nat.bit_length p);
  Alcotest.(check bool) "odd" false (Nat.is_even p);
  Alcotest.(check bool) "probably prime" true (Prime.is_probably_prime rng p);
  Alcotest.(check bool) "second-highest bit set" true (Nat.test_bit p 94)

(* ---------- RSA sign/verify ---------- *)

let test_sign_verify_roundtrip () =
  let key = Lazy.force key512 in
  let pub = Rsa.public_of key in
  let s = Rsa.sign key "message" in
  Alcotest.(check int) "signature width" 64 (String.length s);
  Alcotest.(check bool) "verifies" true (Rsa.verify pub ~msg:"message" ~signature:s);
  Alcotest.(check bool) "wrong message" false (Rsa.verify pub ~msg:"messag3" ~signature:s);
  Alcotest.(check bool) "empty message" true
    (Rsa.verify pub ~msg:"" ~signature:(Rsa.sign key ""))

let test_signature_tamper_detected () =
  let key = Lazy.force key512 in
  let pub = Rsa.public_of key in
  let s = Bytes.of_string (Rsa.sign key "message") in
  Bytes.set s 10 (Char.chr (Char.code (Bytes.get s 10) lxor 1));
  Alcotest.(check bool) "bitflip rejected" false (Rsa.verify pub ~msg:"message" ~signature:(Bytes.to_string s));
  Alcotest.(check bool) "truncation rejected" false
    (Rsa.verify pub ~msg:"message" ~signature:(String.sub (Bytes.to_string s) 0 63));
  Alcotest.(check bool) "empty signature rejected" false (Rsa.verify pub ~msg:"message" ~signature:"")

let test_cross_key_rejected () =
  let k1 = Lazy.force key512 and k2 = Lazy.force key1024 in
  let s = Rsa.sign k1 "msg" in
  Alcotest.(check bool) "other key rejects" false (Rsa.verify (Rsa.public_of k2) ~msg:"msg" ~signature:s)

let test_raw_roundtrip () =
  let key = Lazy.force key512 in
  let pub = Rsa.public_of key in
  let m = Drbg.nat_below rng pub.Rsa.n in
  let c = Rsa.raw_apply_secret key m in
  Alcotest.(check bool) "CRT private op inverts public op" true
    (Nat.equal (Nat.modulo m pub.Rsa.n) (Rsa.raw_apply_public pub c))

let test_sign_batch () =
  let key = Lazy.force key512 in
  let pub = Rsa.public_of key in
  let msgs = [ ""; "a"; "batch message"; String.make 300 'x' ] in
  let sigs = Rsa.sign_batch key msgs in
  Alcotest.(check int) "one signature per message" (List.length msgs) (List.length sigs);
  Alcotest.(check (list string)) "batch equals sequential" (List.map (Rsa.sign key) msgs) sigs;
  List.iter2
    (fun msg signature -> Alcotest.(check bool) "batch signature verifies" true (Rsa.verify pub ~msg ~signature))
    msgs sigs;
  Alcotest.(check (list string)) "empty batch" [] (Rsa.sign_batch key [])

let prop_sign_verify =
  QCheck.Test.make ~name:"sign/verify on random messages" ~count:30 QCheck.string (fun msg ->
      let key = Lazy.force key512 in
      Rsa.verify (Rsa.public_of key) ~msg ~signature:(Rsa.sign key msg))

let prop_signature_not_transferable =
  QCheck.Test.make ~name:"signature bound to its message" ~count:30
    QCheck.(pair string string)
    (fun (m1, m2) ->
      QCheck.assume (not (String.equal m1 m2));
      let key = Lazy.force key512 in
      not (Rsa.verify (Rsa.public_of key) ~msg:m2 ~signature:(Rsa.sign key m1)))

let test_generate_rejects_small () =
  Alcotest.check_raises "under 512" (Invalid_argument "Rsa.generate: modulus below 512 bits") (fun () ->
      ignore (Rsa.generate rng ~bits:256))

let test_public_codec () =
  let pub = Rsa.public_of (Lazy.force key512) in
  let encoded = Worm_util.Codec.encode Rsa.encode_public pub in
  match Worm_util.Codec.decode Rsa.decode_public encoded with
  | Ok pub' -> Alcotest.(check bool) "roundtrip" true (Rsa.equal_public pub pub')
  | Error e -> Alcotest.fail e

let test_fingerprint_stable () =
  let pub = Rsa.public_of (Lazy.force key512) in
  Alcotest.(check string) "deterministic" (Rsa.fingerprint pub) (Rsa.fingerprint pub);
  Alcotest.(check int) "16 hex chars" 16 (String.length (Rsa.fingerprint pub));
  let other = Rsa.public_of (Lazy.force key1024) in
  Alcotest.(check bool) "distinct keys, distinct prints" false
    (String.equal (Rsa.fingerprint pub) (Rsa.fingerprint other))

(* ---------- certificates ---------- *)

let test_cert_lifecycle () =
  let ca = Lazy.force key1024 in
  let subject_key = Rsa.public_of (Lazy.force key512) in
  let cert =
    Cert.issue ~ca ~subject:"device-1/signing" ~role:Cert.Scpu_signing ~key:subject_key ~not_before:100L
      ~not_after:1000L
  in
  let ca_pub = Rsa.public_of ca in
  Alcotest.(check bool) "valid inside window" true (Cert.verify ~ca:ca_pub ~now:500L cert);
  Alcotest.(check bool) "not yet valid" false (Cert.verify ~ca:ca_pub ~now:50L cert);
  Alcotest.(check bool) "expired" false (Cert.verify ~ca:ca_pub ~now:1001L cert);
  Alcotest.(check bool) "wrong CA" false (Cert.verify ~ca:subject_key ~now:500L cert)

let test_cert_tamper_detected () =
  let ca = Lazy.force key1024 in
  let subject_key = Rsa.public_of (Lazy.force key512) in
  let cert =
    Cert.issue ~ca ~subject:"device-1/signing" ~role:Cert.Scpu_signing ~key:subject_key ~not_before:0L
      ~not_after:1000L
  in
  let ca_pub = Rsa.public_of ca in
  Alcotest.(check bool) "subject swap rejected" false
    (Cert.verify ~ca:ca_pub ~now:5L { cert with Cert.subject = "device-2/signing" });
  Alcotest.(check bool) "role swap rejected" false
    (Cert.verify ~ca:ca_pub ~now:5L { cert with Cert.role = Cert.Regulation_authority });
  Alcotest.(check bool) "validity extension rejected" false
    (Cert.verify ~ca:ca_pub ~now:5L { cert with Cert.not_after = Int64.max_int })

let test_cert_codec () =
  let ca = Lazy.force key1024 in
  let cert =
    Cert.issue ~ca ~subject:"dev/deletion" ~role:Cert.Scpu_deletion
      ~key:(Rsa.public_of (Lazy.force key512))
      ~not_before:0L ~not_after:(Clock.ns_of_years 10.)
  in
  let encoded = Worm_util.Codec.encode Cert.encode cert in
  match Worm_util.Codec.decode Cert.decode encoded with
  | Ok cert' ->
      Alcotest.(check bool) "roundtrip verifies" true
        (Cert.verify ~ca:(Rsa.public_of ca) ~now:5L cert');
      Alcotest.(check string) "subject preserved" cert.Cert.subject cert'.Cert.subject
  | Error e -> Alcotest.fail e

(* ---------- byte-identity known answers ---------- *)

(* Seeded keys and PKCS#1 signatures pinned byte for byte: a change to
   the bignum kernel, the CRT recombination or the prime search that
   alters a single key or signature bit fails here. *)
let kat_expected =
  [
    (512, "3c536eb333ba6298", "57e5adbb22f26bee");
    (1024, "36f33d3d46399ae6", "87fd1ed90967a7e3");
    (1024, "24ff2c1793dbccce", "46200c955a862465");
    (512, "1da813bd4a172dd6", "c24e2ac7a1d5b732");
    (2048, "0fd18ce941529f0d", "1ac8f1852782dbba");
  ]

let kat_keys =
  lazy
    (let rng = Drbg.create ~seed:"kat" in
     List.map (fun (bits, fingerprint, digest) -> (Rsa.generate rng ~bits, bits, fingerprint, digest)) kat_expected)

let kat_msgs = [ ""; "abc"; String.make 4096 'x' ]
let kat_digest sigs = String.sub (Worm_util.Hex.encode (Sha256.digest (String.concat "" sigs))) 0 16

let test_known_answers () =
  List.iter
    (fun (key, bits, fingerprint, digest) ->
      let label = Printf.sprintf "rsa-%d %s" bits fingerprint in
      Alcotest.(check string) (label ^ " fingerprint") fingerprint (Rsa.fingerprint (Rsa.public_of key));
      Alcotest.(check string) (label ^ " signatures") digest (kat_digest (List.map (Rsa.sign key) kat_msgs)))
    (Lazy.force kat_keys)

(* Two domains signing under one key at once: every signature must be
   the sequential one, and the known-answer messages must still give
   the pinned digests. A signing context shared between domains
   corrupts most signatures of a run this size. *)
let test_concurrent_signing () =
  let msgs = kat_msgs @ List.init 45 (Printf.sprintf "concurrent message %d") in
  let first_three = function a :: b :: c :: _ -> [ a; b; c ] | _ -> Alcotest.fail "short batch" in
  Worm_util.Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun (key, bits, fingerprint, digest) ->
          let label = Printf.sprintf "rsa-%d %s" bits fingerprint in
          let sequential = List.map (Rsa.sign key) msgs in
          let mapped = Worm_util.Pool.map_list pool (Rsa.sign key) msgs in
          let batched = Rsa.sign_batch ~pool key msgs in
          Alcotest.(check (list string)) (label ^ " Pool.map_list = sequential") sequential mapped;
          Alcotest.(check (list string)) (label ^ " sign_batch ~pool = sequential") sequential batched;
          Alcotest.(check string) (label ^ " pooled known answers") digest (kat_digest (first_three batched));
          Alcotest.(check (list string)) (label ^ " empty batch") [] (Rsa.sign_batch ~pool key []);
          Alcotest.(check (list string)) (label ^ " one-element batch") [ Rsa.sign key "one" ]
            (Rsa.sign_batch ~pool key [ "one" ]))
        (Lazy.force kat_keys))

(* One signature under a key of at least 1024 bits splits its two CRT
   halves over a pool: [Rsa.sign] on the shared pool, a one-message
   [sign_batch] on the pool it is given. Either must give the bytes of
   the sequential private operation, also when called from inside a
   task of either pool (a split nested in a pooled task must not
   deadlock). The reference encodes PKCS#1 v1.5 itself and signs
   through [raw_apply_secret]. *)
let sequential_signature key msg =
  let pub = Rsa.public_of key in
  let k = (Nat.bit_length pub.Rsa.n + 7) / 8 in
  let digest_info = Worm_util.Hex.decode "3031300d060960864801650304020105000420" ^ Sha256.digest msg in
  let em = "\x00\x01" ^ String.make (k - String.length digest_info - 3) '\xff' ^ "\x00" ^ digest_info in
  Nat.to_bytes_be_padded ~len:k (Rsa.raw_apply_secret key (Nat.of_bytes_be em))

let test_split_signing () =
  let msgs = kat_msgs @ List.init 5 (Printf.sprintf "split message %d") in
  let shared = Worm_util.Pool.shared () in
  Worm_util.Pool.with_pool ~domains:2 (fun pool2 ->
      let one_item pool key msg =
        match Rsa.sign_batch ~pool key [ msg ] with [ s ] -> s | _ -> Alcotest.fail "one signature per message"
      in
      let signers =
        [
          ("sign", Rsa.sign);
          ("one-item batch, shared pool", one_item shared);
          ("one-item batch, 2-domain pool", one_item pool2);
        ]
      in
      let callers =
        [
          ("caller", List.map);
          ("shared-pool tasks", Worm_util.Pool.map_list shared);
          ("2-domain-pool tasks", Worm_util.Pool.map_list pool2);
        ]
      in
      List.iter
        (fun (key, bits, fingerprint, _) ->
          if bits >= 1024 then begin
            let expected = List.map (sequential_signature key) msgs in
            Alcotest.(check (list string))
              (Printf.sprintf "rsa-%d %s unpooled batch = raw_apply_secret" bits fingerprint)
              expected (Rsa.sign_batch key msgs);
            List.iter
              (fun (signer, sign) ->
                List.iter
                  (fun (caller, map) ->
                    Alcotest.(check (list string))
                      (Printf.sprintf "rsa-%d %s %s from %s = raw_apply_secret" bits fingerprint signer caller)
                      expected (map (sign key) msgs))
                  callers)
              signers
          end)
        (Lazy.force kat_keys))

let suite =
  [
    ("small primes classified", `Quick, test_small_primes);
    ("large prime classified", `Quick, test_known_large_prime);
    ("generated prime shape", `Quick, test_generated_prime_shape);
    ("sign/verify roundtrip", `Quick, test_sign_verify_roundtrip);
    ("tampered signature rejected", `Quick, test_signature_tamper_detected);
    ("cross-key rejected", `Quick, test_cross_key_rejected);
    ("raw CRT roundtrip", `Quick, test_raw_roundtrip);
    ("batch signing", `Quick, test_sign_batch);
    ("small modulus rejected", `Quick, test_generate_rejects_small);
    ("public key codec", `Quick, test_public_codec);
    ("fingerprint stable", `Quick, test_fingerprint_stable);
    ("cert lifecycle", `Quick, test_cert_lifecycle);
    ("cert tamper detected", `Quick, test_cert_tamper_detected);
    ("cert codec", `Quick, test_cert_codec);
    ("known-answer keys and signatures", `Quick, test_known_answers);
    ("concurrent signing under one key", `Quick, test_concurrent_signing);
    ("split signing equals sequential", `Quick, test_split_signing);
    QCheck_alcotest.to_alcotest prop_sign_verify;
    QCheck_alcotest.to_alcotest prop_signature_not_transferable;
  ]

let () = Alcotest.run "worm_rsa" [ ("rsa", suite) ]
