(* Known-answer vectors (FIPS 180-4, RFC 2202/4231) and structural
   properties for SHA-1, SHA-256, HMAC and the chained hash. *)

open Worm_crypto
module Hex = Worm_util.Hex

let check_hex name expected actual = Alcotest.(check string) name expected (Hex.encode actual)

(* ---------- SHA-256 (FIPS vectors) ---------- *)

(* NIST 896-bit two-block message (FIPS 180-4 appendix): exercises the
   multi-block compression path with padding spilling into a third block. *)
let nist_896 =
  "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
  ^ "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"

let test_sha256_vectors () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" (Sha256.digest "");
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" (Sha256.digest "abc");
  check_hex "448-bit" "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "896-bit" "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" (Sha256.digest nist_896);
  check_hex "million a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest (String.make 1_000_000 'a'))

let test_sha1_vectors () =
  check_hex "empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709" (Sha1.digest "");
  check_hex "abc" "a9993e364706816aba3e25717850c26c9cd0d89d" (Sha1.digest "abc");
  check_hex "448-bit" "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (Sha1.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "896-bit" "a49b2446a02c645bf419f995b67091253a04a259" (Sha1.digest nist_896);
  check_hex "million a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f" (Sha1.digest (String.make 1_000_000 'a'))

(* Deterministic streaming checks: feed the 896-bit vector in pieces cut
   at odd offsets so every partial-block buffer state gets crossed
   (1-byte feeds, a cut mid-first-block, a cut one byte past the block
   boundary, and 7-byte strides that never align with 64). *)
let test_streaming_odd_offsets () =
  let feed_at_cuts feed ctx cuts =
    let n = String.length nist_896 in
    let cuts = List.sort_uniq compare (List.filter (fun c -> c > 0 && c < n) cuts) @ [ n ] in
    ignore
      (List.fold_left
         (fun start p ->
           feed ctx (String.sub nist_896 start (p - start));
           p)
         0 cuts)
  in
  let strides k = List.init (String.length nist_896 / k) (fun i -> (i + 1) * k) in
  let check256 name cuts =
    let ctx = Sha256.init () in
    feed_at_cuts Sha256.feed ctx cuts;
    check_hex name "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" (Sha256.get ctx)
  in
  let check1 name cuts =
    let ctx = Sha1.init () in
    feed_at_cuts Sha1.feed ctx cuts;
    check_hex name "a49b2446a02c645bf419f995b67091253a04a259" (Sha1.get ctx)
  in
  List.iter
    (fun (name, cuts) ->
      check256 ("sha256 " ^ name) cuts;
      check1 ("sha1 " ^ name) cuts)
    [
      ("byte at a time", strides 1);
      ("7-byte strides", strides 7);
      ("cut mid-block", [ 37 ]);
      ("cut at 63/64/65", [ 63; 64; 65 ]);
      ("uneven trio", [ 1; 66; 111 ]);
    ]

(* Incremental feeding must agree with one-shot digestion regardless of
   chunking — this exercises the partial-block buffer paths. *)
let prop_incremental_agrees hash_init hash_feed hash_get hash_digest name =
  QCheck.Test.make ~name ~count:200
    QCheck.(pair string (small_list small_nat))
    (fun (s, cuts) ->
      let ctx = hash_init () in
      let n = String.length s in
      let positions = List.sort_uniq compare (List.map (fun c -> if n = 0 then 0 else c mod (n + 1)) cuts) in
      let rec feed_pieces start = function
        | [] -> hash_feed ctx (String.sub s start (n - start))
        | p :: rest when p >= start ->
            hash_feed ctx (String.sub s start (p - start));
            feed_pieces p rest
        | _ :: rest -> feed_pieces start rest
      in
      feed_pieces 0 positions;
      String.equal (hash_get ctx) (hash_digest s))

let prop_sha256_incremental = prop_incremental_agrees Sha256.init Sha256.feed Sha256.get Sha256.digest "sha256 incremental"
let prop_sha1_incremental = prop_incremental_agrees Sha1.init Sha1.feed Sha1.get Sha1.digest "sha1 incremental"

let test_ctx_reuse_rejected () =
  let ctx = Sha256.init () in
  Sha256.feed ctx "x";
  ignore (Sha256.get ctx);
  Alcotest.check_raises "feed after get" (Invalid_argument "Sha256.feed: context already finalized") (fun () ->
      Sha256.feed ctx "y");
  Alcotest.check_raises "second get" (Invalid_argument "Sha256.get: context already finalized") (fun () ->
      ignore (Sha256.get ctx));
  Alcotest.check_raises "feed_sub after get" (Invalid_argument "Sha256.feed_sub: context already finalized")
    (fun () -> Sha256.feed_sub ctx "abc" ~pos:0 ~len:1);
  Alcotest.check_raises "digest_into after get" (Invalid_argument "Sha256.get: context already finalized")
    (fun () -> Sha256.digest_into ctx (Bytes.create 32) ~pos:0);
  let ctx1 = Sha1.init () in
  Sha1.feed ctx1 "x";
  ignore (Sha1.get ctx1);
  Alcotest.check_raises "sha1 feed after get" (Invalid_argument "Sha1.feed: context already finalized")
    (fun () -> Sha1.feed ctx1 "y");
  Alcotest.check_raises "sha1 second get" (Invalid_argument "Sha1.get: context already finalized") (fun () ->
      ignore (Sha1.get ctx1))

(* ---------- Zero-copy entry points ---------- *)

let test_feed_sub_odd_splits () =
  (* Feed the 896-bit vector as substrings of a larger buffer, cut at
     prime strides so block boundaries never align with the slices. *)
  let padded = "PREFIX-" ^ nist_896 ^ "-SUFFIX" in
  let base = String.length "PREFIX-" in
  let n = String.length nist_896 in
  List.iter
    (fun stride ->
      let ctx = Sha256.init () in
      let ctx1 = Sha1.init () in
      let pos = ref 0 in
      while !pos < n do
        let len = min stride (n - !pos) in
        Sha256.feed_sub ctx padded ~pos:(base + !pos) ~len;
        Sha1.feed_sub ctx1 padded ~pos:(base + !pos) ~len;
        pos := !pos + len
      done;
      check_hex
        (Printf.sprintf "sha256 feed_sub stride %d" stride)
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" (Sha256.get ctx);
      check_hex
        (Printf.sprintf "sha1 feed_sub stride %d" stride)
        "a49b2446a02c645bf419f995b67091253a04a259" (Sha1.get ctx1))
    [ 1; 3; 7; 61; 64; 67; 113 ]

let test_feed_sub_bounds () =
  let ctx = Sha256.init () in
  Alcotest.check_raises "negative pos" (Invalid_argument "Sha256.feed_sub: out of bounds") (fun () ->
      Sha256.feed_sub ctx "abc" ~pos:(-1) ~len:1);
  Alcotest.check_raises "negative len" (Invalid_argument "Sha256.feed_sub: out of bounds") (fun () ->
      Sha256.feed_sub ctx "abc" ~pos:0 ~len:(-1));
  Alcotest.check_raises "past end" (Invalid_argument "Sha256.feed_sub: out of bounds") (fun () ->
      Sha256.feed_sub ctx "abc" ~pos:2 ~len:2)

let test_digest_sub_and_into () =
  let s = "xyzabc012" in
  Alcotest.(check string) "digest_sub" (Sha256.digest "abc") (Sha256.digest_sub s ~pos:3 ~len:3);
  let out = Bytes.make 40 '\xff' in
  let ctx = Sha256.init () in
  Sha256.feed ctx "abc";
  Sha256.digest_into ctx out ~pos:4;
  Alcotest.(check string) "digest_into payload" (Sha256.digest "abc") (Bytes.sub_string out 4 32);
  Alcotest.(check string) "digest_into leaves margins" (String.make 4 '\xff') (Bytes.sub_string out 0 4);
  Alcotest.(check string) "digest_parts" (Sha256.digest "abcdef") (Sha256.digest_parts [ "ab"; ""; "cdef" ])

(* The production cores must agree with the retained reference
   implementation on arbitrary inputs, not just the FIPS vectors. *)
let prop_matches_reference =
  QCheck.Test.make ~name:"unsafe cores = reference implementation" ~count:300 QCheck.string (fun s ->
      String.equal (Sha256.digest s) (Worm_testkit.Ref_hash.Sha256.digest s)
      && String.equal (Sha1.digest s) (Worm_testkit.Ref_hash.Sha1.digest s))

(* Seeded random inputs against the reference core: streaming feed_sub
   splits at odd offsets, digest_sub windows, digest_parts over multi-
   block parts, and multi-buffer hashing sequential and over a pool. *)
let test_reference_agreement () =
  let module Ref256 = Worm_testkit.Ref_hash.Sha256 in
  let module Ref1 = Worm_testkit.Ref_hash.Sha1 in
  let rng = Drbg.create ~seed:"hash-reference-agreement" in
  for round = 1 to 100 do
    let len = Drbg.int_below rng 1500 in
    let s = Drbg.generate rng len in
    let ctx256 = Sha256.init () in
    let ctx1 = Sha1.init () in
    let pos = ref 0 in
    while !pos < len do
      let n = min (1 + Drbg.int_below rng 131) (len - !pos) in
      Sha256.feed_sub ctx256 s ~pos:!pos ~len:n;
      Sha1.feed_sub ctx1 s ~pos:!pos ~len:n;
      pos := !pos + n
    done;
    Alcotest.(check string) (Printf.sprintf "sha256 split #%d" round) (Ref256.digest s) (Sha256.get ctx256);
    Alcotest.(check string) (Printf.sprintf "sha1 split #%d" round) (Ref1.digest s) (Sha1.get ctx1);
    let pos = if len = 0 then 0 else Drbg.int_below rng len in
    Alcotest.(check string)
      (Printf.sprintf "digest_sub #%d" round)
      (Ref256.digest (String.sub s pos (len - pos)))
      (Sha256.digest_sub s ~pos ~len:(len - pos))
  done;
  let parts = [ Drbg.generate rng 4096; "\x00"; "k0"; ""; Drbg.generate rng 777 ] in
  Alcotest.(check string) "digest_parts = reference of the concatenation"
    (Ref256.digest (String.concat "" parts))
    (Sha256.digest_parts parts);
  let inputs = List.init 64 (fun i -> Drbg.generate rng (i * 37)) in
  let expected = List.map Ref256.digest inputs in
  List.iter
    (fun domains ->
      Worm_util.Pool.with_width domains (fun () ->
          Alcotest.(check bool)
            (Printf.sprintf "multi-buffer at %d domains" domains)
            true
            (Worm_util.Pool.map Sha256.digest inputs = expected);
          Alcotest.(check bool)
            (Printf.sprintf "multi-buffer parts at %d domains" domains)
            true
            (Worm_util.Pool.map (fun x -> Sha256.digest_parts [ x; "" ]) inputs = expected)))
    [ 1; 2 ]

(* ---------- HMAC (RFC 4231 / RFC 2202) ---------- *)

let test_hmac_sha256_vectors () =
  check_hex "rfc4231 case 1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.sha256 ~key:(String.make 20 '\x0b') "Hi There");
  check_hex "rfc4231 case 2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.sha256 ~key:"Jefe" "what do ya want for nothing?");
  check_hex "rfc4231 case 3" "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.sha256 ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'));
  check_hex "rfc4231 case 4" "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
    (Hmac.sha256
       ~key:(String.init 25 (fun i -> Char.chr (i + 1)))
       (String.make 50 '\xcd'));
  (* long key (hashed down) *)
  check_hex "rfc4231 case 6" "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.sha256 ~key:(String.make 131 '\xaa') "Test Using Larger Than Block-Size Key - Hash Key First");
  (* long key AND long data *)
  check_hex "rfc4231 case 7" "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
    (Hmac.sha256 ~key:(String.make 131 '\xaa')
       ("This is a test using a larger than block-size key and a larger than block-size data. "
      ^ "The key needs to be hashed before being used by the HMAC algorithm."))

let test_hmac_zero_copy_agrees () =
  (* mac_parts over a split and mac_sub over a slice must match the
     one-shot mac of the equivalent contiguous string. *)
  let key = "zero-copy-key" in
  let msg = "The WORM device signs what it stores, not what it is shown." in
  Alcotest.(check string) "sha256_parts = sha256"
    (Hmac.sha256 ~key msg)
    (Hmac.sha256_parts ~key [ "The WORM device signs "; "what it stores, "; ""; "not what it is shown." ]);
  let padded = "<<<" ^ msg ^ ">>>" in
  Alcotest.(check string) "sha256_sub = sha256"
    (Hmac.sha256 ~key msg)
    (Hmac.sha256_sub ~key padded ~pos:3 ~len:(String.length msg))

let test_hmac_sha1_vectors () =
  check_hex "rfc2202 case 1" "b617318655057264e28bc0b6fb378c8ef146be00"
    (Hmac.sha1 ~key:(String.make 20 '\x0b') "Hi There");
  check_hex "rfc2202 case 2" "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
    (Hmac.sha1 ~key:"Jefe" "what do ya want for nothing?")

let test_hmac_verify () =
  let key = "secret" and msg = "payload" in
  let mac = Hmac.sha256 ~key msg in
  Alcotest.(check bool) "accepts" true (Hmac.verify_sha256 ~key ~msg ~mac);
  Alcotest.(check bool) "rejects wrong msg" false (Hmac.verify_sha256 ~key ~msg:"payloae" ~mac);
  Alcotest.(check bool) "rejects wrong key" false (Hmac.verify_sha256 ~key:"secre7" ~msg ~mac)

(* ---------- Chained hash ---------- *)

let test_chained_basic () =
  let a = Chained_hash.of_blocks [ "one"; "two" ] in
  let b = Chained_hash.add (Chained_hash.add Chained_hash.empty "one") "two" in
  Alcotest.(check bool) "incremental = batch" true (Chained_hash.equal a b);
  Alcotest.(check int) "32 bytes" 32 (String.length (Chained_hash.value a))

let test_chained_boundary_sensitive () =
  (* Length delimiting: moving a boundary must change the chain value. *)
  let a = Chained_hash.of_blocks [ "ab"; "c" ] in
  let b = Chained_hash.of_blocks [ "a"; "bc" ] in
  let c = Chained_hash.of_blocks [ "abc" ] in
  Alcotest.(check bool) "ab+c <> a+bc" false (Chained_hash.equal a b);
  Alcotest.(check bool) "ab+c <> abc" false (Chained_hash.equal a c);
  Alcotest.(check bool) "empty block matters" false
    (Chained_hash.equal (Chained_hash.of_blocks [ "x"; "" ]) (Chained_hash.of_blocks [ "x" ]))

let test_chained_add_sub () =
  (* add_sub on a slice must equal add of the materialised substring. *)
  let buf = "padding|block-payload|more" in
  let a = Chained_hash.add_sub Chained_hash.empty buf ~pos:8 ~len:13 in
  let b = Chained_hash.add Chained_hash.empty "block-payload" in
  Alcotest.(check bool) "add_sub = add of sub" true (Chained_hash.equal a b);
  Alcotest.check_raises "bad bounds"
    (Invalid_argument "Chained_hash.add_sub: out of bounds")
    (fun () -> ignore (Chained_hash.add_sub Chained_hash.empty buf ~pos:20 ~len:10))

let prop_chained_injective_on_order =
  QCheck.Test.make ~name:"chained hash order-sensitive" ~count:200
    QCheck.(pair (small_list string) (small_list string))
    (fun (xs, ys) ->
      if xs = ys then Chained_hash.(equal (of_blocks xs) (of_blocks ys))
      else not Chained_hash.(equal (of_blocks xs) (of_blocks ys)))

(* ---------- DRBG ---------- *)

let test_drbg_deterministic () =
  let a = Drbg.create ~seed:"seed-1" and b = Drbg.create ~seed:"seed-1" in
  Alcotest.(check string) "same seed, same stream" (Drbg.generate a 64) (Drbg.generate b 64);
  let c = Drbg.create ~seed:"seed-2" in
  Alcotest.(check bool) "different seed, different stream" false
    (String.equal (Drbg.generate (Drbg.create ~seed:"seed-1") 64) (Drbg.generate c 64))

let test_drbg_split_independent () =
  let parent = Drbg.create ~seed:"parent" in
  let c1 = Drbg.split parent ~label:"a" in
  let c2 = Drbg.split parent ~label:"b" in
  Alcotest.(check bool) "children differ" false (String.equal (Drbg.generate c1 32) (Drbg.generate c2 32))

let prop_drbg_int_below_in_range =
  QCheck.Test.make ~name:"int_below in range" ~count:300
    QCheck.(pair string (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Drbg.create ~seed in
      let v = Drbg.int_below rng bound in
      v >= 0 && v < bound)

let prop_drbg_nat_below_in_range =
  QCheck.Test.make ~name:"nat_below in range" ~count:100 QCheck.string (fun seed ->
      let rng = Drbg.create ~seed in
      let bound = Nat.add (Drbg.nat_bits rng 100) Nat.one in
      Nat.compare (Drbg.nat_below rng bound) bound < 0)

let test_drbg_nat_bits_width () =
  let rng = Drbg.create ~seed:"bits" in
  for _ = 1 to 50 do
    Alcotest.(check bool) "within width" true (Nat.bit_length (Drbg.nat_bits rng 65) <= 65)
  done

let suite =
  [
    ("sha256 FIPS vectors", `Quick, test_sha256_vectors);
    ("sha1 FIPS vectors", `Quick, test_sha1_vectors);
    ("streaming at odd offsets", `Quick, test_streaming_odd_offsets);
    ("context reuse rejected", `Quick, test_ctx_reuse_rejected);
    ("feed_sub odd splits", `Quick, test_feed_sub_odd_splits);
    ("feed_sub bounds", `Quick, test_feed_sub_bounds);
    ("digest_sub / digest_into", `Quick, test_digest_sub_and_into);
    ("odd-offset splits and multi-buffer match reference", `Quick, test_reference_agreement);
    ("hmac-sha256 RFC vectors", `Quick, test_hmac_sha256_vectors);
    ("hmac-sha1 RFC vectors", `Quick, test_hmac_sha1_vectors);
    ("hmac verify", `Quick, test_hmac_verify);
    ("hmac zero-copy entry points", `Quick, test_hmac_zero_copy_agrees);
    ("chained hash basics", `Quick, test_chained_basic);
    ("chained hash boundaries", `Quick, test_chained_boundary_sensitive);
    ("chained hash add_sub", `Quick, test_chained_add_sub);
    ("drbg determinism", `Quick, test_drbg_deterministic);
    ("drbg split independence", `Quick, test_drbg_split_independent);
    ("drbg nat_bits width", `Quick, test_drbg_nat_bits_width);
    QCheck_alcotest.to_alcotest prop_sha256_incremental;
    QCheck_alcotest.to_alcotest prop_sha1_incremental;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_chained_injective_on_order;
    QCheck_alcotest.to_alcotest prop_drbg_int_below_in_range;
    QCheck_alcotest.to_alcotest prop_drbg_nat_below_in_range;
  ]

let () = Alcotest.run "worm_hash" [ ("hash", suite) ]
