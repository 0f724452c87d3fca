(* Unit and property tests for Worm_util: hex, binary codec, and
   constant-time comparison. *)

open Worm_util

let check = Alcotest.check
let string_t = Alcotest.string

(* ---------- Hex ---------- *)

let test_hex_known () =
  check string_t "empty" "" (Hex.encode "");
  check string_t "abc" "616263" (Hex.encode "abc");
  check string_t "bytes" "00ff10" (Hex.encode "\x00\xff\x10");
  check string_t "roundtrip" "\x00\xff\x10" (Hex.decode "00ff10");
  check string_t "uppercase accepted" "\xab\xcd" (Hex.decode "ABCD")

let test_hex_errors () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode: odd length") (fun () ->
      ignore (Hex.decode "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Hex.decode: non-hex character") (fun () ->
      ignore (Hex.decode "zz"))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:500 QCheck.string (fun s ->
      String.equal (Hex.decode (Hex.encode s)) s)

(* ---------- Ct ---------- *)

let test_ct_equal () =
  Alcotest.(check bool) "equal" true (Ct.equal "abc" "abc");
  Alcotest.(check bool) "unequal" false (Ct.equal "abc" "abd");
  Alcotest.(check bool) "length differs" false (Ct.equal "abc" "abcd");
  Alcotest.(check bool) "empty" true (Ct.equal "" "")

let prop_ct_matches_structural =
  QCheck.Test.make ~name:"Ct.equal agrees with =" ~count:500
    QCheck.(pair string string)
    (fun (a, b) -> Ct.equal a b = String.equal a b)

(* ---------- Codec ---------- *)

let test_codec_ints () =
  let e = Codec.encoder () in
  Codec.u8 e 0x12;
  Codec.u16 e 0x3456;
  Codec.u32 e 0x789abcde;
  Codec.u64 e 0x0123456789abcdefL;
  let s = Codec.to_string e in
  check string_t "layout" "\x12\x34\x56\x78\x9a\xbc\xde\x01\x23\x45\x67\x89\xab\xcd\xef" s;
  let d = Codec.decoder s in
  Alcotest.(check int) "u8" 0x12 (Codec.read_u8 d);
  Alcotest.(check int) "u16" 0x3456 (Codec.read_u16 d);
  Alcotest.(check int) "u32" 0x789abcde (Codec.read_u32 d);
  Alcotest.(check int64) "u64" 0x0123456789abcdefL (Codec.read_u64 d);
  Codec.expect_end d

let test_codec_ranges () =
  let e = Codec.encoder () in
  Alcotest.check_raises "u8 over" (Invalid_argument "Codec.u8") (fun () -> Codec.u8 e 256);
  Alcotest.check_raises "u8 under" (Invalid_argument "Codec.u8") (fun () -> Codec.u8 e (-1));
  Alcotest.check_raises "u16 over" (Invalid_argument "Codec.u16") (fun () -> Codec.u16 e 65536);
  Alcotest.check_raises "u32 over" (Invalid_argument "Codec.u32") (fun () -> Codec.u32 e 0x100000000);
  Alcotest.check_raises "int_as_u64 negative" (Invalid_argument "Codec.int_as_u64") (fun () ->
      Codec.int_as_u64 e (-5))

let test_codec_truncation () =
  let d = Codec.decoder "\x01" in
  Alcotest.check_raises "u32 short" Codec.Truncated (fun () -> ignore (Codec.read_u32 d))

let test_codec_trailing () =
  match Codec.decode Codec.read_u8 "\x01\x02" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes accepted"

let test_codec_bool_strict () =
  let d = Codec.decoder "\x02" in
  (match Codec.read_bool d with
  | exception Codec.Malformed _ -> ()
  | _ -> Alcotest.fail "bool tag 2 accepted");
  let d = Codec.decoder "\x07" in
  match Codec.read_option Codec.read_u8 d with
  | exception Codec.Malformed _ -> ()
  | _ -> Alcotest.fail "option tag 7 accepted"

let value_codec =
  let enc e (n, s, flag, opt, l) =
    Codec.int_as_u64 e n;
    Codec.bytes e s;
    Codec.bool e flag;
    Codec.option Codec.u32 e opt;
    Codec.list (fun e x -> Codec.u16 e x) e l
  in
  let dec d =
    let n = Codec.read_int_as_u64 d in
    let s = Codec.read_bytes d in
    let flag = Codec.read_bool d in
    let opt = Codec.read_option Codec.read_u32 d in
    let l = Codec.read_list Codec.read_u16 d in
    (n, s, flag, opt, l)
  in
  (enc, dec)

let prop_codec_roundtrip =
  let enc, dec = value_codec in
  let gen =
    QCheck.(
      tup5 (map abs int) string bool (option (int_bound 0xffffffff)) (small_list (int_bound 0xffff)))
  in
  QCheck.Test.make ~name:"composite codec roundtrip" ~count:300 gen (fun v ->
      match Codec.decode dec (Codec.encode enc v) with
      | Ok v' -> v = v'
      | Error _ -> false)

let prop_codec_random_bytes_never_crash =
  let enc, dec = value_codec in
  ignore enc;
  QCheck.Test.make ~name:"decoder total on random bytes" ~count:300 QCheck.string (fun s ->
      match Codec.decode dec s with
      | Ok _ | Error _ -> true)

(* ---------- Codec vs the retained seed implementation ---------- *)

(* The byte format is signed and hashed, so the rewritten codec must be
   bit-identical to test/support/ref_codec.ml in both directions. *)

module Ref = Worm_testkit.Ref_codec

let ref_value_codec =
  let enc e (n, s, flag, opt, l) =
    Ref.int_as_u64 e n;
    Ref.bytes e s;
    Ref.bool e flag;
    Ref.option Ref.u32 e opt;
    Ref.list (fun e x -> Ref.u16 e x) e l
  in
  let dec d =
    let n = Ref.read_int_as_u64 d in
    let s = Ref.read_bytes d in
    let flag = Ref.read_bool d in
    let opt = Ref.read_option Ref.read_u32 d in
    let l = Ref.read_list Ref.read_u16 d in
    (n, s, flag, opt, l)
  in
  (enc, dec)

let composite_gen =
  QCheck.(
    tup5 (map abs int) string bool (option (int_bound 0xffffffff)) (small_list (int_bound 0xffff)))

let prop_codec_matches_ref_encode =
  let enc, _ = value_codec in
  let ref_enc, _ = ref_value_codec in
  QCheck.Test.make ~name:"new codec encodes ref codec's bytes" ~count:300 composite_gen (fun v ->
      String.equal (Codec.encode enc v) (Ref.encode ref_enc v))

let prop_codec_matches_ref_decode =
  let _, dec = value_codec in
  let ref_enc, ref_dec = ref_value_codec in
  QCheck.Test.make ~name:"new codec decodes ref codec's bytes (and back)" ~count:300 composite_gen
    (fun v ->
      let bytes = Ref.encode ref_enc v in
      match (Codec.decode dec bytes, Ref.decode ref_dec bytes) with
      | Ok a, Ok b -> a = v && b = v
      | _ -> false)

(* The fixed-width words the composite value does not carry. *)
let prop_words_match_ref =
  let gen = QCheck.(quad (int_bound 0xff) (int_bound 0xffff) (int_bound 0xffffffff) int64) in
  QCheck.Test.make ~name:"fixed-width words match ref codec both ways" ~count:300 gen (fun (a, b, c, d) ->
      let bytes =
        Ref.encode
          (fun e () ->
            Ref.u8 e a;
            Ref.u16 e b;
            Ref.u32 e c;
            Ref.u64 e d)
          ()
      in
      let ours =
        Codec.encode
          (fun e () ->
            Codec.u8 e a;
            Codec.u16 e b;
            Codec.u32 e c;
            Codec.u64 e d)
          ()
      in
      let read dec =
        let a = Codec.read_u8 dec in
        let b = Codec.read_u16 dec in
        let c = Codec.read_u32 dec in
        (a, b, c, Codec.read_u64 dec)
      in
      String.equal ours bytes && Codec.decode read bytes = Ok (a, b, c, d))

let test_pool_reuse () =
  let before = (Codec.pool_stats ()).Codec.pool_reused in
  ignore (Codec.encode (fun e () -> Codec.u8 e 1) ());
  ignore (Codec.encode (fun e () -> Codec.u8 e 2) ());
  let after = (Codec.pool_stats ()).Codec.pool_reused in
  Alcotest.(check bool) "second borrow reuses" true (after > before);
  (* nested borrows must hand out distinct encoders *)
  Codec.with_encoder (fun outer ->
      Codec.u8 outer 1;
      Codec.with_encoder (fun inner ->
          Codec.u8 inner 2;
          Alcotest.(check string) "inner isolated" "\x02" (Codec.to_string inner));
      Codec.u8 outer 3;
      Alcotest.(check string) "outer intact" "\x01\x03" (Codec.to_string outer))

let suite =
  [
    ("hex known values", `Quick, test_hex_known);
    ("hex error handling", `Quick, test_hex_errors);
    ("ct equal", `Quick, test_ct_equal);
    ("codec int layout", `Quick, test_codec_ints);
    ("codec range checks", `Quick, test_codec_ranges);
    ("codec truncation", `Quick, test_codec_truncation);
    ("codec trailing bytes", `Quick, test_codec_trailing);
    ("codec strict tags", `Quick, test_codec_bool_strict);
    ("encoder pool reuse", `Quick, test_pool_reuse);
    QCheck_alcotest.to_alcotest prop_hex_roundtrip;
    QCheck_alcotest.to_alcotest prop_ct_matches_structural;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    QCheck_alcotest.to_alcotest prop_codec_random_bytes_never_crash;
    QCheck_alcotest.to_alcotest prop_codec_matches_ref_encode;
    QCheck_alcotest.to_alcotest prop_codec_matches_ref_decode;
    QCheck_alcotest.to_alcotest prop_words_match_ref;
  ]

let () = Alcotest.run "worm_util" [ ("util", suite) ]
