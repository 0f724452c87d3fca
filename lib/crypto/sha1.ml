(* SHA-1 (FIPS 180-4) with an unsafe, fully-unrolled compression core.

   Retained because the paper's SCPU (IBM 4764) benchmarks hashing with
   SHA-1 (Table 2); the WORM layer itself signs SHA-256 digests.

   32-bit words are carried in native ints. The unrolled core below is
   machine-generated (do not hand-edit round lines) and obeys the same
   invariants as Sha256.compress: named values are masked at binding,
   unmasked intermediates are never right-shifted, and every caller
   establishes [off + 64 <= String.length s] before the unsafe loads. *)

type ctx = {
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  buf : Bytes.t; (* partial block; doubles as the padding block *)
  mutable buf_len : int;
  mutable total : int; (* bytes fed *)
  mutable finalized : bool;
}

let digest_size = 20
let block_size = 64

let init () =
  {
    h0 = 0x67452301;
    h1 = 0xEFCDAB89;
    h2 = 0x98BADCFE;
    h3 = 0x10325476;
    h4 = 0xC3D2E1F0;
    buf = Bytes.create block_size;
    buf_len = 0;
    total = 0;
    finalized = false;
  }


(* Unaligned 32-bit load + byte swap compile to two instructions on
   amd64; the box/unbox pair is eliminated by the backend. Soundness of
   the unchecked load: callers of [compress] establish
   [off + 64 <= String.length s]. *)
external unsafe_get_32 : string -> int -> int32 = "%caml_string_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let compress ctx s off =
  let w0 = swap32 (unsafe_get_32 s off) in
  let w1 = swap32 (unsafe_get_32 s (off + 4)) in
  let w2 = swap32 (unsafe_get_32 s (off + 8)) in
  let w3 = swap32 (unsafe_get_32 s (off + 12)) in
  let w4 = swap32 (unsafe_get_32 s (off + 16)) in
  let w5 = swap32 (unsafe_get_32 s (off + 20)) in
  let w6 = swap32 (unsafe_get_32 s (off + 24)) in
  let w7 = swap32 (unsafe_get_32 s (off + 28)) in
  let w8 = swap32 (unsafe_get_32 s (off + 32)) in
  let w9 = swap32 (unsafe_get_32 s (off + 36)) in
  let w10 = swap32 (unsafe_get_32 s (off + 40)) in
  let w11 = swap32 (unsafe_get_32 s (off + 44)) in
  let w12 = swap32 (unsafe_get_32 s (off + 48)) in
  let w13 = swap32 (unsafe_get_32 s (off + 52)) in
  let w14 = swap32 (unsafe_get_32 s (off + 56)) in
  let w15 = swap32 (unsafe_get_32 s (off + 60)) in
  let a = Int32.of_int ctx.h0 in
  let b = Int32.of_int ctx.h1 in
  let c = Int32.of_int ctx.h2 in
  let d = Int32.of_int ctx.h3 in
  let e = Int32.of_int ctx.h4 in
  let e = (Int32.add (Int32.add e (Int32.logor (Int32.shift_left a 5) (Int32.shift_right_logical a 27))) (Int32.add (Int32.logxor d (Int32.logand b (Int32.logxor c d))) (Int32.add 0x5A827999l w0))) in
  let b = (Int32.logor (Int32.shift_left b 30) (Int32.shift_right_logical b 2)) in
  let d = (Int32.add (Int32.add d (Int32.logor (Int32.shift_left e 5) (Int32.shift_right_logical e 27))) (Int32.add (Int32.logxor c (Int32.logand a (Int32.logxor b c))) (Int32.add 0x5A827999l w1))) in
  let a = (Int32.logor (Int32.shift_left a 30) (Int32.shift_right_logical a 2)) in
  let c = (Int32.add (Int32.add c (Int32.logor (Int32.shift_left d 5) (Int32.shift_right_logical d 27))) (Int32.add (Int32.logxor b (Int32.logand e (Int32.logxor a b))) (Int32.add 0x5A827999l w2))) in
  let e = (Int32.logor (Int32.shift_left e 30) (Int32.shift_right_logical e 2)) in
  let b = (Int32.add (Int32.add b (Int32.logor (Int32.shift_left c 5) (Int32.shift_right_logical c 27))) (Int32.add (Int32.logxor a (Int32.logand d (Int32.logxor e a))) (Int32.add 0x5A827999l w3))) in
  let d = (Int32.logor (Int32.shift_left d 30) (Int32.shift_right_logical d 2)) in
  let a = (Int32.add (Int32.add a (Int32.logor (Int32.shift_left b 5) (Int32.shift_right_logical b 27))) (Int32.add (Int32.logxor e (Int32.logand c (Int32.logxor d e))) (Int32.add 0x5A827999l w4))) in
  let c = (Int32.logor (Int32.shift_left c 30) (Int32.shift_right_logical c 2)) in
  let e = (Int32.add (Int32.add e (Int32.logor (Int32.shift_left a 5) (Int32.shift_right_logical a 27))) (Int32.add (Int32.logxor d (Int32.logand b (Int32.logxor c d))) (Int32.add 0x5A827999l w5))) in
  let b = (Int32.logor (Int32.shift_left b 30) (Int32.shift_right_logical b 2)) in
  let d = (Int32.add (Int32.add d (Int32.logor (Int32.shift_left e 5) (Int32.shift_right_logical e 27))) (Int32.add (Int32.logxor c (Int32.logand a (Int32.logxor b c))) (Int32.add 0x5A827999l w6))) in
  let a = (Int32.logor (Int32.shift_left a 30) (Int32.shift_right_logical a 2)) in
  let c = (Int32.add (Int32.add c (Int32.logor (Int32.shift_left d 5) (Int32.shift_right_logical d 27))) (Int32.add (Int32.logxor b (Int32.logand e (Int32.logxor a b))) (Int32.add 0x5A827999l w7))) in
  let e = (Int32.logor (Int32.shift_left e 30) (Int32.shift_right_logical e 2)) in
  let b = (Int32.add (Int32.add b (Int32.logor (Int32.shift_left c 5) (Int32.shift_right_logical c 27))) (Int32.add (Int32.logxor a (Int32.logand d (Int32.logxor e a))) (Int32.add 0x5A827999l w8))) in
  let d = (Int32.logor (Int32.shift_left d 30) (Int32.shift_right_logical d 2)) in
  let a = (Int32.add (Int32.add a (Int32.logor (Int32.shift_left b 5) (Int32.shift_right_logical b 27))) (Int32.add (Int32.logxor e (Int32.logand c (Int32.logxor d e))) (Int32.add 0x5A827999l w9))) in
  let c = (Int32.logor (Int32.shift_left c 30) (Int32.shift_right_logical c 2)) in
  let e = (Int32.add (Int32.add e (Int32.logor (Int32.shift_left a 5) (Int32.shift_right_logical a 27))) (Int32.add (Int32.logxor d (Int32.logand b (Int32.logxor c d))) (Int32.add 0x5A827999l w10))) in
  let b = (Int32.logor (Int32.shift_left b 30) (Int32.shift_right_logical b 2)) in
  let d = (Int32.add (Int32.add d (Int32.logor (Int32.shift_left e 5) (Int32.shift_right_logical e 27))) (Int32.add (Int32.logxor c (Int32.logand a (Int32.logxor b c))) (Int32.add 0x5A827999l w11))) in
  let a = (Int32.logor (Int32.shift_left a 30) (Int32.shift_right_logical a 2)) in
  let c = (Int32.add (Int32.add c (Int32.logor (Int32.shift_left d 5) (Int32.shift_right_logical d 27))) (Int32.add (Int32.logxor b (Int32.logand e (Int32.logxor a b))) (Int32.add 0x5A827999l w12))) in
  let e = (Int32.logor (Int32.shift_left e 30) (Int32.shift_right_logical e 2)) in
  let b = (Int32.add (Int32.add b (Int32.logor (Int32.shift_left c 5) (Int32.shift_right_logical c 27))) (Int32.add (Int32.logxor a (Int32.logand d (Int32.logxor e a))) (Int32.add 0x5A827999l w13))) in
  let d = (Int32.logor (Int32.shift_left d 30) (Int32.shift_right_logical d 2)) in
  let a = (Int32.add (Int32.add a (Int32.logor (Int32.shift_left b 5) (Int32.shift_right_logical b 27))) (Int32.add (Int32.logxor e (Int32.logand c (Int32.logxor d e))) (Int32.add 0x5A827999l w14))) in
  let c = (Int32.logor (Int32.shift_left c 30) (Int32.shift_right_logical c 2)) in
  let e = (Int32.add (Int32.add e (Int32.logor (Int32.shift_left a 5) (Int32.shift_right_logical a 27))) (Int32.add (Int32.logxor d (Int32.logand b (Int32.logxor c d))) (Int32.add 0x5A827999l w15))) in
  let b = (Int32.logor (Int32.shift_left b 30) (Int32.shift_right_logical b 2)) in
  let w0 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w13 w8) (Int32.logxor w2 w0)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w13 w8) (Int32.logxor w2 w0)) 31)) in
  let d = (Int32.add (Int32.add d (Int32.logor (Int32.shift_left e 5) (Int32.shift_right_logical e 27))) (Int32.add (Int32.logxor c (Int32.logand a (Int32.logxor b c))) (Int32.add 0x5A827999l w0))) in
  let a = (Int32.logor (Int32.shift_left a 30) (Int32.shift_right_logical a 2)) in
  let w1 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w14 w9) (Int32.logxor w3 w1)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w14 w9) (Int32.logxor w3 w1)) 31)) in
  let c = (Int32.add (Int32.add c (Int32.logor (Int32.shift_left d 5) (Int32.shift_right_logical d 27))) (Int32.add (Int32.logxor b (Int32.logand e (Int32.logxor a b))) (Int32.add 0x5A827999l w1))) in
  let e = (Int32.logor (Int32.shift_left e 30) (Int32.shift_right_logical e 2)) in
  let w2 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w15 w10) (Int32.logxor w4 w2)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w15 w10) (Int32.logxor w4 w2)) 31)) in
  let b = (Int32.add (Int32.add b (Int32.logor (Int32.shift_left c 5) (Int32.shift_right_logical c 27))) (Int32.add (Int32.logxor a (Int32.logand d (Int32.logxor e a))) (Int32.add 0x5A827999l w2))) in
  let d = (Int32.logor (Int32.shift_left d 30) (Int32.shift_right_logical d 2)) in
  let w3 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w0 w11) (Int32.logxor w5 w3)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w0 w11) (Int32.logxor w5 w3)) 31)) in
  let a = (Int32.add (Int32.add a (Int32.logor (Int32.shift_left b 5) (Int32.shift_right_logical b 27))) (Int32.add (Int32.logxor e (Int32.logand c (Int32.logxor d e))) (Int32.add 0x5A827999l w3))) in
  let c = (Int32.logor (Int32.shift_left c 30) (Int32.shift_right_logical c 2)) in
  let w4 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w1 w12) (Int32.logxor w6 w4)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w1 w12) (Int32.logxor w6 w4)) 31)) in
  let e = (Int32.add (Int32.add e (Int32.logor (Int32.shift_left a 5) (Int32.shift_right_logical a 27))) (Int32.add (Int32.logxor (Int32.logxor b c) d) (Int32.add 0x6ED9EBA1l w4))) in
  let b = (Int32.logor (Int32.shift_left b 30) (Int32.shift_right_logical b 2)) in
  let w5 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w2 w13) (Int32.logxor w7 w5)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w2 w13) (Int32.logxor w7 w5)) 31)) in
  let d = (Int32.add (Int32.add d (Int32.logor (Int32.shift_left e 5) (Int32.shift_right_logical e 27))) (Int32.add (Int32.logxor (Int32.logxor a b) c) (Int32.add 0x6ED9EBA1l w5))) in
  let a = (Int32.logor (Int32.shift_left a 30) (Int32.shift_right_logical a 2)) in
  let w6 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w3 w14) (Int32.logxor w8 w6)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w3 w14) (Int32.logxor w8 w6)) 31)) in
  let c = (Int32.add (Int32.add c (Int32.logor (Int32.shift_left d 5) (Int32.shift_right_logical d 27))) (Int32.add (Int32.logxor (Int32.logxor e a) b) (Int32.add 0x6ED9EBA1l w6))) in
  let e = (Int32.logor (Int32.shift_left e 30) (Int32.shift_right_logical e 2)) in
  let w7 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w4 w15) (Int32.logxor w9 w7)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w4 w15) (Int32.logxor w9 w7)) 31)) in
  let b = (Int32.add (Int32.add b (Int32.logor (Int32.shift_left c 5) (Int32.shift_right_logical c 27))) (Int32.add (Int32.logxor (Int32.logxor d e) a) (Int32.add 0x6ED9EBA1l w7))) in
  let d = (Int32.logor (Int32.shift_left d 30) (Int32.shift_right_logical d 2)) in
  let w8 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w5 w0) (Int32.logxor w10 w8)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w5 w0) (Int32.logxor w10 w8)) 31)) in
  let a = (Int32.add (Int32.add a (Int32.logor (Int32.shift_left b 5) (Int32.shift_right_logical b 27))) (Int32.add (Int32.logxor (Int32.logxor c d) e) (Int32.add 0x6ED9EBA1l w8))) in
  let c = (Int32.logor (Int32.shift_left c 30) (Int32.shift_right_logical c 2)) in
  let w9 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w6 w1) (Int32.logxor w11 w9)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w6 w1) (Int32.logxor w11 w9)) 31)) in
  let e = (Int32.add (Int32.add e (Int32.logor (Int32.shift_left a 5) (Int32.shift_right_logical a 27))) (Int32.add (Int32.logxor (Int32.logxor b c) d) (Int32.add 0x6ED9EBA1l w9))) in
  let b = (Int32.logor (Int32.shift_left b 30) (Int32.shift_right_logical b 2)) in
  let w10 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w7 w2) (Int32.logxor w12 w10)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w7 w2) (Int32.logxor w12 w10)) 31)) in
  let d = (Int32.add (Int32.add d (Int32.logor (Int32.shift_left e 5) (Int32.shift_right_logical e 27))) (Int32.add (Int32.logxor (Int32.logxor a b) c) (Int32.add 0x6ED9EBA1l w10))) in
  let a = (Int32.logor (Int32.shift_left a 30) (Int32.shift_right_logical a 2)) in
  let w11 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w8 w3) (Int32.logxor w13 w11)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w8 w3) (Int32.logxor w13 w11)) 31)) in
  let c = (Int32.add (Int32.add c (Int32.logor (Int32.shift_left d 5) (Int32.shift_right_logical d 27))) (Int32.add (Int32.logxor (Int32.logxor e a) b) (Int32.add 0x6ED9EBA1l w11))) in
  let e = (Int32.logor (Int32.shift_left e 30) (Int32.shift_right_logical e 2)) in
  let w12 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w9 w4) (Int32.logxor w14 w12)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w9 w4) (Int32.logxor w14 w12)) 31)) in
  let b = (Int32.add (Int32.add b (Int32.logor (Int32.shift_left c 5) (Int32.shift_right_logical c 27))) (Int32.add (Int32.logxor (Int32.logxor d e) a) (Int32.add 0x6ED9EBA1l w12))) in
  let d = (Int32.logor (Int32.shift_left d 30) (Int32.shift_right_logical d 2)) in
  let w13 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w10 w5) (Int32.logxor w15 w13)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w10 w5) (Int32.logxor w15 w13)) 31)) in
  let a = (Int32.add (Int32.add a (Int32.logor (Int32.shift_left b 5) (Int32.shift_right_logical b 27))) (Int32.add (Int32.logxor (Int32.logxor c d) e) (Int32.add 0x6ED9EBA1l w13))) in
  let c = (Int32.logor (Int32.shift_left c 30) (Int32.shift_right_logical c 2)) in
  let w14 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w11 w6) (Int32.logxor w0 w14)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w11 w6) (Int32.logxor w0 w14)) 31)) in
  let e = (Int32.add (Int32.add e (Int32.logor (Int32.shift_left a 5) (Int32.shift_right_logical a 27))) (Int32.add (Int32.logxor (Int32.logxor b c) d) (Int32.add 0x6ED9EBA1l w14))) in
  let b = (Int32.logor (Int32.shift_left b 30) (Int32.shift_right_logical b 2)) in
  let w15 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w12 w7) (Int32.logxor w1 w15)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w12 w7) (Int32.logxor w1 w15)) 31)) in
  let d = (Int32.add (Int32.add d (Int32.logor (Int32.shift_left e 5) (Int32.shift_right_logical e 27))) (Int32.add (Int32.logxor (Int32.logxor a b) c) (Int32.add 0x6ED9EBA1l w15))) in
  let a = (Int32.logor (Int32.shift_left a 30) (Int32.shift_right_logical a 2)) in
  let w0 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w13 w8) (Int32.logxor w2 w0)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w13 w8) (Int32.logxor w2 w0)) 31)) in
  let c = (Int32.add (Int32.add c (Int32.logor (Int32.shift_left d 5) (Int32.shift_right_logical d 27))) (Int32.add (Int32.logxor (Int32.logxor e a) b) (Int32.add 0x6ED9EBA1l w0))) in
  let e = (Int32.logor (Int32.shift_left e 30) (Int32.shift_right_logical e 2)) in
  let w1 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w14 w9) (Int32.logxor w3 w1)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w14 w9) (Int32.logxor w3 w1)) 31)) in
  let b = (Int32.add (Int32.add b (Int32.logor (Int32.shift_left c 5) (Int32.shift_right_logical c 27))) (Int32.add (Int32.logxor (Int32.logxor d e) a) (Int32.add 0x6ED9EBA1l w1))) in
  let d = (Int32.logor (Int32.shift_left d 30) (Int32.shift_right_logical d 2)) in
  let w2 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w15 w10) (Int32.logxor w4 w2)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w15 w10) (Int32.logxor w4 w2)) 31)) in
  let a = (Int32.add (Int32.add a (Int32.logor (Int32.shift_left b 5) (Int32.shift_right_logical b 27))) (Int32.add (Int32.logxor (Int32.logxor c d) e) (Int32.add 0x6ED9EBA1l w2))) in
  let c = (Int32.logor (Int32.shift_left c 30) (Int32.shift_right_logical c 2)) in
  let w3 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w0 w11) (Int32.logxor w5 w3)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w0 w11) (Int32.logxor w5 w3)) 31)) in
  let e = (Int32.add (Int32.add e (Int32.logor (Int32.shift_left a 5) (Int32.shift_right_logical a 27))) (Int32.add (Int32.logxor (Int32.logxor b c) d) (Int32.add 0x6ED9EBA1l w3))) in
  let b = (Int32.logor (Int32.shift_left b 30) (Int32.shift_right_logical b 2)) in
  let w4 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w1 w12) (Int32.logxor w6 w4)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w1 w12) (Int32.logxor w6 w4)) 31)) in
  let d = (Int32.add (Int32.add d (Int32.logor (Int32.shift_left e 5) (Int32.shift_right_logical e 27))) (Int32.add (Int32.logxor (Int32.logxor a b) c) (Int32.add 0x6ED9EBA1l w4))) in
  let a = (Int32.logor (Int32.shift_left a 30) (Int32.shift_right_logical a 2)) in
  let w5 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w2 w13) (Int32.logxor w7 w5)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w2 w13) (Int32.logxor w7 w5)) 31)) in
  let c = (Int32.add (Int32.add c (Int32.logor (Int32.shift_left d 5) (Int32.shift_right_logical d 27))) (Int32.add (Int32.logxor (Int32.logxor e a) b) (Int32.add 0x6ED9EBA1l w5))) in
  let e = (Int32.logor (Int32.shift_left e 30) (Int32.shift_right_logical e 2)) in
  let w6 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w3 w14) (Int32.logxor w8 w6)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w3 w14) (Int32.logxor w8 w6)) 31)) in
  let b = (Int32.add (Int32.add b (Int32.logor (Int32.shift_left c 5) (Int32.shift_right_logical c 27))) (Int32.add (Int32.logxor (Int32.logxor d e) a) (Int32.add 0x6ED9EBA1l w6))) in
  let d = (Int32.logor (Int32.shift_left d 30) (Int32.shift_right_logical d 2)) in
  let w7 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w4 w15) (Int32.logxor w9 w7)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w4 w15) (Int32.logxor w9 w7)) 31)) in
  let a = (Int32.add (Int32.add a (Int32.logor (Int32.shift_left b 5) (Int32.shift_right_logical b 27))) (Int32.add (Int32.logxor (Int32.logxor c d) e) (Int32.add 0x6ED9EBA1l w7))) in
  let c = (Int32.logor (Int32.shift_left c 30) (Int32.shift_right_logical c 2)) in
  let w8 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w5 w0) (Int32.logxor w10 w8)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w5 w0) (Int32.logxor w10 w8)) 31)) in
  let e = (Int32.add (Int32.add e (Int32.logor (Int32.shift_left a 5) (Int32.shift_right_logical a 27))) (Int32.add (Int32.logxor d (Int32.logand (Int32.logxor b d) (Int32.logxor c d))) (Int32.add 0x8F1BBCDCl w8))) in
  let b = (Int32.logor (Int32.shift_left b 30) (Int32.shift_right_logical b 2)) in
  let w9 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w6 w1) (Int32.logxor w11 w9)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w6 w1) (Int32.logxor w11 w9)) 31)) in
  let d = (Int32.add (Int32.add d (Int32.logor (Int32.shift_left e 5) (Int32.shift_right_logical e 27))) (Int32.add (Int32.logxor c (Int32.logand (Int32.logxor a c) (Int32.logxor b c))) (Int32.add 0x8F1BBCDCl w9))) in
  let a = (Int32.logor (Int32.shift_left a 30) (Int32.shift_right_logical a 2)) in
  let w10 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w7 w2) (Int32.logxor w12 w10)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w7 w2) (Int32.logxor w12 w10)) 31)) in
  let c = (Int32.add (Int32.add c (Int32.logor (Int32.shift_left d 5) (Int32.shift_right_logical d 27))) (Int32.add (Int32.logxor b (Int32.logand (Int32.logxor e b) (Int32.logxor a b))) (Int32.add 0x8F1BBCDCl w10))) in
  let e = (Int32.logor (Int32.shift_left e 30) (Int32.shift_right_logical e 2)) in
  let w11 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w8 w3) (Int32.logxor w13 w11)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w8 w3) (Int32.logxor w13 w11)) 31)) in
  let b = (Int32.add (Int32.add b (Int32.logor (Int32.shift_left c 5) (Int32.shift_right_logical c 27))) (Int32.add (Int32.logxor a (Int32.logand (Int32.logxor d a) (Int32.logxor e a))) (Int32.add 0x8F1BBCDCl w11))) in
  let d = (Int32.logor (Int32.shift_left d 30) (Int32.shift_right_logical d 2)) in
  let w12 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w9 w4) (Int32.logxor w14 w12)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w9 w4) (Int32.logxor w14 w12)) 31)) in
  let a = (Int32.add (Int32.add a (Int32.logor (Int32.shift_left b 5) (Int32.shift_right_logical b 27))) (Int32.add (Int32.logxor e (Int32.logand (Int32.logxor c e) (Int32.logxor d e))) (Int32.add 0x8F1BBCDCl w12))) in
  let c = (Int32.logor (Int32.shift_left c 30) (Int32.shift_right_logical c 2)) in
  let w13 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w10 w5) (Int32.logxor w15 w13)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w10 w5) (Int32.logxor w15 w13)) 31)) in
  let e = (Int32.add (Int32.add e (Int32.logor (Int32.shift_left a 5) (Int32.shift_right_logical a 27))) (Int32.add (Int32.logxor d (Int32.logand (Int32.logxor b d) (Int32.logxor c d))) (Int32.add 0x8F1BBCDCl w13))) in
  let b = (Int32.logor (Int32.shift_left b 30) (Int32.shift_right_logical b 2)) in
  let w14 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w11 w6) (Int32.logxor w0 w14)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w11 w6) (Int32.logxor w0 w14)) 31)) in
  let d = (Int32.add (Int32.add d (Int32.logor (Int32.shift_left e 5) (Int32.shift_right_logical e 27))) (Int32.add (Int32.logxor c (Int32.logand (Int32.logxor a c) (Int32.logxor b c))) (Int32.add 0x8F1BBCDCl w14))) in
  let a = (Int32.logor (Int32.shift_left a 30) (Int32.shift_right_logical a 2)) in
  let w15 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w12 w7) (Int32.logxor w1 w15)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w12 w7) (Int32.logxor w1 w15)) 31)) in
  let c = (Int32.add (Int32.add c (Int32.logor (Int32.shift_left d 5) (Int32.shift_right_logical d 27))) (Int32.add (Int32.logxor b (Int32.logand (Int32.logxor e b) (Int32.logxor a b))) (Int32.add 0x8F1BBCDCl w15))) in
  let e = (Int32.logor (Int32.shift_left e 30) (Int32.shift_right_logical e 2)) in
  let w0 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w13 w8) (Int32.logxor w2 w0)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w13 w8) (Int32.logxor w2 w0)) 31)) in
  let b = (Int32.add (Int32.add b (Int32.logor (Int32.shift_left c 5) (Int32.shift_right_logical c 27))) (Int32.add (Int32.logxor a (Int32.logand (Int32.logxor d a) (Int32.logxor e a))) (Int32.add 0x8F1BBCDCl w0))) in
  let d = (Int32.logor (Int32.shift_left d 30) (Int32.shift_right_logical d 2)) in
  let w1 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w14 w9) (Int32.logxor w3 w1)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w14 w9) (Int32.logxor w3 w1)) 31)) in
  let a = (Int32.add (Int32.add a (Int32.logor (Int32.shift_left b 5) (Int32.shift_right_logical b 27))) (Int32.add (Int32.logxor e (Int32.logand (Int32.logxor c e) (Int32.logxor d e))) (Int32.add 0x8F1BBCDCl w1))) in
  let c = (Int32.logor (Int32.shift_left c 30) (Int32.shift_right_logical c 2)) in
  let w2 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w15 w10) (Int32.logxor w4 w2)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w15 w10) (Int32.logxor w4 w2)) 31)) in
  let e = (Int32.add (Int32.add e (Int32.logor (Int32.shift_left a 5) (Int32.shift_right_logical a 27))) (Int32.add (Int32.logxor d (Int32.logand (Int32.logxor b d) (Int32.logxor c d))) (Int32.add 0x8F1BBCDCl w2))) in
  let b = (Int32.logor (Int32.shift_left b 30) (Int32.shift_right_logical b 2)) in
  let w3 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w0 w11) (Int32.logxor w5 w3)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w0 w11) (Int32.logxor w5 w3)) 31)) in
  let d = (Int32.add (Int32.add d (Int32.logor (Int32.shift_left e 5) (Int32.shift_right_logical e 27))) (Int32.add (Int32.logxor c (Int32.logand (Int32.logxor a c) (Int32.logxor b c))) (Int32.add 0x8F1BBCDCl w3))) in
  let a = (Int32.logor (Int32.shift_left a 30) (Int32.shift_right_logical a 2)) in
  let w4 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w1 w12) (Int32.logxor w6 w4)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w1 w12) (Int32.logxor w6 w4)) 31)) in
  let c = (Int32.add (Int32.add c (Int32.logor (Int32.shift_left d 5) (Int32.shift_right_logical d 27))) (Int32.add (Int32.logxor b (Int32.logand (Int32.logxor e b) (Int32.logxor a b))) (Int32.add 0x8F1BBCDCl w4))) in
  let e = (Int32.logor (Int32.shift_left e 30) (Int32.shift_right_logical e 2)) in
  let w5 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w2 w13) (Int32.logxor w7 w5)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w2 w13) (Int32.logxor w7 w5)) 31)) in
  let b = (Int32.add (Int32.add b (Int32.logor (Int32.shift_left c 5) (Int32.shift_right_logical c 27))) (Int32.add (Int32.logxor a (Int32.logand (Int32.logxor d a) (Int32.logxor e a))) (Int32.add 0x8F1BBCDCl w5))) in
  let d = (Int32.logor (Int32.shift_left d 30) (Int32.shift_right_logical d 2)) in
  let w6 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w3 w14) (Int32.logxor w8 w6)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w3 w14) (Int32.logxor w8 w6)) 31)) in
  let a = (Int32.add (Int32.add a (Int32.logor (Int32.shift_left b 5) (Int32.shift_right_logical b 27))) (Int32.add (Int32.logxor e (Int32.logand (Int32.logxor c e) (Int32.logxor d e))) (Int32.add 0x8F1BBCDCl w6))) in
  let c = (Int32.logor (Int32.shift_left c 30) (Int32.shift_right_logical c 2)) in
  let w7 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w4 w15) (Int32.logxor w9 w7)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w4 w15) (Int32.logxor w9 w7)) 31)) in
  let e = (Int32.add (Int32.add e (Int32.logor (Int32.shift_left a 5) (Int32.shift_right_logical a 27))) (Int32.add (Int32.logxor d (Int32.logand (Int32.logxor b d) (Int32.logxor c d))) (Int32.add 0x8F1BBCDCl w7))) in
  let b = (Int32.logor (Int32.shift_left b 30) (Int32.shift_right_logical b 2)) in
  let w8 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w5 w0) (Int32.logxor w10 w8)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w5 w0) (Int32.logxor w10 w8)) 31)) in
  let d = (Int32.add (Int32.add d (Int32.logor (Int32.shift_left e 5) (Int32.shift_right_logical e 27))) (Int32.add (Int32.logxor c (Int32.logand (Int32.logxor a c) (Int32.logxor b c))) (Int32.add 0x8F1BBCDCl w8))) in
  let a = (Int32.logor (Int32.shift_left a 30) (Int32.shift_right_logical a 2)) in
  let w9 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w6 w1) (Int32.logxor w11 w9)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w6 w1) (Int32.logxor w11 w9)) 31)) in
  let c = (Int32.add (Int32.add c (Int32.logor (Int32.shift_left d 5) (Int32.shift_right_logical d 27))) (Int32.add (Int32.logxor b (Int32.logand (Int32.logxor e b) (Int32.logxor a b))) (Int32.add 0x8F1BBCDCl w9))) in
  let e = (Int32.logor (Int32.shift_left e 30) (Int32.shift_right_logical e 2)) in
  let w10 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w7 w2) (Int32.logxor w12 w10)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w7 w2) (Int32.logxor w12 w10)) 31)) in
  let b = (Int32.add (Int32.add b (Int32.logor (Int32.shift_left c 5) (Int32.shift_right_logical c 27))) (Int32.add (Int32.logxor a (Int32.logand (Int32.logxor d a) (Int32.logxor e a))) (Int32.add 0x8F1BBCDCl w10))) in
  let d = (Int32.logor (Int32.shift_left d 30) (Int32.shift_right_logical d 2)) in
  let w11 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w8 w3) (Int32.logxor w13 w11)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w8 w3) (Int32.logxor w13 w11)) 31)) in
  let a = (Int32.add (Int32.add a (Int32.logor (Int32.shift_left b 5) (Int32.shift_right_logical b 27))) (Int32.add (Int32.logxor e (Int32.logand (Int32.logxor c e) (Int32.logxor d e))) (Int32.add 0x8F1BBCDCl w11))) in
  let c = (Int32.logor (Int32.shift_left c 30) (Int32.shift_right_logical c 2)) in
  let w12 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w9 w4) (Int32.logxor w14 w12)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w9 w4) (Int32.logxor w14 w12)) 31)) in
  let e = (Int32.add (Int32.add e (Int32.logor (Int32.shift_left a 5) (Int32.shift_right_logical a 27))) (Int32.add (Int32.logxor (Int32.logxor b c) d) (Int32.add 0xCA62C1D6l w12))) in
  let b = (Int32.logor (Int32.shift_left b 30) (Int32.shift_right_logical b 2)) in
  let w13 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w10 w5) (Int32.logxor w15 w13)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w10 w5) (Int32.logxor w15 w13)) 31)) in
  let d = (Int32.add (Int32.add d (Int32.logor (Int32.shift_left e 5) (Int32.shift_right_logical e 27))) (Int32.add (Int32.logxor (Int32.logxor a b) c) (Int32.add 0xCA62C1D6l w13))) in
  let a = (Int32.logor (Int32.shift_left a 30) (Int32.shift_right_logical a 2)) in
  let w14 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w11 w6) (Int32.logxor w0 w14)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w11 w6) (Int32.logxor w0 w14)) 31)) in
  let c = (Int32.add (Int32.add c (Int32.logor (Int32.shift_left d 5) (Int32.shift_right_logical d 27))) (Int32.add (Int32.logxor (Int32.logxor e a) b) (Int32.add 0xCA62C1D6l w14))) in
  let e = (Int32.logor (Int32.shift_left e 30) (Int32.shift_right_logical e 2)) in
  let w15 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w12 w7) (Int32.logxor w1 w15)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w12 w7) (Int32.logxor w1 w15)) 31)) in
  let b = (Int32.add (Int32.add b (Int32.logor (Int32.shift_left c 5) (Int32.shift_right_logical c 27))) (Int32.add (Int32.logxor (Int32.logxor d e) a) (Int32.add 0xCA62C1D6l w15))) in
  let d = (Int32.logor (Int32.shift_left d 30) (Int32.shift_right_logical d 2)) in
  let w0 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w13 w8) (Int32.logxor w2 w0)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w13 w8) (Int32.logxor w2 w0)) 31)) in
  let a = (Int32.add (Int32.add a (Int32.logor (Int32.shift_left b 5) (Int32.shift_right_logical b 27))) (Int32.add (Int32.logxor (Int32.logxor c d) e) (Int32.add 0xCA62C1D6l w0))) in
  let c = (Int32.logor (Int32.shift_left c 30) (Int32.shift_right_logical c 2)) in
  let w1 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w14 w9) (Int32.logxor w3 w1)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w14 w9) (Int32.logxor w3 w1)) 31)) in
  let e = (Int32.add (Int32.add e (Int32.logor (Int32.shift_left a 5) (Int32.shift_right_logical a 27))) (Int32.add (Int32.logxor (Int32.logxor b c) d) (Int32.add 0xCA62C1D6l w1))) in
  let b = (Int32.logor (Int32.shift_left b 30) (Int32.shift_right_logical b 2)) in
  let w2 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w15 w10) (Int32.logxor w4 w2)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w15 w10) (Int32.logxor w4 w2)) 31)) in
  let d = (Int32.add (Int32.add d (Int32.logor (Int32.shift_left e 5) (Int32.shift_right_logical e 27))) (Int32.add (Int32.logxor (Int32.logxor a b) c) (Int32.add 0xCA62C1D6l w2))) in
  let a = (Int32.logor (Int32.shift_left a 30) (Int32.shift_right_logical a 2)) in
  let w3 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w0 w11) (Int32.logxor w5 w3)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w0 w11) (Int32.logxor w5 w3)) 31)) in
  let c = (Int32.add (Int32.add c (Int32.logor (Int32.shift_left d 5) (Int32.shift_right_logical d 27))) (Int32.add (Int32.logxor (Int32.logxor e a) b) (Int32.add 0xCA62C1D6l w3))) in
  let e = (Int32.logor (Int32.shift_left e 30) (Int32.shift_right_logical e 2)) in
  let w4 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w1 w12) (Int32.logxor w6 w4)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w1 w12) (Int32.logxor w6 w4)) 31)) in
  let b = (Int32.add (Int32.add b (Int32.logor (Int32.shift_left c 5) (Int32.shift_right_logical c 27))) (Int32.add (Int32.logxor (Int32.logxor d e) a) (Int32.add 0xCA62C1D6l w4))) in
  let d = (Int32.logor (Int32.shift_left d 30) (Int32.shift_right_logical d 2)) in
  let w5 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w2 w13) (Int32.logxor w7 w5)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w2 w13) (Int32.logxor w7 w5)) 31)) in
  let a = (Int32.add (Int32.add a (Int32.logor (Int32.shift_left b 5) (Int32.shift_right_logical b 27))) (Int32.add (Int32.logxor (Int32.logxor c d) e) (Int32.add 0xCA62C1D6l w5))) in
  let c = (Int32.logor (Int32.shift_left c 30) (Int32.shift_right_logical c 2)) in
  let w6 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w3 w14) (Int32.logxor w8 w6)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w3 w14) (Int32.logxor w8 w6)) 31)) in
  let e = (Int32.add (Int32.add e (Int32.logor (Int32.shift_left a 5) (Int32.shift_right_logical a 27))) (Int32.add (Int32.logxor (Int32.logxor b c) d) (Int32.add 0xCA62C1D6l w6))) in
  let b = (Int32.logor (Int32.shift_left b 30) (Int32.shift_right_logical b 2)) in
  let w7 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w4 w15) (Int32.logxor w9 w7)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w4 w15) (Int32.logxor w9 w7)) 31)) in
  let d = (Int32.add (Int32.add d (Int32.logor (Int32.shift_left e 5) (Int32.shift_right_logical e 27))) (Int32.add (Int32.logxor (Int32.logxor a b) c) (Int32.add 0xCA62C1D6l w7))) in
  let a = (Int32.logor (Int32.shift_left a 30) (Int32.shift_right_logical a 2)) in
  let w8 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w5 w0) (Int32.logxor w10 w8)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w5 w0) (Int32.logxor w10 w8)) 31)) in
  let c = (Int32.add (Int32.add c (Int32.logor (Int32.shift_left d 5) (Int32.shift_right_logical d 27))) (Int32.add (Int32.logxor (Int32.logxor e a) b) (Int32.add 0xCA62C1D6l w8))) in
  let e = (Int32.logor (Int32.shift_left e 30) (Int32.shift_right_logical e 2)) in
  let w9 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w6 w1) (Int32.logxor w11 w9)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w6 w1) (Int32.logxor w11 w9)) 31)) in
  let b = (Int32.add (Int32.add b (Int32.logor (Int32.shift_left c 5) (Int32.shift_right_logical c 27))) (Int32.add (Int32.logxor (Int32.logxor d e) a) (Int32.add 0xCA62C1D6l w9))) in
  let d = (Int32.logor (Int32.shift_left d 30) (Int32.shift_right_logical d 2)) in
  let w10 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w7 w2) (Int32.logxor w12 w10)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w7 w2) (Int32.logxor w12 w10)) 31)) in
  let a = (Int32.add (Int32.add a (Int32.logor (Int32.shift_left b 5) (Int32.shift_right_logical b 27))) (Int32.add (Int32.logxor (Int32.logxor c d) e) (Int32.add 0xCA62C1D6l w10))) in
  let c = (Int32.logor (Int32.shift_left c 30) (Int32.shift_right_logical c 2)) in
  let w11 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w8 w3) (Int32.logxor w13 w11)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w8 w3) (Int32.logxor w13 w11)) 31)) in
  let e = (Int32.add (Int32.add e (Int32.logor (Int32.shift_left a 5) (Int32.shift_right_logical a 27))) (Int32.add (Int32.logxor (Int32.logxor b c) d) (Int32.add 0xCA62C1D6l w11))) in
  let b = (Int32.logor (Int32.shift_left b 30) (Int32.shift_right_logical b 2)) in
  let w12 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w9 w4) (Int32.logxor w14 w12)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w9 w4) (Int32.logxor w14 w12)) 31)) in
  let d = (Int32.add (Int32.add d (Int32.logor (Int32.shift_left e 5) (Int32.shift_right_logical e 27))) (Int32.add (Int32.logxor (Int32.logxor a b) c) (Int32.add 0xCA62C1D6l w12))) in
  let a = (Int32.logor (Int32.shift_left a 30) (Int32.shift_right_logical a 2)) in
  let w13 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w10 w5) (Int32.logxor w15 w13)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w10 w5) (Int32.logxor w15 w13)) 31)) in
  let c = (Int32.add (Int32.add c (Int32.logor (Int32.shift_left d 5) (Int32.shift_right_logical d 27))) (Int32.add (Int32.logxor (Int32.logxor e a) b) (Int32.add 0xCA62C1D6l w13))) in
  let e = (Int32.logor (Int32.shift_left e 30) (Int32.shift_right_logical e 2)) in
  let w14 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w11 w6) (Int32.logxor w0 w14)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w11 w6) (Int32.logxor w0 w14)) 31)) in
  let b = (Int32.add (Int32.add b (Int32.logor (Int32.shift_left c 5) (Int32.shift_right_logical c 27))) (Int32.add (Int32.logxor (Int32.logxor d e) a) (Int32.add 0xCA62C1D6l w14))) in
  let d = (Int32.logor (Int32.shift_left d 30) (Int32.shift_right_logical d 2)) in
  let w15 = (Int32.logor (Int32.shift_left (Int32.logxor (Int32.logxor w12 w7) (Int32.logxor w1 w15)) 1) (Int32.shift_right_logical (Int32.logxor (Int32.logxor w12 w7) (Int32.logxor w1 w15)) 31)) in
  let a = (Int32.add (Int32.add a (Int32.logor (Int32.shift_left b 5) (Int32.shift_right_logical b 27))) (Int32.add (Int32.logxor (Int32.logxor c d) e) (Int32.add 0xCA62C1D6l w15))) in
  let c = (Int32.logor (Int32.shift_left c 30) (Int32.shift_right_logical c 2)) in
  ctx.h0 <- (ctx.h0 + Int32.to_int a) land 0xFFFFFFFF;
  ctx.h1 <- (ctx.h1 + Int32.to_int b) land 0xFFFFFFFF;
  ctx.h2 <- (ctx.h2 + Int32.to_int c) land 0xFFFFFFFF;
  ctx.h3 <- (ctx.h3 + Int32.to_int d) land 0xFFFFFFFF;
  ctx.h4 <- (ctx.h4 + Int32.to_int e) land 0xFFFFFFFF

let feed_sub ctx s ~pos ~len =
  if ctx.finalized then invalid_arg "Sha1.feed_sub: context already finalized";
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Sha1.feed_sub: out of bounds";
  ctx.total <- ctx.total + len;
  let p = ref pos in
  let stop = pos + len in
  if ctx.buf_len > 0 then begin
    let take = min (block_size - ctx.buf_len) len in
    Bytes.blit_string s !p ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    p := !p + take;
    if ctx.buf_len = block_size then begin
      compress ctx (Bytes.unsafe_to_string ctx.buf) 0;
      ctx.buf_len <- 0
    end
  end;
  while stop - !p >= block_size do
    compress ctx s !p;
    p := !p + block_size
  done;
  if !p < stop then begin
    Bytes.blit_string s !p ctx.buf 0 (stop - !p);
    ctx.buf_len <- stop - !p
  end

let feed ctx s =
  if ctx.finalized then invalid_arg "Sha1.feed: context already finalized";
  feed_sub ctx s ~pos:0 ~len:(String.length s)

(* Pad in place: ctx.buf always has room because buf_len < 64. *)
let finalize ctx =
  if ctx.finalized then invalid_arg "Sha1.get: context already finalized";
  ctx.finalized <- true;
  let total_bits = ctx.total * 8 in
  let b = ctx.buf in
  let n = ctx.buf_len in
  Bytes.unsafe_set b n '\x80';
  if n + 1 > 56 then begin
    Bytes.fill b (n + 1) (block_size - n - 1) '\000';
    compress ctx (Bytes.unsafe_to_string b) 0;
    Bytes.fill b 0 56 '\000'
  end
  else Bytes.fill b (n + 1) (56 - (n + 1)) '\000';
  for i = 0 to 7 do
    Bytes.unsafe_set b (56 + i) (Char.unsafe_chr ((total_bits lsr (8 * (7 - i))) land 0xff))
  done;
  compress ctx (Bytes.unsafe_to_string b) 0;
  ctx.buf_len <- 0

let word_be out off v =
  Bytes.unsafe_set out off (Char.unsafe_chr ((v lsr 24) land 0xff));
  Bytes.unsafe_set out (off + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set out (off + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set out (off + 3) (Char.unsafe_chr (v land 0xff))

let get ctx =
  finalize ctx;
  let out = Bytes.create digest_size in
  word_be out 0 ctx.h0;
  word_be out 4 ctx.h1;
  word_be out 8 ctx.h2;
  word_be out 12 ctx.h3;
  word_be out 16 ctx.h4;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  get ctx
