(* SHA-256 (FIPS 180-4) with an unsafe, fully-unrolled compression core.

   32-bit words are carried in native ints. Invariants of the unrolled
   core below (machine-generated, do not hand-edit round lines):
     - every *named* value (state a..h, schedule words w0..w63) is
       masked to 32 bits at the point it is bound;
     - intermediate sums/xors may carry garbage above bit 31 (additions
       only ever carry upward, so the low 32 bits stay exact) and are
       masked when stored;
     - only named (clean) values are ever shifted right, so no garbage
       is ever shifted down into the low 32 bits;
     - [String.unsafe_get] is sound because every caller of [compress]
       establishes [off + 64 <= String.length s] before the call.
   The message schedule is a 16-word rolling window, fully unrolled:
   w16..w63 are computed just-in-time between rounds so their live
   ranges stay short. *)

type ctx = {
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  mutable h5 : int;
  mutable h6 : int;
  mutable h7 : int;
  buf : Bytes.t; (* partial block; doubles as the padding block *)
  mutable buf_len : int;
  mutable total : int; (* bytes fed *)
  mutable finalized : bool;
}

let digest_size = 32
let block_size = 64

let init () =
  {
    h0 = 0x6a09e667;
    h1 = 0xbb67ae85;
    h2 = 0x3c6ef372;
    h3 = 0xa54ff53a;
    h4 = 0x510e527f;
    h5 = 0x9b05688c;
    h6 = 0x1f83d9ab;
    h7 = 0x5be0cd19;
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
  let f = Int32.of_int ctx.h5 in
  let g = Int32.of_int ctx.h6 in
  let h = Int32.of_int ctx.h7 in
  let t1 = (Int32.add (Int32.add h (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical e 6) (Int32.shift_left e 26)) (Int32.logor (Int32.shift_right_logical e 11) (Int32.shift_left e 21))) (Int32.logor (Int32.shift_right_logical e 25) (Int32.shift_left e 7)))) (Int32.add (Int32.logxor g (Int32.logand e (Int32.logxor f g))) (Int32.add 0x428a2f98l w0))) in
  let d = Int32.add d t1 in
  let h = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical a 2) (Int32.shift_left a 30)) (Int32.logor (Int32.shift_right_logical a 13) (Int32.shift_left a 19))) (Int32.logor (Int32.shift_right_logical a 22) (Int32.shift_left a 10))) (Int32.logxor c (Int32.logand (Int32.logxor a c) (Int32.logxor b c))))) in
  let t1 = (Int32.add (Int32.add g (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical d 6) (Int32.shift_left d 26)) (Int32.logor (Int32.shift_right_logical d 11) (Int32.shift_left d 21))) (Int32.logor (Int32.shift_right_logical d 25) (Int32.shift_left d 7)))) (Int32.add (Int32.logxor f (Int32.logand d (Int32.logxor e f))) (Int32.add 0x71374491l w1))) in
  let c = Int32.add c t1 in
  let g = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical h 2) (Int32.shift_left h 30)) (Int32.logor (Int32.shift_right_logical h 13) (Int32.shift_left h 19))) (Int32.logor (Int32.shift_right_logical h 22) (Int32.shift_left h 10))) (Int32.logxor b (Int32.logand (Int32.logxor h b) (Int32.logxor a b))))) in
  let t1 = (Int32.add (Int32.add f (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical c 6) (Int32.shift_left c 26)) (Int32.logor (Int32.shift_right_logical c 11) (Int32.shift_left c 21))) (Int32.logor (Int32.shift_right_logical c 25) (Int32.shift_left c 7)))) (Int32.add (Int32.logxor e (Int32.logand c (Int32.logxor d e))) (Int32.add 0xb5c0fbcfl w2))) in
  let b = Int32.add b t1 in
  let f = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical g 2) (Int32.shift_left g 30)) (Int32.logor (Int32.shift_right_logical g 13) (Int32.shift_left g 19))) (Int32.logor (Int32.shift_right_logical g 22) (Int32.shift_left g 10))) (Int32.logxor a (Int32.logand (Int32.logxor g a) (Int32.logxor h a))))) in
  let t1 = (Int32.add (Int32.add e (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical b 6) (Int32.shift_left b 26)) (Int32.logor (Int32.shift_right_logical b 11) (Int32.shift_left b 21))) (Int32.logor (Int32.shift_right_logical b 25) (Int32.shift_left b 7)))) (Int32.add (Int32.logxor d (Int32.logand b (Int32.logxor c d))) (Int32.add 0xe9b5dba5l w3))) in
  let a = Int32.add a t1 in
  let e = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical f 2) (Int32.shift_left f 30)) (Int32.logor (Int32.shift_right_logical f 13) (Int32.shift_left f 19))) (Int32.logor (Int32.shift_right_logical f 22) (Int32.shift_left f 10))) (Int32.logxor h (Int32.logand (Int32.logxor f h) (Int32.logxor g h))))) in
  let t1 = (Int32.add (Int32.add d (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical a 6) (Int32.shift_left a 26)) (Int32.logor (Int32.shift_right_logical a 11) (Int32.shift_left a 21))) (Int32.logor (Int32.shift_right_logical a 25) (Int32.shift_left a 7)))) (Int32.add (Int32.logxor c (Int32.logand a (Int32.logxor b c))) (Int32.add 0x3956c25bl w4))) in
  let h = Int32.add h t1 in
  let d = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical e 2) (Int32.shift_left e 30)) (Int32.logor (Int32.shift_right_logical e 13) (Int32.shift_left e 19))) (Int32.logor (Int32.shift_right_logical e 22) (Int32.shift_left e 10))) (Int32.logxor g (Int32.logand (Int32.logxor e g) (Int32.logxor f g))))) in
  let t1 = (Int32.add (Int32.add c (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical h 6) (Int32.shift_left h 26)) (Int32.logor (Int32.shift_right_logical h 11) (Int32.shift_left h 21))) (Int32.logor (Int32.shift_right_logical h 25) (Int32.shift_left h 7)))) (Int32.add (Int32.logxor b (Int32.logand h (Int32.logxor a b))) (Int32.add 0x59f111f1l w5))) in
  let g = Int32.add g t1 in
  let c = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical d 2) (Int32.shift_left d 30)) (Int32.logor (Int32.shift_right_logical d 13) (Int32.shift_left d 19))) (Int32.logor (Int32.shift_right_logical d 22) (Int32.shift_left d 10))) (Int32.logxor f (Int32.logand (Int32.logxor d f) (Int32.logxor e f))))) in
  let t1 = (Int32.add (Int32.add b (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical g 6) (Int32.shift_left g 26)) (Int32.logor (Int32.shift_right_logical g 11) (Int32.shift_left g 21))) (Int32.logor (Int32.shift_right_logical g 25) (Int32.shift_left g 7)))) (Int32.add (Int32.logxor a (Int32.logand g (Int32.logxor h a))) (Int32.add 0x923f82a4l w6))) in
  let f = Int32.add f t1 in
  let b = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical c 2) (Int32.shift_left c 30)) (Int32.logor (Int32.shift_right_logical c 13) (Int32.shift_left c 19))) (Int32.logor (Int32.shift_right_logical c 22) (Int32.shift_left c 10))) (Int32.logxor e (Int32.logand (Int32.logxor c e) (Int32.logxor d e))))) in
  let t1 = (Int32.add (Int32.add a (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical f 6) (Int32.shift_left f 26)) (Int32.logor (Int32.shift_right_logical f 11) (Int32.shift_left f 21))) (Int32.logor (Int32.shift_right_logical f 25) (Int32.shift_left f 7)))) (Int32.add (Int32.logxor h (Int32.logand f (Int32.logxor g h))) (Int32.add 0xab1c5ed5l w7))) in
  let e = Int32.add e t1 in
  let a = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical b 2) (Int32.shift_left b 30)) (Int32.logor (Int32.shift_right_logical b 13) (Int32.shift_left b 19))) (Int32.logor (Int32.shift_right_logical b 22) (Int32.shift_left b 10))) (Int32.logxor d (Int32.logand (Int32.logxor b d) (Int32.logxor c d))))) in
  let t1 = (Int32.add (Int32.add h (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical e 6) (Int32.shift_left e 26)) (Int32.logor (Int32.shift_right_logical e 11) (Int32.shift_left e 21))) (Int32.logor (Int32.shift_right_logical e 25) (Int32.shift_left e 7)))) (Int32.add (Int32.logxor g (Int32.logand e (Int32.logxor f g))) (Int32.add 0xd807aa98l w8))) in
  let d = Int32.add d t1 in
  let h = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical a 2) (Int32.shift_left a 30)) (Int32.logor (Int32.shift_right_logical a 13) (Int32.shift_left a 19))) (Int32.logor (Int32.shift_right_logical a 22) (Int32.shift_left a 10))) (Int32.logxor c (Int32.logand (Int32.logxor a c) (Int32.logxor b c))))) in
  let t1 = (Int32.add (Int32.add g (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical d 6) (Int32.shift_left d 26)) (Int32.logor (Int32.shift_right_logical d 11) (Int32.shift_left d 21))) (Int32.logor (Int32.shift_right_logical d 25) (Int32.shift_left d 7)))) (Int32.add (Int32.logxor f (Int32.logand d (Int32.logxor e f))) (Int32.add 0x12835b01l w9))) in
  let c = Int32.add c t1 in
  let g = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical h 2) (Int32.shift_left h 30)) (Int32.logor (Int32.shift_right_logical h 13) (Int32.shift_left h 19))) (Int32.logor (Int32.shift_right_logical h 22) (Int32.shift_left h 10))) (Int32.logxor b (Int32.logand (Int32.logxor h b) (Int32.logxor a b))))) in
  let t1 = (Int32.add (Int32.add f (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical c 6) (Int32.shift_left c 26)) (Int32.logor (Int32.shift_right_logical c 11) (Int32.shift_left c 21))) (Int32.logor (Int32.shift_right_logical c 25) (Int32.shift_left c 7)))) (Int32.add (Int32.logxor e (Int32.logand c (Int32.logxor d e))) (Int32.add 0x243185bel w10))) in
  let b = Int32.add b t1 in
  let f = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical g 2) (Int32.shift_left g 30)) (Int32.logor (Int32.shift_right_logical g 13) (Int32.shift_left g 19))) (Int32.logor (Int32.shift_right_logical g 22) (Int32.shift_left g 10))) (Int32.logxor a (Int32.logand (Int32.logxor g a) (Int32.logxor h a))))) in
  let t1 = (Int32.add (Int32.add e (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical b 6) (Int32.shift_left b 26)) (Int32.logor (Int32.shift_right_logical b 11) (Int32.shift_left b 21))) (Int32.logor (Int32.shift_right_logical b 25) (Int32.shift_left b 7)))) (Int32.add (Int32.logxor d (Int32.logand b (Int32.logxor c d))) (Int32.add 0x550c7dc3l w11))) in
  let a = Int32.add a t1 in
  let e = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical f 2) (Int32.shift_left f 30)) (Int32.logor (Int32.shift_right_logical f 13) (Int32.shift_left f 19))) (Int32.logor (Int32.shift_right_logical f 22) (Int32.shift_left f 10))) (Int32.logxor h (Int32.logand (Int32.logxor f h) (Int32.logxor g h))))) in
  let t1 = (Int32.add (Int32.add d (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical a 6) (Int32.shift_left a 26)) (Int32.logor (Int32.shift_right_logical a 11) (Int32.shift_left a 21))) (Int32.logor (Int32.shift_right_logical a 25) (Int32.shift_left a 7)))) (Int32.add (Int32.logxor c (Int32.logand a (Int32.logxor b c))) (Int32.add 0x72be5d74l w12))) in
  let h = Int32.add h t1 in
  let d = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical e 2) (Int32.shift_left e 30)) (Int32.logor (Int32.shift_right_logical e 13) (Int32.shift_left e 19))) (Int32.logor (Int32.shift_right_logical e 22) (Int32.shift_left e 10))) (Int32.logxor g (Int32.logand (Int32.logxor e g) (Int32.logxor f g))))) in
  let t1 = (Int32.add (Int32.add c (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical h 6) (Int32.shift_left h 26)) (Int32.logor (Int32.shift_right_logical h 11) (Int32.shift_left h 21))) (Int32.logor (Int32.shift_right_logical h 25) (Int32.shift_left h 7)))) (Int32.add (Int32.logxor b (Int32.logand h (Int32.logxor a b))) (Int32.add 0x80deb1fel w13))) in
  let g = Int32.add g t1 in
  let c = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical d 2) (Int32.shift_left d 30)) (Int32.logor (Int32.shift_right_logical d 13) (Int32.shift_left d 19))) (Int32.logor (Int32.shift_right_logical d 22) (Int32.shift_left d 10))) (Int32.logxor f (Int32.logand (Int32.logxor d f) (Int32.logxor e f))))) in
  let t1 = (Int32.add (Int32.add b (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical g 6) (Int32.shift_left g 26)) (Int32.logor (Int32.shift_right_logical g 11) (Int32.shift_left g 21))) (Int32.logor (Int32.shift_right_logical g 25) (Int32.shift_left g 7)))) (Int32.add (Int32.logxor a (Int32.logand g (Int32.logxor h a))) (Int32.add 0x9bdc06a7l w14))) in
  let f = Int32.add f t1 in
  let b = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical c 2) (Int32.shift_left c 30)) (Int32.logor (Int32.shift_right_logical c 13) (Int32.shift_left c 19))) (Int32.logor (Int32.shift_right_logical c 22) (Int32.shift_left c 10))) (Int32.logxor e (Int32.logand (Int32.logxor c e) (Int32.logxor d e))))) in
  let t1 = (Int32.add (Int32.add a (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical f 6) (Int32.shift_left f 26)) (Int32.logor (Int32.shift_right_logical f 11) (Int32.shift_left f 21))) (Int32.logor (Int32.shift_right_logical f 25) (Int32.shift_left f 7)))) (Int32.add (Int32.logxor h (Int32.logand f (Int32.logxor g h))) (Int32.add 0xc19bf174l w15))) in
  let e = Int32.add e t1 in
  let a = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical b 2) (Int32.shift_left b 30)) (Int32.logor (Int32.shift_right_logical b 13) (Int32.shift_left b 19))) (Int32.logor (Int32.shift_right_logical b 22) (Int32.shift_left b 10))) (Int32.logxor d (Int32.logand (Int32.logxor b d) (Int32.logxor c d))))) in
  let w0 = (Int32.add (Int32.add w0 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w1 7) (Int32.shift_left w1 25)) (Int32.logor (Int32.shift_right_logical w1 18) (Int32.shift_left w1 14))) (Int32.shift_right_logical w1 3))) (Int32.add w9 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w14 17) (Int32.shift_left w14 15)) (Int32.logor (Int32.shift_right_logical w14 19) (Int32.shift_left w14 13))) (Int32.shift_right_logical w14 10)))) in
  let t1 = (Int32.add (Int32.add h (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical e 6) (Int32.shift_left e 26)) (Int32.logor (Int32.shift_right_logical e 11) (Int32.shift_left e 21))) (Int32.logor (Int32.shift_right_logical e 25) (Int32.shift_left e 7)))) (Int32.add (Int32.logxor g (Int32.logand e (Int32.logxor f g))) (Int32.add 0xe49b69c1l w0))) in
  let d = Int32.add d t1 in
  let h = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical a 2) (Int32.shift_left a 30)) (Int32.logor (Int32.shift_right_logical a 13) (Int32.shift_left a 19))) (Int32.logor (Int32.shift_right_logical a 22) (Int32.shift_left a 10))) (Int32.logxor c (Int32.logand (Int32.logxor a c) (Int32.logxor b c))))) in
  let w1 = (Int32.add (Int32.add w1 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w2 7) (Int32.shift_left w2 25)) (Int32.logor (Int32.shift_right_logical w2 18) (Int32.shift_left w2 14))) (Int32.shift_right_logical w2 3))) (Int32.add w10 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w15 17) (Int32.shift_left w15 15)) (Int32.logor (Int32.shift_right_logical w15 19) (Int32.shift_left w15 13))) (Int32.shift_right_logical w15 10)))) in
  let t1 = (Int32.add (Int32.add g (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical d 6) (Int32.shift_left d 26)) (Int32.logor (Int32.shift_right_logical d 11) (Int32.shift_left d 21))) (Int32.logor (Int32.shift_right_logical d 25) (Int32.shift_left d 7)))) (Int32.add (Int32.logxor f (Int32.logand d (Int32.logxor e f))) (Int32.add 0xefbe4786l w1))) in
  let c = Int32.add c t1 in
  let g = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical h 2) (Int32.shift_left h 30)) (Int32.logor (Int32.shift_right_logical h 13) (Int32.shift_left h 19))) (Int32.logor (Int32.shift_right_logical h 22) (Int32.shift_left h 10))) (Int32.logxor b (Int32.logand (Int32.logxor h b) (Int32.logxor a b))))) in
  let w2 = (Int32.add (Int32.add w2 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w3 7) (Int32.shift_left w3 25)) (Int32.logor (Int32.shift_right_logical w3 18) (Int32.shift_left w3 14))) (Int32.shift_right_logical w3 3))) (Int32.add w11 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w0 17) (Int32.shift_left w0 15)) (Int32.logor (Int32.shift_right_logical w0 19) (Int32.shift_left w0 13))) (Int32.shift_right_logical w0 10)))) in
  let t1 = (Int32.add (Int32.add f (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical c 6) (Int32.shift_left c 26)) (Int32.logor (Int32.shift_right_logical c 11) (Int32.shift_left c 21))) (Int32.logor (Int32.shift_right_logical c 25) (Int32.shift_left c 7)))) (Int32.add (Int32.logxor e (Int32.logand c (Int32.logxor d e))) (Int32.add 0x0fc19dc6l w2))) in
  let b = Int32.add b t1 in
  let f = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical g 2) (Int32.shift_left g 30)) (Int32.logor (Int32.shift_right_logical g 13) (Int32.shift_left g 19))) (Int32.logor (Int32.shift_right_logical g 22) (Int32.shift_left g 10))) (Int32.logxor a (Int32.logand (Int32.logxor g a) (Int32.logxor h a))))) in
  let w3 = (Int32.add (Int32.add w3 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w4 7) (Int32.shift_left w4 25)) (Int32.logor (Int32.shift_right_logical w4 18) (Int32.shift_left w4 14))) (Int32.shift_right_logical w4 3))) (Int32.add w12 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w1 17) (Int32.shift_left w1 15)) (Int32.logor (Int32.shift_right_logical w1 19) (Int32.shift_left w1 13))) (Int32.shift_right_logical w1 10)))) in
  let t1 = (Int32.add (Int32.add e (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical b 6) (Int32.shift_left b 26)) (Int32.logor (Int32.shift_right_logical b 11) (Int32.shift_left b 21))) (Int32.logor (Int32.shift_right_logical b 25) (Int32.shift_left b 7)))) (Int32.add (Int32.logxor d (Int32.logand b (Int32.logxor c d))) (Int32.add 0x240ca1ccl w3))) in
  let a = Int32.add a t1 in
  let e = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical f 2) (Int32.shift_left f 30)) (Int32.logor (Int32.shift_right_logical f 13) (Int32.shift_left f 19))) (Int32.logor (Int32.shift_right_logical f 22) (Int32.shift_left f 10))) (Int32.logxor h (Int32.logand (Int32.logxor f h) (Int32.logxor g h))))) in
  let w4 = (Int32.add (Int32.add w4 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w5 7) (Int32.shift_left w5 25)) (Int32.logor (Int32.shift_right_logical w5 18) (Int32.shift_left w5 14))) (Int32.shift_right_logical w5 3))) (Int32.add w13 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w2 17) (Int32.shift_left w2 15)) (Int32.logor (Int32.shift_right_logical w2 19) (Int32.shift_left w2 13))) (Int32.shift_right_logical w2 10)))) in
  let t1 = (Int32.add (Int32.add d (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical a 6) (Int32.shift_left a 26)) (Int32.logor (Int32.shift_right_logical a 11) (Int32.shift_left a 21))) (Int32.logor (Int32.shift_right_logical a 25) (Int32.shift_left a 7)))) (Int32.add (Int32.logxor c (Int32.logand a (Int32.logxor b c))) (Int32.add 0x2de92c6fl w4))) in
  let h = Int32.add h t1 in
  let d = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical e 2) (Int32.shift_left e 30)) (Int32.logor (Int32.shift_right_logical e 13) (Int32.shift_left e 19))) (Int32.logor (Int32.shift_right_logical e 22) (Int32.shift_left e 10))) (Int32.logxor g (Int32.logand (Int32.logxor e g) (Int32.logxor f g))))) in
  let w5 = (Int32.add (Int32.add w5 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w6 7) (Int32.shift_left w6 25)) (Int32.logor (Int32.shift_right_logical w6 18) (Int32.shift_left w6 14))) (Int32.shift_right_logical w6 3))) (Int32.add w14 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w3 17) (Int32.shift_left w3 15)) (Int32.logor (Int32.shift_right_logical w3 19) (Int32.shift_left w3 13))) (Int32.shift_right_logical w3 10)))) in
  let t1 = (Int32.add (Int32.add c (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical h 6) (Int32.shift_left h 26)) (Int32.logor (Int32.shift_right_logical h 11) (Int32.shift_left h 21))) (Int32.logor (Int32.shift_right_logical h 25) (Int32.shift_left h 7)))) (Int32.add (Int32.logxor b (Int32.logand h (Int32.logxor a b))) (Int32.add 0x4a7484aal w5))) in
  let g = Int32.add g t1 in
  let c = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical d 2) (Int32.shift_left d 30)) (Int32.logor (Int32.shift_right_logical d 13) (Int32.shift_left d 19))) (Int32.logor (Int32.shift_right_logical d 22) (Int32.shift_left d 10))) (Int32.logxor f (Int32.logand (Int32.logxor d f) (Int32.logxor e f))))) in
  let w6 = (Int32.add (Int32.add w6 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w7 7) (Int32.shift_left w7 25)) (Int32.logor (Int32.shift_right_logical w7 18) (Int32.shift_left w7 14))) (Int32.shift_right_logical w7 3))) (Int32.add w15 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w4 17) (Int32.shift_left w4 15)) (Int32.logor (Int32.shift_right_logical w4 19) (Int32.shift_left w4 13))) (Int32.shift_right_logical w4 10)))) in
  let t1 = (Int32.add (Int32.add b (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical g 6) (Int32.shift_left g 26)) (Int32.logor (Int32.shift_right_logical g 11) (Int32.shift_left g 21))) (Int32.logor (Int32.shift_right_logical g 25) (Int32.shift_left g 7)))) (Int32.add (Int32.logxor a (Int32.logand g (Int32.logxor h a))) (Int32.add 0x5cb0a9dcl w6))) in
  let f = Int32.add f t1 in
  let b = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical c 2) (Int32.shift_left c 30)) (Int32.logor (Int32.shift_right_logical c 13) (Int32.shift_left c 19))) (Int32.logor (Int32.shift_right_logical c 22) (Int32.shift_left c 10))) (Int32.logxor e (Int32.logand (Int32.logxor c e) (Int32.logxor d e))))) in
  let w7 = (Int32.add (Int32.add w7 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w8 7) (Int32.shift_left w8 25)) (Int32.logor (Int32.shift_right_logical w8 18) (Int32.shift_left w8 14))) (Int32.shift_right_logical w8 3))) (Int32.add w0 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w5 17) (Int32.shift_left w5 15)) (Int32.logor (Int32.shift_right_logical w5 19) (Int32.shift_left w5 13))) (Int32.shift_right_logical w5 10)))) in
  let t1 = (Int32.add (Int32.add a (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical f 6) (Int32.shift_left f 26)) (Int32.logor (Int32.shift_right_logical f 11) (Int32.shift_left f 21))) (Int32.logor (Int32.shift_right_logical f 25) (Int32.shift_left f 7)))) (Int32.add (Int32.logxor h (Int32.logand f (Int32.logxor g h))) (Int32.add 0x76f988dal w7))) in
  let e = Int32.add e t1 in
  let a = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical b 2) (Int32.shift_left b 30)) (Int32.logor (Int32.shift_right_logical b 13) (Int32.shift_left b 19))) (Int32.logor (Int32.shift_right_logical b 22) (Int32.shift_left b 10))) (Int32.logxor d (Int32.logand (Int32.logxor b d) (Int32.logxor c d))))) in
  let w8 = (Int32.add (Int32.add w8 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w9 7) (Int32.shift_left w9 25)) (Int32.logor (Int32.shift_right_logical w9 18) (Int32.shift_left w9 14))) (Int32.shift_right_logical w9 3))) (Int32.add w1 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w6 17) (Int32.shift_left w6 15)) (Int32.logor (Int32.shift_right_logical w6 19) (Int32.shift_left w6 13))) (Int32.shift_right_logical w6 10)))) in
  let t1 = (Int32.add (Int32.add h (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical e 6) (Int32.shift_left e 26)) (Int32.logor (Int32.shift_right_logical e 11) (Int32.shift_left e 21))) (Int32.logor (Int32.shift_right_logical e 25) (Int32.shift_left e 7)))) (Int32.add (Int32.logxor g (Int32.logand e (Int32.logxor f g))) (Int32.add 0x983e5152l w8))) in
  let d = Int32.add d t1 in
  let h = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical a 2) (Int32.shift_left a 30)) (Int32.logor (Int32.shift_right_logical a 13) (Int32.shift_left a 19))) (Int32.logor (Int32.shift_right_logical a 22) (Int32.shift_left a 10))) (Int32.logxor c (Int32.logand (Int32.logxor a c) (Int32.logxor b c))))) in
  let w9 = (Int32.add (Int32.add w9 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w10 7) (Int32.shift_left w10 25)) (Int32.logor (Int32.shift_right_logical w10 18) (Int32.shift_left w10 14))) (Int32.shift_right_logical w10 3))) (Int32.add w2 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w7 17) (Int32.shift_left w7 15)) (Int32.logor (Int32.shift_right_logical w7 19) (Int32.shift_left w7 13))) (Int32.shift_right_logical w7 10)))) in
  let t1 = (Int32.add (Int32.add g (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical d 6) (Int32.shift_left d 26)) (Int32.logor (Int32.shift_right_logical d 11) (Int32.shift_left d 21))) (Int32.logor (Int32.shift_right_logical d 25) (Int32.shift_left d 7)))) (Int32.add (Int32.logxor f (Int32.logand d (Int32.logxor e f))) (Int32.add 0xa831c66dl w9))) in
  let c = Int32.add c t1 in
  let g = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical h 2) (Int32.shift_left h 30)) (Int32.logor (Int32.shift_right_logical h 13) (Int32.shift_left h 19))) (Int32.logor (Int32.shift_right_logical h 22) (Int32.shift_left h 10))) (Int32.logxor b (Int32.logand (Int32.logxor h b) (Int32.logxor a b))))) in
  let w10 = (Int32.add (Int32.add w10 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w11 7) (Int32.shift_left w11 25)) (Int32.logor (Int32.shift_right_logical w11 18) (Int32.shift_left w11 14))) (Int32.shift_right_logical w11 3))) (Int32.add w3 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w8 17) (Int32.shift_left w8 15)) (Int32.logor (Int32.shift_right_logical w8 19) (Int32.shift_left w8 13))) (Int32.shift_right_logical w8 10)))) in
  let t1 = (Int32.add (Int32.add f (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical c 6) (Int32.shift_left c 26)) (Int32.logor (Int32.shift_right_logical c 11) (Int32.shift_left c 21))) (Int32.logor (Int32.shift_right_logical c 25) (Int32.shift_left c 7)))) (Int32.add (Int32.logxor e (Int32.logand c (Int32.logxor d e))) (Int32.add 0xb00327c8l w10))) in
  let b = Int32.add b t1 in
  let f = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical g 2) (Int32.shift_left g 30)) (Int32.logor (Int32.shift_right_logical g 13) (Int32.shift_left g 19))) (Int32.logor (Int32.shift_right_logical g 22) (Int32.shift_left g 10))) (Int32.logxor a (Int32.logand (Int32.logxor g a) (Int32.logxor h a))))) in
  let w11 = (Int32.add (Int32.add w11 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w12 7) (Int32.shift_left w12 25)) (Int32.logor (Int32.shift_right_logical w12 18) (Int32.shift_left w12 14))) (Int32.shift_right_logical w12 3))) (Int32.add w4 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w9 17) (Int32.shift_left w9 15)) (Int32.logor (Int32.shift_right_logical w9 19) (Int32.shift_left w9 13))) (Int32.shift_right_logical w9 10)))) in
  let t1 = (Int32.add (Int32.add e (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical b 6) (Int32.shift_left b 26)) (Int32.logor (Int32.shift_right_logical b 11) (Int32.shift_left b 21))) (Int32.logor (Int32.shift_right_logical b 25) (Int32.shift_left b 7)))) (Int32.add (Int32.logxor d (Int32.logand b (Int32.logxor c d))) (Int32.add 0xbf597fc7l w11))) in
  let a = Int32.add a t1 in
  let e = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical f 2) (Int32.shift_left f 30)) (Int32.logor (Int32.shift_right_logical f 13) (Int32.shift_left f 19))) (Int32.logor (Int32.shift_right_logical f 22) (Int32.shift_left f 10))) (Int32.logxor h (Int32.logand (Int32.logxor f h) (Int32.logxor g h))))) in
  let w12 = (Int32.add (Int32.add w12 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w13 7) (Int32.shift_left w13 25)) (Int32.logor (Int32.shift_right_logical w13 18) (Int32.shift_left w13 14))) (Int32.shift_right_logical w13 3))) (Int32.add w5 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w10 17) (Int32.shift_left w10 15)) (Int32.logor (Int32.shift_right_logical w10 19) (Int32.shift_left w10 13))) (Int32.shift_right_logical w10 10)))) in
  let t1 = (Int32.add (Int32.add d (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical a 6) (Int32.shift_left a 26)) (Int32.logor (Int32.shift_right_logical a 11) (Int32.shift_left a 21))) (Int32.logor (Int32.shift_right_logical a 25) (Int32.shift_left a 7)))) (Int32.add (Int32.logxor c (Int32.logand a (Int32.logxor b c))) (Int32.add 0xc6e00bf3l w12))) in
  let h = Int32.add h t1 in
  let d = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical e 2) (Int32.shift_left e 30)) (Int32.logor (Int32.shift_right_logical e 13) (Int32.shift_left e 19))) (Int32.logor (Int32.shift_right_logical e 22) (Int32.shift_left e 10))) (Int32.logxor g (Int32.logand (Int32.logxor e g) (Int32.logxor f g))))) in
  let w13 = (Int32.add (Int32.add w13 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w14 7) (Int32.shift_left w14 25)) (Int32.logor (Int32.shift_right_logical w14 18) (Int32.shift_left w14 14))) (Int32.shift_right_logical w14 3))) (Int32.add w6 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w11 17) (Int32.shift_left w11 15)) (Int32.logor (Int32.shift_right_logical w11 19) (Int32.shift_left w11 13))) (Int32.shift_right_logical w11 10)))) in
  let t1 = (Int32.add (Int32.add c (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical h 6) (Int32.shift_left h 26)) (Int32.logor (Int32.shift_right_logical h 11) (Int32.shift_left h 21))) (Int32.logor (Int32.shift_right_logical h 25) (Int32.shift_left h 7)))) (Int32.add (Int32.logxor b (Int32.logand h (Int32.logxor a b))) (Int32.add 0xd5a79147l w13))) in
  let g = Int32.add g t1 in
  let c = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical d 2) (Int32.shift_left d 30)) (Int32.logor (Int32.shift_right_logical d 13) (Int32.shift_left d 19))) (Int32.logor (Int32.shift_right_logical d 22) (Int32.shift_left d 10))) (Int32.logxor f (Int32.logand (Int32.logxor d f) (Int32.logxor e f))))) in
  let w14 = (Int32.add (Int32.add w14 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w15 7) (Int32.shift_left w15 25)) (Int32.logor (Int32.shift_right_logical w15 18) (Int32.shift_left w15 14))) (Int32.shift_right_logical w15 3))) (Int32.add w7 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w12 17) (Int32.shift_left w12 15)) (Int32.logor (Int32.shift_right_logical w12 19) (Int32.shift_left w12 13))) (Int32.shift_right_logical w12 10)))) in
  let t1 = (Int32.add (Int32.add b (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical g 6) (Int32.shift_left g 26)) (Int32.logor (Int32.shift_right_logical g 11) (Int32.shift_left g 21))) (Int32.logor (Int32.shift_right_logical g 25) (Int32.shift_left g 7)))) (Int32.add (Int32.logxor a (Int32.logand g (Int32.logxor h a))) (Int32.add 0x06ca6351l w14))) in
  let f = Int32.add f t1 in
  let b = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical c 2) (Int32.shift_left c 30)) (Int32.logor (Int32.shift_right_logical c 13) (Int32.shift_left c 19))) (Int32.logor (Int32.shift_right_logical c 22) (Int32.shift_left c 10))) (Int32.logxor e (Int32.logand (Int32.logxor c e) (Int32.logxor d e))))) in
  let w15 = (Int32.add (Int32.add w15 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w0 7) (Int32.shift_left w0 25)) (Int32.logor (Int32.shift_right_logical w0 18) (Int32.shift_left w0 14))) (Int32.shift_right_logical w0 3))) (Int32.add w8 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w13 17) (Int32.shift_left w13 15)) (Int32.logor (Int32.shift_right_logical w13 19) (Int32.shift_left w13 13))) (Int32.shift_right_logical w13 10)))) in
  let t1 = (Int32.add (Int32.add a (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical f 6) (Int32.shift_left f 26)) (Int32.logor (Int32.shift_right_logical f 11) (Int32.shift_left f 21))) (Int32.logor (Int32.shift_right_logical f 25) (Int32.shift_left f 7)))) (Int32.add (Int32.logxor h (Int32.logand f (Int32.logxor g h))) (Int32.add 0x14292967l w15))) in
  let e = Int32.add e t1 in
  let a = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical b 2) (Int32.shift_left b 30)) (Int32.logor (Int32.shift_right_logical b 13) (Int32.shift_left b 19))) (Int32.logor (Int32.shift_right_logical b 22) (Int32.shift_left b 10))) (Int32.logxor d (Int32.logand (Int32.logxor b d) (Int32.logxor c d))))) in
  let w0 = (Int32.add (Int32.add w0 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w1 7) (Int32.shift_left w1 25)) (Int32.logor (Int32.shift_right_logical w1 18) (Int32.shift_left w1 14))) (Int32.shift_right_logical w1 3))) (Int32.add w9 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w14 17) (Int32.shift_left w14 15)) (Int32.logor (Int32.shift_right_logical w14 19) (Int32.shift_left w14 13))) (Int32.shift_right_logical w14 10)))) in
  let t1 = (Int32.add (Int32.add h (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical e 6) (Int32.shift_left e 26)) (Int32.logor (Int32.shift_right_logical e 11) (Int32.shift_left e 21))) (Int32.logor (Int32.shift_right_logical e 25) (Int32.shift_left e 7)))) (Int32.add (Int32.logxor g (Int32.logand e (Int32.logxor f g))) (Int32.add 0x27b70a85l w0))) in
  let d = Int32.add d t1 in
  let h = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical a 2) (Int32.shift_left a 30)) (Int32.logor (Int32.shift_right_logical a 13) (Int32.shift_left a 19))) (Int32.logor (Int32.shift_right_logical a 22) (Int32.shift_left a 10))) (Int32.logxor c (Int32.logand (Int32.logxor a c) (Int32.logxor b c))))) in
  let w1 = (Int32.add (Int32.add w1 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w2 7) (Int32.shift_left w2 25)) (Int32.logor (Int32.shift_right_logical w2 18) (Int32.shift_left w2 14))) (Int32.shift_right_logical w2 3))) (Int32.add w10 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w15 17) (Int32.shift_left w15 15)) (Int32.logor (Int32.shift_right_logical w15 19) (Int32.shift_left w15 13))) (Int32.shift_right_logical w15 10)))) in
  let t1 = (Int32.add (Int32.add g (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical d 6) (Int32.shift_left d 26)) (Int32.logor (Int32.shift_right_logical d 11) (Int32.shift_left d 21))) (Int32.logor (Int32.shift_right_logical d 25) (Int32.shift_left d 7)))) (Int32.add (Int32.logxor f (Int32.logand d (Int32.logxor e f))) (Int32.add 0x2e1b2138l w1))) in
  let c = Int32.add c t1 in
  let g = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical h 2) (Int32.shift_left h 30)) (Int32.logor (Int32.shift_right_logical h 13) (Int32.shift_left h 19))) (Int32.logor (Int32.shift_right_logical h 22) (Int32.shift_left h 10))) (Int32.logxor b (Int32.logand (Int32.logxor h b) (Int32.logxor a b))))) in
  let w2 = (Int32.add (Int32.add w2 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w3 7) (Int32.shift_left w3 25)) (Int32.logor (Int32.shift_right_logical w3 18) (Int32.shift_left w3 14))) (Int32.shift_right_logical w3 3))) (Int32.add w11 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w0 17) (Int32.shift_left w0 15)) (Int32.logor (Int32.shift_right_logical w0 19) (Int32.shift_left w0 13))) (Int32.shift_right_logical w0 10)))) in
  let t1 = (Int32.add (Int32.add f (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical c 6) (Int32.shift_left c 26)) (Int32.logor (Int32.shift_right_logical c 11) (Int32.shift_left c 21))) (Int32.logor (Int32.shift_right_logical c 25) (Int32.shift_left c 7)))) (Int32.add (Int32.logxor e (Int32.logand c (Int32.logxor d e))) (Int32.add 0x4d2c6dfcl w2))) in
  let b = Int32.add b t1 in
  let f = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical g 2) (Int32.shift_left g 30)) (Int32.logor (Int32.shift_right_logical g 13) (Int32.shift_left g 19))) (Int32.logor (Int32.shift_right_logical g 22) (Int32.shift_left g 10))) (Int32.logxor a (Int32.logand (Int32.logxor g a) (Int32.logxor h a))))) in
  let w3 = (Int32.add (Int32.add w3 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w4 7) (Int32.shift_left w4 25)) (Int32.logor (Int32.shift_right_logical w4 18) (Int32.shift_left w4 14))) (Int32.shift_right_logical w4 3))) (Int32.add w12 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w1 17) (Int32.shift_left w1 15)) (Int32.logor (Int32.shift_right_logical w1 19) (Int32.shift_left w1 13))) (Int32.shift_right_logical w1 10)))) in
  let t1 = (Int32.add (Int32.add e (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical b 6) (Int32.shift_left b 26)) (Int32.logor (Int32.shift_right_logical b 11) (Int32.shift_left b 21))) (Int32.logor (Int32.shift_right_logical b 25) (Int32.shift_left b 7)))) (Int32.add (Int32.logxor d (Int32.logand b (Int32.logxor c d))) (Int32.add 0x53380d13l w3))) in
  let a = Int32.add a t1 in
  let e = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical f 2) (Int32.shift_left f 30)) (Int32.logor (Int32.shift_right_logical f 13) (Int32.shift_left f 19))) (Int32.logor (Int32.shift_right_logical f 22) (Int32.shift_left f 10))) (Int32.logxor h (Int32.logand (Int32.logxor f h) (Int32.logxor g h))))) in
  let w4 = (Int32.add (Int32.add w4 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w5 7) (Int32.shift_left w5 25)) (Int32.logor (Int32.shift_right_logical w5 18) (Int32.shift_left w5 14))) (Int32.shift_right_logical w5 3))) (Int32.add w13 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w2 17) (Int32.shift_left w2 15)) (Int32.logor (Int32.shift_right_logical w2 19) (Int32.shift_left w2 13))) (Int32.shift_right_logical w2 10)))) in
  let t1 = (Int32.add (Int32.add d (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical a 6) (Int32.shift_left a 26)) (Int32.logor (Int32.shift_right_logical a 11) (Int32.shift_left a 21))) (Int32.logor (Int32.shift_right_logical a 25) (Int32.shift_left a 7)))) (Int32.add (Int32.logxor c (Int32.logand a (Int32.logxor b c))) (Int32.add 0x650a7354l w4))) in
  let h = Int32.add h t1 in
  let d = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical e 2) (Int32.shift_left e 30)) (Int32.logor (Int32.shift_right_logical e 13) (Int32.shift_left e 19))) (Int32.logor (Int32.shift_right_logical e 22) (Int32.shift_left e 10))) (Int32.logxor g (Int32.logand (Int32.logxor e g) (Int32.logxor f g))))) in
  let w5 = (Int32.add (Int32.add w5 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w6 7) (Int32.shift_left w6 25)) (Int32.logor (Int32.shift_right_logical w6 18) (Int32.shift_left w6 14))) (Int32.shift_right_logical w6 3))) (Int32.add w14 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w3 17) (Int32.shift_left w3 15)) (Int32.logor (Int32.shift_right_logical w3 19) (Int32.shift_left w3 13))) (Int32.shift_right_logical w3 10)))) in
  let t1 = (Int32.add (Int32.add c (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical h 6) (Int32.shift_left h 26)) (Int32.logor (Int32.shift_right_logical h 11) (Int32.shift_left h 21))) (Int32.logor (Int32.shift_right_logical h 25) (Int32.shift_left h 7)))) (Int32.add (Int32.logxor b (Int32.logand h (Int32.logxor a b))) (Int32.add 0x766a0abbl w5))) in
  let g = Int32.add g t1 in
  let c = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical d 2) (Int32.shift_left d 30)) (Int32.logor (Int32.shift_right_logical d 13) (Int32.shift_left d 19))) (Int32.logor (Int32.shift_right_logical d 22) (Int32.shift_left d 10))) (Int32.logxor f (Int32.logand (Int32.logxor d f) (Int32.logxor e f))))) in
  let w6 = (Int32.add (Int32.add w6 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w7 7) (Int32.shift_left w7 25)) (Int32.logor (Int32.shift_right_logical w7 18) (Int32.shift_left w7 14))) (Int32.shift_right_logical w7 3))) (Int32.add w15 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w4 17) (Int32.shift_left w4 15)) (Int32.logor (Int32.shift_right_logical w4 19) (Int32.shift_left w4 13))) (Int32.shift_right_logical w4 10)))) in
  let t1 = (Int32.add (Int32.add b (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical g 6) (Int32.shift_left g 26)) (Int32.logor (Int32.shift_right_logical g 11) (Int32.shift_left g 21))) (Int32.logor (Int32.shift_right_logical g 25) (Int32.shift_left g 7)))) (Int32.add (Int32.logxor a (Int32.logand g (Int32.logxor h a))) (Int32.add 0x81c2c92el w6))) in
  let f = Int32.add f t1 in
  let b = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical c 2) (Int32.shift_left c 30)) (Int32.logor (Int32.shift_right_logical c 13) (Int32.shift_left c 19))) (Int32.logor (Int32.shift_right_logical c 22) (Int32.shift_left c 10))) (Int32.logxor e (Int32.logand (Int32.logxor c e) (Int32.logxor d e))))) in
  let w7 = (Int32.add (Int32.add w7 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w8 7) (Int32.shift_left w8 25)) (Int32.logor (Int32.shift_right_logical w8 18) (Int32.shift_left w8 14))) (Int32.shift_right_logical w8 3))) (Int32.add w0 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w5 17) (Int32.shift_left w5 15)) (Int32.logor (Int32.shift_right_logical w5 19) (Int32.shift_left w5 13))) (Int32.shift_right_logical w5 10)))) in
  let t1 = (Int32.add (Int32.add a (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical f 6) (Int32.shift_left f 26)) (Int32.logor (Int32.shift_right_logical f 11) (Int32.shift_left f 21))) (Int32.logor (Int32.shift_right_logical f 25) (Int32.shift_left f 7)))) (Int32.add (Int32.logxor h (Int32.logand f (Int32.logxor g h))) (Int32.add 0x92722c85l w7))) in
  let e = Int32.add e t1 in
  let a = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical b 2) (Int32.shift_left b 30)) (Int32.logor (Int32.shift_right_logical b 13) (Int32.shift_left b 19))) (Int32.logor (Int32.shift_right_logical b 22) (Int32.shift_left b 10))) (Int32.logxor d (Int32.logand (Int32.logxor b d) (Int32.logxor c d))))) in
  let w8 = (Int32.add (Int32.add w8 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w9 7) (Int32.shift_left w9 25)) (Int32.logor (Int32.shift_right_logical w9 18) (Int32.shift_left w9 14))) (Int32.shift_right_logical w9 3))) (Int32.add w1 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w6 17) (Int32.shift_left w6 15)) (Int32.logor (Int32.shift_right_logical w6 19) (Int32.shift_left w6 13))) (Int32.shift_right_logical w6 10)))) in
  let t1 = (Int32.add (Int32.add h (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical e 6) (Int32.shift_left e 26)) (Int32.logor (Int32.shift_right_logical e 11) (Int32.shift_left e 21))) (Int32.logor (Int32.shift_right_logical e 25) (Int32.shift_left e 7)))) (Int32.add (Int32.logxor g (Int32.logand e (Int32.logxor f g))) (Int32.add 0xa2bfe8a1l w8))) in
  let d = Int32.add d t1 in
  let h = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical a 2) (Int32.shift_left a 30)) (Int32.logor (Int32.shift_right_logical a 13) (Int32.shift_left a 19))) (Int32.logor (Int32.shift_right_logical a 22) (Int32.shift_left a 10))) (Int32.logxor c (Int32.logand (Int32.logxor a c) (Int32.logxor b c))))) in
  let w9 = (Int32.add (Int32.add w9 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w10 7) (Int32.shift_left w10 25)) (Int32.logor (Int32.shift_right_logical w10 18) (Int32.shift_left w10 14))) (Int32.shift_right_logical w10 3))) (Int32.add w2 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w7 17) (Int32.shift_left w7 15)) (Int32.logor (Int32.shift_right_logical w7 19) (Int32.shift_left w7 13))) (Int32.shift_right_logical w7 10)))) in
  let t1 = (Int32.add (Int32.add g (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical d 6) (Int32.shift_left d 26)) (Int32.logor (Int32.shift_right_logical d 11) (Int32.shift_left d 21))) (Int32.logor (Int32.shift_right_logical d 25) (Int32.shift_left d 7)))) (Int32.add (Int32.logxor f (Int32.logand d (Int32.logxor e f))) (Int32.add 0xa81a664bl w9))) in
  let c = Int32.add c t1 in
  let g = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical h 2) (Int32.shift_left h 30)) (Int32.logor (Int32.shift_right_logical h 13) (Int32.shift_left h 19))) (Int32.logor (Int32.shift_right_logical h 22) (Int32.shift_left h 10))) (Int32.logxor b (Int32.logand (Int32.logxor h b) (Int32.logxor a b))))) in
  let w10 = (Int32.add (Int32.add w10 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w11 7) (Int32.shift_left w11 25)) (Int32.logor (Int32.shift_right_logical w11 18) (Int32.shift_left w11 14))) (Int32.shift_right_logical w11 3))) (Int32.add w3 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w8 17) (Int32.shift_left w8 15)) (Int32.logor (Int32.shift_right_logical w8 19) (Int32.shift_left w8 13))) (Int32.shift_right_logical w8 10)))) in
  let t1 = (Int32.add (Int32.add f (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical c 6) (Int32.shift_left c 26)) (Int32.logor (Int32.shift_right_logical c 11) (Int32.shift_left c 21))) (Int32.logor (Int32.shift_right_logical c 25) (Int32.shift_left c 7)))) (Int32.add (Int32.logxor e (Int32.logand c (Int32.logxor d e))) (Int32.add 0xc24b8b70l w10))) in
  let b = Int32.add b t1 in
  let f = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical g 2) (Int32.shift_left g 30)) (Int32.logor (Int32.shift_right_logical g 13) (Int32.shift_left g 19))) (Int32.logor (Int32.shift_right_logical g 22) (Int32.shift_left g 10))) (Int32.logxor a (Int32.logand (Int32.logxor g a) (Int32.logxor h a))))) in
  let w11 = (Int32.add (Int32.add w11 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w12 7) (Int32.shift_left w12 25)) (Int32.logor (Int32.shift_right_logical w12 18) (Int32.shift_left w12 14))) (Int32.shift_right_logical w12 3))) (Int32.add w4 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w9 17) (Int32.shift_left w9 15)) (Int32.logor (Int32.shift_right_logical w9 19) (Int32.shift_left w9 13))) (Int32.shift_right_logical w9 10)))) in
  let t1 = (Int32.add (Int32.add e (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical b 6) (Int32.shift_left b 26)) (Int32.logor (Int32.shift_right_logical b 11) (Int32.shift_left b 21))) (Int32.logor (Int32.shift_right_logical b 25) (Int32.shift_left b 7)))) (Int32.add (Int32.logxor d (Int32.logand b (Int32.logxor c d))) (Int32.add 0xc76c51a3l w11))) in
  let a = Int32.add a t1 in
  let e = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical f 2) (Int32.shift_left f 30)) (Int32.logor (Int32.shift_right_logical f 13) (Int32.shift_left f 19))) (Int32.logor (Int32.shift_right_logical f 22) (Int32.shift_left f 10))) (Int32.logxor h (Int32.logand (Int32.logxor f h) (Int32.logxor g h))))) in
  let w12 = (Int32.add (Int32.add w12 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w13 7) (Int32.shift_left w13 25)) (Int32.logor (Int32.shift_right_logical w13 18) (Int32.shift_left w13 14))) (Int32.shift_right_logical w13 3))) (Int32.add w5 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w10 17) (Int32.shift_left w10 15)) (Int32.logor (Int32.shift_right_logical w10 19) (Int32.shift_left w10 13))) (Int32.shift_right_logical w10 10)))) in
  let t1 = (Int32.add (Int32.add d (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical a 6) (Int32.shift_left a 26)) (Int32.logor (Int32.shift_right_logical a 11) (Int32.shift_left a 21))) (Int32.logor (Int32.shift_right_logical a 25) (Int32.shift_left a 7)))) (Int32.add (Int32.logxor c (Int32.logand a (Int32.logxor b c))) (Int32.add 0xd192e819l w12))) in
  let h = Int32.add h t1 in
  let d = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical e 2) (Int32.shift_left e 30)) (Int32.logor (Int32.shift_right_logical e 13) (Int32.shift_left e 19))) (Int32.logor (Int32.shift_right_logical e 22) (Int32.shift_left e 10))) (Int32.logxor g (Int32.logand (Int32.logxor e g) (Int32.logxor f g))))) in
  let w13 = (Int32.add (Int32.add w13 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w14 7) (Int32.shift_left w14 25)) (Int32.logor (Int32.shift_right_logical w14 18) (Int32.shift_left w14 14))) (Int32.shift_right_logical w14 3))) (Int32.add w6 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w11 17) (Int32.shift_left w11 15)) (Int32.logor (Int32.shift_right_logical w11 19) (Int32.shift_left w11 13))) (Int32.shift_right_logical w11 10)))) in
  let t1 = (Int32.add (Int32.add c (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical h 6) (Int32.shift_left h 26)) (Int32.logor (Int32.shift_right_logical h 11) (Int32.shift_left h 21))) (Int32.logor (Int32.shift_right_logical h 25) (Int32.shift_left h 7)))) (Int32.add (Int32.logxor b (Int32.logand h (Int32.logxor a b))) (Int32.add 0xd6990624l w13))) in
  let g = Int32.add g t1 in
  let c = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical d 2) (Int32.shift_left d 30)) (Int32.logor (Int32.shift_right_logical d 13) (Int32.shift_left d 19))) (Int32.logor (Int32.shift_right_logical d 22) (Int32.shift_left d 10))) (Int32.logxor f (Int32.logand (Int32.logxor d f) (Int32.logxor e f))))) in
  let w14 = (Int32.add (Int32.add w14 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w15 7) (Int32.shift_left w15 25)) (Int32.logor (Int32.shift_right_logical w15 18) (Int32.shift_left w15 14))) (Int32.shift_right_logical w15 3))) (Int32.add w7 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w12 17) (Int32.shift_left w12 15)) (Int32.logor (Int32.shift_right_logical w12 19) (Int32.shift_left w12 13))) (Int32.shift_right_logical w12 10)))) in
  let t1 = (Int32.add (Int32.add b (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical g 6) (Int32.shift_left g 26)) (Int32.logor (Int32.shift_right_logical g 11) (Int32.shift_left g 21))) (Int32.logor (Int32.shift_right_logical g 25) (Int32.shift_left g 7)))) (Int32.add (Int32.logxor a (Int32.logand g (Int32.logxor h a))) (Int32.add 0xf40e3585l w14))) in
  let f = Int32.add f t1 in
  let b = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical c 2) (Int32.shift_left c 30)) (Int32.logor (Int32.shift_right_logical c 13) (Int32.shift_left c 19))) (Int32.logor (Int32.shift_right_logical c 22) (Int32.shift_left c 10))) (Int32.logxor e (Int32.logand (Int32.logxor c e) (Int32.logxor d e))))) in
  let w15 = (Int32.add (Int32.add w15 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w0 7) (Int32.shift_left w0 25)) (Int32.logor (Int32.shift_right_logical w0 18) (Int32.shift_left w0 14))) (Int32.shift_right_logical w0 3))) (Int32.add w8 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w13 17) (Int32.shift_left w13 15)) (Int32.logor (Int32.shift_right_logical w13 19) (Int32.shift_left w13 13))) (Int32.shift_right_logical w13 10)))) in
  let t1 = (Int32.add (Int32.add a (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical f 6) (Int32.shift_left f 26)) (Int32.logor (Int32.shift_right_logical f 11) (Int32.shift_left f 21))) (Int32.logor (Int32.shift_right_logical f 25) (Int32.shift_left f 7)))) (Int32.add (Int32.logxor h (Int32.logand f (Int32.logxor g h))) (Int32.add 0x106aa070l w15))) in
  let e = Int32.add e t1 in
  let a = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical b 2) (Int32.shift_left b 30)) (Int32.logor (Int32.shift_right_logical b 13) (Int32.shift_left b 19))) (Int32.logor (Int32.shift_right_logical b 22) (Int32.shift_left b 10))) (Int32.logxor d (Int32.logand (Int32.logxor b d) (Int32.logxor c d))))) in
  let w0 = (Int32.add (Int32.add w0 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w1 7) (Int32.shift_left w1 25)) (Int32.logor (Int32.shift_right_logical w1 18) (Int32.shift_left w1 14))) (Int32.shift_right_logical w1 3))) (Int32.add w9 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w14 17) (Int32.shift_left w14 15)) (Int32.logor (Int32.shift_right_logical w14 19) (Int32.shift_left w14 13))) (Int32.shift_right_logical w14 10)))) in
  let t1 = (Int32.add (Int32.add h (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical e 6) (Int32.shift_left e 26)) (Int32.logor (Int32.shift_right_logical e 11) (Int32.shift_left e 21))) (Int32.logor (Int32.shift_right_logical e 25) (Int32.shift_left e 7)))) (Int32.add (Int32.logxor g (Int32.logand e (Int32.logxor f g))) (Int32.add 0x19a4c116l w0))) in
  let d = Int32.add d t1 in
  let h = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical a 2) (Int32.shift_left a 30)) (Int32.logor (Int32.shift_right_logical a 13) (Int32.shift_left a 19))) (Int32.logor (Int32.shift_right_logical a 22) (Int32.shift_left a 10))) (Int32.logxor c (Int32.logand (Int32.logxor a c) (Int32.logxor b c))))) in
  let w1 = (Int32.add (Int32.add w1 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w2 7) (Int32.shift_left w2 25)) (Int32.logor (Int32.shift_right_logical w2 18) (Int32.shift_left w2 14))) (Int32.shift_right_logical w2 3))) (Int32.add w10 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w15 17) (Int32.shift_left w15 15)) (Int32.logor (Int32.shift_right_logical w15 19) (Int32.shift_left w15 13))) (Int32.shift_right_logical w15 10)))) in
  let t1 = (Int32.add (Int32.add g (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical d 6) (Int32.shift_left d 26)) (Int32.logor (Int32.shift_right_logical d 11) (Int32.shift_left d 21))) (Int32.logor (Int32.shift_right_logical d 25) (Int32.shift_left d 7)))) (Int32.add (Int32.logxor f (Int32.logand d (Int32.logxor e f))) (Int32.add 0x1e376c08l w1))) in
  let c = Int32.add c t1 in
  let g = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical h 2) (Int32.shift_left h 30)) (Int32.logor (Int32.shift_right_logical h 13) (Int32.shift_left h 19))) (Int32.logor (Int32.shift_right_logical h 22) (Int32.shift_left h 10))) (Int32.logxor b (Int32.logand (Int32.logxor h b) (Int32.logxor a b))))) in
  let w2 = (Int32.add (Int32.add w2 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w3 7) (Int32.shift_left w3 25)) (Int32.logor (Int32.shift_right_logical w3 18) (Int32.shift_left w3 14))) (Int32.shift_right_logical w3 3))) (Int32.add w11 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w0 17) (Int32.shift_left w0 15)) (Int32.logor (Int32.shift_right_logical w0 19) (Int32.shift_left w0 13))) (Int32.shift_right_logical w0 10)))) in
  let t1 = (Int32.add (Int32.add f (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical c 6) (Int32.shift_left c 26)) (Int32.logor (Int32.shift_right_logical c 11) (Int32.shift_left c 21))) (Int32.logor (Int32.shift_right_logical c 25) (Int32.shift_left c 7)))) (Int32.add (Int32.logxor e (Int32.logand c (Int32.logxor d e))) (Int32.add 0x2748774cl w2))) in
  let b = Int32.add b t1 in
  let f = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical g 2) (Int32.shift_left g 30)) (Int32.logor (Int32.shift_right_logical g 13) (Int32.shift_left g 19))) (Int32.logor (Int32.shift_right_logical g 22) (Int32.shift_left g 10))) (Int32.logxor a (Int32.logand (Int32.logxor g a) (Int32.logxor h a))))) in
  let w3 = (Int32.add (Int32.add w3 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w4 7) (Int32.shift_left w4 25)) (Int32.logor (Int32.shift_right_logical w4 18) (Int32.shift_left w4 14))) (Int32.shift_right_logical w4 3))) (Int32.add w12 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w1 17) (Int32.shift_left w1 15)) (Int32.logor (Int32.shift_right_logical w1 19) (Int32.shift_left w1 13))) (Int32.shift_right_logical w1 10)))) in
  let t1 = (Int32.add (Int32.add e (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical b 6) (Int32.shift_left b 26)) (Int32.logor (Int32.shift_right_logical b 11) (Int32.shift_left b 21))) (Int32.logor (Int32.shift_right_logical b 25) (Int32.shift_left b 7)))) (Int32.add (Int32.logxor d (Int32.logand b (Int32.logxor c d))) (Int32.add 0x34b0bcb5l w3))) in
  let a = Int32.add a t1 in
  let e = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical f 2) (Int32.shift_left f 30)) (Int32.logor (Int32.shift_right_logical f 13) (Int32.shift_left f 19))) (Int32.logor (Int32.shift_right_logical f 22) (Int32.shift_left f 10))) (Int32.logxor h (Int32.logand (Int32.logxor f h) (Int32.logxor g h))))) in
  let w4 = (Int32.add (Int32.add w4 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w5 7) (Int32.shift_left w5 25)) (Int32.logor (Int32.shift_right_logical w5 18) (Int32.shift_left w5 14))) (Int32.shift_right_logical w5 3))) (Int32.add w13 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w2 17) (Int32.shift_left w2 15)) (Int32.logor (Int32.shift_right_logical w2 19) (Int32.shift_left w2 13))) (Int32.shift_right_logical w2 10)))) in
  let t1 = (Int32.add (Int32.add d (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical a 6) (Int32.shift_left a 26)) (Int32.logor (Int32.shift_right_logical a 11) (Int32.shift_left a 21))) (Int32.logor (Int32.shift_right_logical a 25) (Int32.shift_left a 7)))) (Int32.add (Int32.logxor c (Int32.logand a (Int32.logxor b c))) (Int32.add 0x391c0cb3l w4))) in
  let h = Int32.add h t1 in
  let d = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical e 2) (Int32.shift_left e 30)) (Int32.logor (Int32.shift_right_logical e 13) (Int32.shift_left e 19))) (Int32.logor (Int32.shift_right_logical e 22) (Int32.shift_left e 10))) (Int32.logxor g (Int32.logand (Int32.logxor e g) (Int32.logxor f g))))) in
  let w5 = (Int32.add (Int32.add w5 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w6 7) (Int32.shift_left w6 25)) (Int32.logor (Int32.shift_right_logical w6 18) (Int32.shift_left w6 14))) (Int32.shift_right_logical w6 3))) (Int32.add w14 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w3 17) (Int32.shift_left w3 15)) (Int32.logor (Int32.shift_right_logical w3 19) (Int32.shift_left w3 13))) (Int32.shift_right_logical w3 10)))) in
  let t1 = (Int32.add (Int32.add c (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical h 6) (Int32.shift_left h 26)) (Int32.logor (Int32.shift_right_logical h 11) (Int32.shift_left h 21))) (Int32.logor (Int32.shift_right_logical h 25) (Int32.shift_left h 7)))) (Int32.add (Int32.logxor b (Int32.logand h (Int32.logxor a b))) (Int32.add 0x4ed8aa4al w5))) in
  let g = Int32.add g t1 in
  let c = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical d 2) (Int32.shift_left d 30)) (Int32.logor (Int32.shift_right_logical d 13) (Int32.shift_left d 19))) (Int32.logor (Int32.shift_right_logical d 22) (Int32.shift_left d 10))) (Int32.logxor f (Int32.logand (Int32.logxor d f) (Int32.logxor e f))))) in
  let w6 = (Int32.add (Int32.add w6 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w7 7) (Int32.shift_left w7 25)) (Int32.logor (Int32.shift_right_logical w7 18) (Int32.shift_left w7 14))) (Int32.shift_right_logical w7 3))) (Int32.add w15 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w4 17) (Int32.shift_left w4 15)) (Int32.logor (Int32.shift_right_logical w4 19) (Int32.shift_left w4 13))) (Int32.shift_right_logical w4 10)))) in
  let t1 = (Int32.add (Int32.add b (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical g 6) (Int32.shift_left g 26)) (Int32.logor (Int32.shift_right_logical g 11) (Int32.shift_left g 21))) (Int32.logor (Int32.shift_right_logical g 25) (Int32.shift_left g 7)))) (Int32.add (Int32.logxor a (Int32.logand g (Int32.logxor h a))) (Int32.add 0x5b9cca4fl w6))) in
  let f = Int32.add f t1 in
  let b = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical c 2) (Int32.shift_left c 30)) (Int32.logor (Int32.shift_right_logical c 13) (Int32.shift_left c 19))) (Int32.logor (Int32.shift_right_logical c 22) (Int32.shift_left c 10))) (Int32.logxor e (Int32.logand (Int32.logxor c e) (Int32.logxor d e))))) in
  let w7 = (Int32.add (Int32.add w7 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w8 7) (Int32.shift_left w8 25)) (Int32.logor (Int32.shift_right_logical w8 18) (Int32.shift_left w8 14))) (Int32.shift_right_logical w8 3))) (Int32.add w0 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w5 17) (Int32.shift_left w5 15)) (Int32.logor (Int32.shift_right_logical w5 19) (Int32.shift_left w5 13))) (Int32.shift_right_logical w5 10)))) in
  let t1 = (Int32.add (Int32.add a (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical f 6) (Int32.shift_left f 26)) (Int32.logor (Int32.shift_right_logical f 11) (Int32.shift_left f 21))) (Int32.logor (Int32.shift_right_logical f 25) (Int32.shift_left f 7)))) (Int32.add (Int32.logxor h (Int32.logand f (Int32.logxor g h))) (Int32.add 0x682e6ff3l w7))) in
  let e = Int32.add e t1 in
  let a = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical b 2) (Int32.shift_left b 30)) (Int32.logor (Int32.shift_right_logical b 13) (Int32.shift_left b 19))) (Int32.logor (Int32.shift_right_logical b 22) (Int32.shift_left b 10))) (Int32.logxor d (Int32.logand (Int32.logxor b d) (Int32.logxor c d))))) in
  let w8 = (Int32.add (Int32.add w8 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w9 7) (Int32.shift_left w9 25)) (Int32.logor (Int32.shift_right_logical w9 18) (Int32.shift_left w9 14))) (Int32.shift_right_logical w9 3))) (Int32.add w1 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w6 17) (Int32.shift_left w6 15)) (Int32.logor (Int32.shift_right_logical w6 19) (Int32.shift_left w6 13))) (Int32.shift_right_logical w6 10)))) in
  let t1 = (Int32.add (Int32.add h (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical e 6) (Int32.shift_left e 26)) (Int32.logor (Int32.shift_right_logical e 11) (Int32.shift_left e 21))) (Int32.logor (Int32.shift_right_logical e 25) (Int32.shift_left e 7)))) (Int32.add (Int32.logxor g (Int32.logand e (Int32.logxor f g))) (Int32.add 0x748f82eel w8))) in
  let d = Int32.add d t1 in
  let h = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical a 2) (Int32.shift_left a 30)) (Int32.logor (Int32.shift_right_logical a 13) (Int32.shift_left a 19))) (Int32.logor (Int32.shift_right_logical a 22) (Int32.shift_left a 10))) (Int32.logxor c (Int32.logand (Int32.logxor a c) (Int32.logxor b c))))) in
  let w9 = (Int32.add (Int32.add w9 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w10 7) (Int32.shift_left w10 25)) (Int32.logor (Int32.shift_right_logical w10 18) (Int32.shift_left w10 14))) (Int32.shift_right_logical w10 3))) (Int32.add w2 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w7 17) (Int32.shift_left w7 15)) (Int32.logor (Int32.shift_right_logical w7 19) (Int32.shift_left w7 13))) (Int32.shift_right_logical w7 10)))) in
  let t1 = (Int32.add (Int32.add g (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical d 6) (Int32.shift_left d 26)) (Int32.logor (Int32.shift_right_logical d 11) (Int32.shift_left d 21))) (Int32.logor (Int32.shift_right_logical d 25) (Int32.shift_left d 7)))) (Int32.add (Int32.logxor f (Int32.logand d (Int32.logxor e f))) (Int32.add 0x78a5636fl w9))) in
  let c = Int32.add c t1 in
  let g = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical h 2) (Int32.shift_left h 30)) (Int32.logor (Int32.shift_right_logical h 13) (Int32.shift_left h 19))) (Int32.logor (Int32.shift_right_logical h 22) (Int32.shift_left h 10))) (Int32.logxor b (Int32.logand (Int32.logxor h b) (Int32.logxor a b))))) in
  let w10 = (Int32.add (Int32.add w10 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w11 7) (Int32.shift_left w11 25)) (Int32.logor (Int32.shift_right_logical w11 18) (Int32.shift_left w11 14))) (Int32.shift_right_logical w11 3))) (Int32.add w3 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w8 17) (Int32.shift_left w8 15)) (Int32.logor (Int32.shift_right_logical w8 19) (Int32.shift_left w8 13))) (Int32.shift_right_logical w8 10)))) in
  let t1 = (Int32.add (Int32.add f (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical c 6) (Int32.shift_left c 26)) (Int32.logor (Int32.shift_right_logical c 11) (Int32.shift_left c 21))) (Int32.logor (Int32.shift_right_logical c 25) (Int32.shift_left c 7)))) (Int32.add (Int32.logxor e (Int32.logand c (Int32.logxor d e))) (Int32.add 0x84c87814l w10))) in
  let b = Int32.add b t1 in
  let f = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical g 2) (Int32.shift_left g 30)) (Int32.logor (Int32.shift_right_logical g 13) (Int32.shift_left g 19))) (Int32.logor (Int32.shift_right_logical g 22) (Int32.shift_left g 10))) (Int32.logxor a (Int32.logand (Int32.logxor g a) (Int32.logxor h a))))) in
  let w11 = (Int32.add (Int32.add w11 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w12 7) (Int32.shift_left w12 25)) (Int32.logor (Int32.shift_right_logical w12 18) (Int32.shift_left w12 14))) (Int32.shift_right_logical w12 3))) (Int32.add w4 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w9 17) (Int32.shift_left w9 15)) (Int32.logor (Int32.shift_right_logical w9 19) (Int32.shift_left w9 13))) (Int32.shift_right_logical w9 10)))) in
  let t1 = (Int32.add (Int32.add e (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical b 6) (Int32.shift_left b 26)) (Int32.logor (Int32.shift_right_logical b 11) (Int32.shift_left b 21))) (Int32.logor (Int32.shift_right_logical b 25) (Int32.shift_left b 7)))) (Int32.add (Int32.logxor d (Int32.logand b (Int32.logxor c d))) (Int32.add 0x8cc70208l w11))) in
  let a = Int32.add a t1 in
  let e = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical f 2) (Int32.shift_left f 30)) (Int32.logor (Int32.shift_right_logical f 13) (Int32.shift_left f 19))) (Int32.logor (Int32.shift_right_logical f 22) (Int32.shift_left f 10))) (Int32.logxor h (Int32.logand (Int32.logxor f h) (Int32.logxor g h))))) in
  let w12 = (Int32.add (Int32.add w12 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w13 7) (Int32.shift_left w13 25)) (Int32.logor (Int32.shift_right_logical w13 18) (Int32.shift_left w13 14))) (Int32.shift_right_logical w13 3))) (Int32.add w5 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w10 17) (Int32.shift_left w10 15)) (Int32.logor (Int32.shift_right_logical w10 19) (Int32.shift_left w10 13))) (Int32.shift_right_logical w10 10)))) in
  let t1 = (Int32.add (Int32.add d (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical a 6) (Int32.shift_left a 26)) (Int32.logor (Int32.shift_right_logical a 11) (Int32.shift_left a 21))) (Int32.logor (Int32.shift_right_logical a 25) (Int32.shift_left a 7)))) (Int32.add (Int32.logxor c (Int32.logand a (Int32.logxor b c))) (Int32.add 0x90befffal w12))) in
  let h = Int32.add h t1 in
  let d = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical e 2) (Int32.shift_left e 30)) (Int32.logor (Int32.shift_right_logical e 13) (Int32.shift_left e 19))) (Int32.logor (Int32.shift_right_logical e 22) (Int32.shift_left e 10))) (Int32.logxor g (Int32.logand (Int32.logxor e g) (Int32.logxor f g))))) in
  let w13 = (Int32.add (Int32.add w13 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w14 7) (Int32.shift_left w14 25)) (Int32.logor (Int32.shift_right_logical w14 18) (Int32.shift_left w14 14))) (Int32.shift_right_logical w14 3))) (Int32.add w6 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w11 17) (Int32.shift_left w11 15)) (Int32.logor (Int32.shift_right_logical w11 19) (Int32.shift_left w11 13))) (Int32.shift_right_logical w11 10)))) in
  let t1 = (Int32.add (Int32.add c (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical h 6) (Int32.shift_left h 26)) (Int32.logor (Int32.shift_right_logical h 11) (Int32.shift_left h 21))) (Int32.logor (Int32.shift_right_logical h 25) (Int32.shift_left h 7)))) (Int32.add (Int32.logxor b (Int32.logand h (Int32.logxor a b))) (Int32.add 0xa4506cebl w13))) in
  let g = Int32.add g t1 in
  let c = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical d 2) (Int32.shift_left d 30)) (Int32.logor (Int32.shift_right_logical d 13) (Int32.shift_left d 19))) (Int32.logor (Int32.shift_right_logical d 22) (Int32.shift_left d 10))) (Int32.logxor f (Int32.logand (Int32.logxor d f) (Int32.logxor e f))))) in
  let w14 = (Int32.add (Int32.add w14 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w15 7) (Int32.shift_left w15 25)) (Int32.logor (Int32.shift_right_logical w15 18) (Int32.shift_left w15 14))) (Int32.shift_right_logical w15 3))) (Int32.add w7 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w12 17) (Int32.shift_left w12 15)) (Int32.logor (Int32.shift_right_logical w12 19) (Int32.shift_left w12 13))) (Int32.shift_right_logical w12 10)))) in
  let t1 = (Int32.add (Int32.add b (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical g 6) (Int32.shift_left g 26)) (Int32.logor (Int32.shift_right_logical g 11) (Int32.shift_left g 21))) (Int32.logor (Int32.shift_right_logical g 25) (Int32.shift_left g 7)))) (Int32.add (Int32.logxor a (Int32.logand g (Int32.logxor h a))) (Int32.add 0xbef9a3f7l w14))) in
  let f = Int32.add f t1 in
  let b = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical c 2) (Int32.shift_left c 30)) (Int32.logor (Int32.shift_right_logical c 13) (Int32.shift_left c 19))) (Int32.logor (Int32.shift_right_logical c 22) (Int32.shift_left c 10))) (Int32.logxor e (Int32.logand (Int32.logxor c e) (Int32.logxor d e))))) in
  let w15 = (Int32.add (Int32.add w15 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w0 7) (Int32.shift_left w0 25)) (Int32.logor (Int32.shift_right_logical w0 18) (Int32.shift_left w0 14))) (Int32.shift_right_logical w0 3))) (Int32.add w8 (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical w13 17) (Int32.shift_left w13 15)) (Int32.logor (Int32.shift_right_logical w13 19) (Int32.shift_left w13 13))) (Int32.shift_right_logical w13 10)))) in
  let t1 = (Int32.add (Int32.add a (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical f 6) (Int32.shift_left f 26)) (Int32.logor (Int32.shift_right_logical f 11) (Int32.shift_left f 21))) (Int32.logor (Int32.shift_right_logical f 25) (Int32.shift_left f 7)))) (Int32.add (Int32.logxor h (Int32.logand f (Int32.logxor g h))) (Int32.add 0xc67178f2l w15))) in
  let e = Int32.add e t1 in
  let a = (Int32.add t1 (Int32.add (Int32.logxor (Int32.logxor (Int32.logor (Int32.shift_right_logical b 2) (Int32.shift_left b 30)) (Int32.logor (Int32.shift_right_logical b 13) (Int32.shift_left b 19))) (Int32.logor (Int32.shift_right_logical b 22) (Int32.shift_left b 10))) (Int32.logxor d (Int32.logand (Int32.logxor b d) (Int32.logxor c d))))) in
  ctx.h0 <- (ctx.h0 + Int32.to_int a) land 0xFFFFFFFF;
  ctx.h1 <- (ctx.h1 + Int32.to_int b) land 0xFFFFFFFF;
  ctx.h2 <- (ctx.h2 + Int32.to_int c) land 0xFFFFFFFF;
  ctx.h3 <- (ctx.h3 + Int32.to_int d) land 0xFFFFFFFF;
  ctx.h4 <- (ctx.h4 + Int32.to_int e) land 0xFFFFFFFF;
  ctx.h5 <- (ctx.h5 + Int32.to_int f) land 0xFFFFFFFF;
  ctx.h6 <- (ctx.h6 + Int32.to_int g) land 0xFFFFFFFF;
  ctx.h7 <- (ctx.h7 + Int32.to_int h) land 0xFFFFFFFF

let feed_sub ctx s ~pos ~len =
  if ctx.finalized then invalid_arg "Sha256.feed_sub: context already finalized";
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Sha256.feed_sub: out of bounds";
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
  if ctx.finalized then invalid_arg "Sha256.feed: context already finalized";
  feed_sub ctx s ~pos:0 ~len:(String.length s)

(* Pad in place: ctx.buf always has room because buf_len < 64. *)
let finalize ctx =
  if ctx.finalized then invalid_arg "Sha256.get: context already finalized";
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

let digest_into ctx out ~pos =
  if pos < 0 || pos > Bytes.length out - digest_size then invalid_arg "Sha256.digest_into: out of bounds";
  finalize ctx;
  word_be out pos ctx.h0;
  word_be out (pos + 4) ctx.h1;
  word_be out (pos + 8) ctx.h2;
  word_be out (pos + 12) ctx.h3;
  word_be out (pos + 16) ctx.h4;
  word_be out (pos + 20) ctx.h5;
  word_be out (pos + 24) ctx.h6;
  word_be out (pos + 28) ctx.h7

let get ctx =
  let out = Bytes.create digest_size in
  digest_into ctx out ~pos:0;
  Bytes.unsafe_to_string out

let digest_sub s ~pos ~len =
  let ctx = init () in
  feed_sub ctx s ~pos ~len;
  get ctx

let digest s = digest_sub s ~pos:0 ~len:(String.length s)

let digest_parts parts =
  let ctx = init () in
  List.iter (fun s -> feed_sub ctx s ~pos:0 ~len:(String.length s)) parts;
  get ctx

let hex_digest s = Worm_util.Hex.encode (digest s)
