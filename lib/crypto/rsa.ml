module Codec = Worm_util.Codec

type public = { n : Nat.t; e : Nat.t }

type secret = {
  pub : public;
  d : Nat.t;
  p : Nat.t;
  q : Nat.t;
  dp : Nat.t; (* d mod (p-1) *)
  dq : Nat.t; (* d mod (q-1) *)
  qinv : Nat.t; (* q^-1 mod p *)
  mont_p : Nat.mont; (* cached Montgomery context for p; clone before use *)
  mont_q : Nat.mont; (* cached Montgomery context for q; clone before use *)
}

let e_65537 = Nat.of_int 65537

let generate rng ~bits =
  if bits < 512 then invalid_arg "Rsa.generate: modulus below 512 bits";
  let half = bits / 2 in
  let rec gen_prime () =
    let p = Prime.generate rng ~bits:half in
    if Nat.is_one (Nat.gcd e_65537 (Nat.pred p)) then p else gen_prime ()
  in
  let rec gen_pair () =
    let p = gen_prime () in
    let q = gen_prime () in
    if Nat.equal p q then gen_pair ()
    else begin
      let n = Nat.mul p q in
      if Nat.bit_length n <> bits then gen_pair () else (p, q, n)
    end
  in
  let p, q, n = gen_pair () in
  (* Orient so that p > q (required for the CRT recombination below). *)
  let p, q = if Nat.compare p q > 0 then (p, q) else (q, p) in
  let p1 = Nat.pred p and q1 = Nat.pred q in
  let phi = Nat.mul p1 q1 in
  let d =
    match Nat.mod_inverse e_65537 phi with
    | Some d -> d
    | None -> assert false (* gcd(e, p-1) = gcd(e, q-1) = 1 by construction *)
  in
  let qinv =
    match Nat.mod_inverse q p with
    | Some v -> v
    | None -> assert false (* p, q distinct primes *)
  in
  { pub = { n; e = e_65537 }; d; p; q;
    dp = Nat.modulo d p1; dq = Nat.modulo d q1; qinv;
    mont_p = Nat.mont_init p; mont_q = Nat.mont_init q }

let public_of sk = sk.pub
let modulus_bytes pub = (Nat.bit_length pub.n + 7) / 8

(* Each call signs on clones of the key's cached contexts: the kernel
   writes only a context's scratch, never its constants, so a clone (one
   limb array per prime, against ~1 ms of exponentiation) is all two
   domains need to sign under one key at once. No clone is kept, so no
   copy of the key's contexts outlives the key. *)
let raw_apply_secret sk m =
  let mont_p = Nat.mont_clone sk.mont_p and mont_q = Nat.mont_clone sk.mont_q in
  let m = Nat.modulo m sk.pub.n in
  let m1 = Nat.mod_pow_ctx mont_p ~base:m ~exp:sk.dp in
  let m2 = Nat.mod_pow_ctx mont_q ~base:m ~exp:sk.dq in
  (* h = qinv * (m1 - m2) mod p. m1, m2 < p (m2 < q < p), so the
     difference needs at most one lift by p; the product reduces through
     p's cached context instead of a long division. *)
  let diff = if Nat.compare m1 m2 >= 0 then Nat.sub m1 m2 else Nat.sub (Nat.add m1 sk.p) m2 in
  let h = Nat.mod_mul mont_p sk.qinv diff in
  Nat.add m2 (Nat.mul h sk.q)

(* [public] is a transparent record, so verification contexts live in a
   module-level memo instead of the key itself. Two layers make the
   memo domain-safe without serializing verifications:

   - a mutex-guarded master table paying mont_init (a short division
     and a Montgomery exponentiation for R^2 mod m) once per modulus,
     process-wide;
   - a domain-local table of clones of the master (fresh scratch over
     shared constants), because a Nat.mont context's scratch buffer
     makes it single-threaded — two domains must never share one.

   Both tables are bounded so a stream of one-shot keys cannot grow
   them without limit. Even/zero moduli (never produced by [generate],
   but [public] is an open record) fall through to the generic path. *)
let master_ctx_memo : (Nat.t, Nat.mont) Hashtbl.t = Hashtbl.create 8
let master_ctx_mutex = Mutex.create ()

let master_ctx n =
  Mutex.lock master_ctx_mutex;
  match Hashtbl.find_opt master_ctx_memo n with
  | Some ctx ->
      Mutex.unlock master_ctx_mutex;
      ctx
  | None ->
      (* Build outside the lock: mont_init is the expensive part, and
         losing a race just means one redundant init. *)
      Mutex.unlock master_ctx_mutex;
      let ctx = Nat.mont_init n in
      Mutex.lock master_ctx_mutex;
      let ctx =
        match Hashtbl.find_opt master_ctx_memo n with
        | Some existing -> existing
        | None ->
            if Hashtbl.length master_ctx_memo > 64 then Hashtbl.reset master_ctx_memo;
            Hashtbl.add master_ctx_memo n ctx;
            ctx
      in
      Mutex.unlock master_ctx_mutex;
      ctx

let domain_ctx_memo : (Nat.t, Nat.mont) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let public_ctx n =
  if Nat.is_zero n || Nat.is_even n then None
  else begin
    let tbl = Domain.DLS.get domain_ctx_memo in
    match Hashtbl.find_opt tbl n with
    | Some ctx -> Some ctx
    | None ->
        let ctx = Nat.mont_clone (master_ctx n) in
        if Hashtbl.length tbl > 64 then Hashtbl.reset tbl;
        Hashtbl.add tbl n ctx;
        Some ctx
  end

let raw_apply_public pub s =
  match public_ctx pub.n with
  | Some ctx -> Nat.mod_pow_ctx ctx ~base:s ~exp:pub.e
  | None -> Nat.mod_pow ~base:s ~exp:pub.e ~modulus:pub.n

(* DER DigestInfo prefix for SHA-256 (RFC 8017 §9.2 note 1). *)
let sha256_prefix =
  Worm_util.Hex.decode "3031300d060960864801650304020105000420"

let emsa_pkcs1_v15 ~k msg =
  let tlen = String.length sha256_prefix + Sha256.digest_size in
  if k < tlen + 11 then invalid_arg "Rsa: modulus too small for PKCS#1 encoding";
  (* 0x00 0x01 PS(0xff..) 0x00 DigestInfo-prefix digest, built in one
     buffer with the digest finalized directly into place. *)
  let em = Bytes.make k '\xff' in
  Bytes.set em 0 '\x00';
  Bytes.set em 1 '\x01';
  Bytes.set em (k - tlen - 1) '\x00';
  Bytes.blit_string sha256_prefix 0 em (k - tlen) (String.length sha256_prefix);
  let ctx = Sha256.init () in
  Sha256.feed ctx msg;
  Sha256.digest_into ctx em ~pos:(k - Sha256.digest_size);
  Bytes.unsafe_to_string em

let sign_one sk ~k msg =
  let em = emsa_pkcs1_v15 ~k msg in
  let m = Nat.of_bytes_be em in
  let s = raw_apply_secret sk m in
  Nat.to_bytes_be_padded ~len:k s

let sign sk msg =
  let k = modulus_bytes sk.pub in
  sign_one sk ~k msg

let sign_batch ?pool sk msgs =
  let k = modulus_bytes sk.pub in
  match pool with
  | Some p when Worm_util.Pool.size p > 1 && List.length msgs > 1 -> Worm_util.Pool.map_list p (sign_one sk ~k) msgs
  | _ -> List.map (sign_one sk ~k) msgs

let verify pub ~msg ~signature =
  let k = modulus_bytes pub in
  String.length signature = k
  &&
  let s = Nat.of_bytes_be signature in
  Nat.compare s pub.n < 0
  &&
  match Nat.to_bytes_be_padded ~len:k (raw_apply_public pub s) with
  | em -> Worm_util.Ct.equal em (emsa_pkcs1_v15 ~k msg)
  | exception Invalid_argument _ -> false

let encode_public enc pub =
  Codec.bytes enc (Nat.to_bytes_be pub.n);
  Codec.bytes enc (Nat.to_bytes_be pub.e)

(* Must track [encode_public] exactly: each component is a length-
   prefixed minimal big-endian encoding of (bit_length + 7) / 8 bytes. *)
let public_encoded_size pub =
  4 + ((Nat.bit_length pub.n + 7) / 8) + 4 + ((Nat.bit_length pub.e + 7) / 8)

let decode_public dec =
  let n = Nat.of_bytes_be (Codec.read_bytes dec) in
  let e = Nat.of_bytes_be (Codec.read_bytes dec) in
  { n; e }

let fingerprint pub =
  let canonical = Codec.encode encode_public pub in
  String.sub (Worm_util.Hex.encode (Sha256.digest canonical)) 0 16

let equal_public a b = Nat.equal a.n b.n && Nat.equal a.e b.e
let pp_public fmt pub = Format.fprintf fmt "rsa-%d:%s" (Nat.bit_length pub.n) (fingerprint pub)
