(* Arithmetic laws and known values for the bignum substrate. The RSA
   layer is only as sound as these. *)

open Worm_crypto

let nat = Alcotest.testable (Fmt.of_to_string Nat.to_decimal) Nat.equal

(* Generator: random naturals up to ~600 bits, biased toward small and
   structured values. *)
let gen_nat =
  let open QCheck.Gen in
  let small = map Nat.of_int (int_bound 1_000_000) in
  let of_bits bits =
    map
      (fun s ->
        let rng = Drbg.create ~seed:s in
        Drbg.nat_bits rng bits)
      (string_size (return 8))
  in
  frequency [ (2, small); (1, of_bits 64); (2, of_bits 256); (2, of_bits 600); (1, return Nat.zero); (1, return Nat.one) ]

let arb_nat = QCheck.make ~print:Nat.to_decimal gen_nat
let arb_pair = QCheck.make ~print:(fun (a, b) -> Nat.to_decimal a ^ "," ^ Nat.to_decimal b) QCheck.Gen.(pair gen_nat gen_nat)
let arb_triple =
  QCheck.make
    ~print:(fun (a, b, c) -> String.concat "," (List.map Nat.to_decimal [ a; b; c ]))
    QCheck.Gen.(triple gen_nat gen_nat gen_nat)

let t name = QCheck.Test.make ~name ~count:200

let prop_add_comm = t "add commutative" arb_pair (fun (a, b) -> Nat.equal (Nat.add a b) (Nat.add b a))

let prop_add_assoc =
  t "add associative" arb_triple (fun (a, b, c) ->
      Nat.equal (Nat.add (Nat.add a b) c) (Nat.add a (Nat.add b c)))

let prop_mul_comm = t "mul commutative" arb_pair (fun (a, b) -> Nat.equal (Nat.mul a b) (Nat.mul b a))

let prop_mul_assoc =
  t "mul associative" arb_triple (fun (a, b, c) ->
      Nat.equal (Nat.mul (Nat.mul a b) c) (Nat.mul a (Nat.mul b c)))

let prop_distrib =
  t "mul distributes over add" arb_triple (fun (a, b, c) ->
      Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)))

let prop_add_sub = t "(a+b)-b = a" arb_pair (fun (a, b) -> Nat.equal (Nat.sub (Nat.add a b) b) a)

let prop_divmod =
  t "a = b*q + r with r < b" arb_pair (fun (a, b) ->
      QCheck.assume (not (Nat.is_zero b));
      let q, r = Nat.divmod a b in
      Nat.equal a (Nat.add (Nat.mul b q) r) && Nat.compare r b < 0)

let prop_shift_mul =
  t "shift_left k = mul 2^k" (QCheck.pair arb_nat (QCheck.int_bound 100)) (fun (a, k) ->
      Nat.equal (Nat.shift_left a k) (Nat.mul a (Nat.mod_pow ~base:Nat.two ~exp:(Nat.of_int k) ~modulus:(Nat.shift_left Nat.one 200))))

let prop_shift_inverse =
  t "shift right inverts shift left" (QCheck.pair arb_nat (QCheck.int_bound 100)) (fun (a, k) ->
      Nat.equal (Nat.shift_right (Nat.shift_left a k) k) a)

let prop_bytes_roundtrip = t "bytes roundtrip" arb_nat (fun a -> Nat.equal (Nat.of_bytes_be (Nat.to_bytes_be a)) a)

let prop_decimal_roundtrip = t "decimal roundtrip" arb_nat (fun a -> Nat.equal (Nat.of_decimal (Nat.to_decimal a)) a)

let prop_bit_length =
  t "2^(bits-1) <= a < 2^bits" arb_nat (fun a ->
      QCheck.assume (not (Nat.is_zero a));
      let bits = Nat.bit_length a in
      Nat.compare a (Nat.shift_left Nat.one bits) < 0
      && Nat.compare a (Nat.shift_left Nat.one (bits - 1)) >= 0)

let prop_mod_pow_agrees =
  (* Montgomery (odd modulus) agrees with repeated multiplication. *)
  t "mod_pow agrees with naive" (QCheck.triple arb_nat (QCheck.int_bound 40) arb_nat) (fun (base, e, m) ->
      QCheck.assume (Nat.compare m Nat.two > 0);
      let naive = ref (Nat.modulo Nat.one m) in
      for _ = 1 to e do
        naive := Nat.modulo (Nat.mul !naive base) m
      done;
      Nat.equal (Nat.mod_pow ~base ~exp:(Nat.of_int e) ~modulus:m) !naive)

let prop_mod_pow_homomorphism =
  (* exercises the windowed path (exponents > 128 bits): a^(e1+e2) must
     equal a^e1 * a^e2 under any odd modulus *)
  t "a^(e1+e2) = a^e1 * a^e2" arb_triple (fun (a, seed1, m) ->
      QCheck.assume (Nat.compare m Nat.two > 0 && not (Nat.is_even m));
      let rng = Drbg.create ~seed:(Nat.to_decimal seed1) in
      let e1 = Drbg.nat_bits rng 200 and e2 = Drbg.nat_bits rng 170 in
      let lhs = Nat.mod_pow ~base:a ~exp:(Nat.add e1 e2) ~modulus:m in
      let rhs = Nat.modulo (Nat.mul (Nat.mod_pow ~base:a ~exp:e1 ~modulus:m) (Nat.mod_pow ~base:a ~exp:e2 ~modulus:m)) m in
      Nat.equal lhs rhs)

(* RSA-shaped cases: odd moduli of exactly 512, 1024 and 2048 bits, with
   the exponents and bases signing and verification meet — full-width
   and e = 65537 exponents; double-width bases (a CRT half's input);
   bases 0, 1, m-1, m and k*m; and a base wider than 2 moduli, which
   takes the division path. 2048-bit cases keep exponents to 160 bits:
   the oracle's shift-and-subtract division makes a full-width one
   cost seconds. *)
let gen_rsa_shape =
  let open QCheck.Gen in
  let* bits = oneofl [ 512; 1024; 2048 ] in
  let* seed = string_size (return 8) in
  let* base_kind = int_bound 7 in
  let* exp_kind = int_bound 2 in
  let rng = Drbg.create ~seed in
  let exact b = Nat.add (Nat.shift_left Nat.one (b - 1)) (Drbg.nat_bits rng (b - 1)) in
  let m = exact bits in
  let m = if Nat.is_even m then Nat.succ m else m in
  let base =
    match base_kind with
    | 0 -> Drbg.nat_below rng m
    | 1 -> Drbg.nat_bits rng (2 * bits)
    | 2 -> Nat.zero
    | 3 -> Nat.one
    | 4 -> Nat.pred m
    | 5 -> m
    | 6 -> Nat.mul m (Nat.of_int (2 + Drbg.int_below rng 1_000_000))
    | _ -> Drbg.nat_bits rng (3 * bits)
  in
  let exp =
    match exp_kind with
    | 0 -> if bits = 2048 then Drbg.nat_bits rng 160 else exact bits
    | 1 -> Nat.of_int 65537
    | _ -> Drbg.nat_bits rng 64
  in
  return (base, exp, m)

(* Short exponents, which take the binary path that starts from the
   base rather than from one: 0-3, 65537 and random 2-128-bit ones, on
   odd moduli of exactly 1, 2 and 38 limbs (38 holds RSA-1024). *)
let gen_short_exp =
  let open QCheck.Gen in
  let* limbs = oneofl [ 1; 2; 38 ] in
  let* seed = string_size (return 8) in
  let rng = Drbg.create ~seed in
  let exact b = Nat.add (Nat.shift_left Nat.one (b - 1)) (Drbg.nat_bits rng (b - 1)) in
  let m = exact ((27 * (limbs - 1)) + 2 + Drbg.int_below rng 26) in
  let* exp = oneofl (exact (2 + Drbg.int_below rng 127) :: List.map Nat.of_int [ 0; 1; 2; 3; 65537 ]) in
  return (Drbg.nat_below rng m, exp, if Nat.is_even m then Nat.succ m else m)

let prop_ctx_agrees_generic =
  (* The Montgomery kernel must agree with the reference
     square-and-multiply on random odd moduli of mixed widths, on
     RSA-shaped moduli, exponents and bases, and on short exponents. *)
  let arb =
    QCheck.make
      ~print:(fun (a, b, c) -> String.concat "," (List.map Nat.to_decimal [ a; b; c ]))
      QCheck.Gen.(frequency [ (7, triple gen_nat gen_nat gen_nat); (1, gen_rsa_shape); (2, gen_short_exp) ])
  in
  t "mod_pow_ctx agrees with mod_pow_generic" arb (fun (base, exp, m) ->
      QCheck.assume (Nat.compare m Nat.two > 0 && not (Nat.is_even m));
      let ctx = Nat.mont_init m in
      Nat.equal (Nat.mod_pow_ctx ctx ~base ~exp) (Nat.mod_pow_generic ~base ~exp ~modulus:m))

let prop_mod_mul =
  (* [a] up to twice the modulus width and beyond, [b] up to and past it. *)
  let wide = QCheck.Gen.(map2 (fun a b -> Nat.add (Nat.shift_left a 600) b) gen_nat gen_nat) in
  let arb =
    QCheck.make
      ~print:(fun (a, b, c) -> String.concat "," (List.map Nat.to_decimal [ a; b; c ]))
      QCheck.Gen.(triple (frequency [ (3, gen_nat); (1, wide) ]) (frequency [ (3, gen_nat); (1, wide) ]) gen_nat)
  in
  t "mod_mul agrees with modulo (mul a b)" arb (fun (a, b, m) ->
      QCheck.assume (Nat.compare m Nat.two > 0 && not (Nat.is_even m));
      Nat.equal (Nat.mod_mul (Nat.mont_init m) a b) (Nat.modulo (Nat.mul a b) m))

let prop_rem_int =
  let gen_d =
    QCheck.Gen.(
      frequency
        [
          (3, int_range 1 256);
          (2, int_range 1 (1 lsl 32));
          (1, oneofl [ 1; 2; (1 lsl 27) - 1; 1 lsl 27; (1 lsl 27) + 1; (1 lsl 32) - 1; 1 lsl 32 ]);
        ])
  in
  t "rem_int agrees with modulo"
    (QCheck.make ~print:(fun (a, d) -> Nat.to_decimal a ^ "," ^ string_of_int d) QCheck.Gen.(pair gen_nat gen_d))
    (fun (a, d) -> Nat.rem_int a d = Nat.to_int (Nat.modulo a (Nat.of_int d)))

(* Bit-by-bit reference encoding, independent of the limb walk. *)
let ref_to_bytes_be a =
  let n = (Nat.bit_length a + 7) / 8 in
  String.init n (fun i ->
      let lo = (n - 1 - i) * 8 in
      let v = ref 0 in
      for b = 7 downto 0 do
        v := (!v lsl 1) lor if Nat.test_bit a (lo + b) then 1 else 0
      done;
      Char.chr !v)

let prop_bytes_limb_boundaries =
  (* Values exactly 27k-1, 27k and 27k+1 bits wide: a byte straddles a
     limb boundary at every width that is not a multiple of 8. *)
  let gen =
    QCheck.Gen.(
      let* k = int_range 1 80 in
      let* delta = int_range (-1) 1 in
      let* seed = string_size (return 8) in
      let bits = (27 * k) + delta in
      let rng = Drbg.create ~seed in
      return (Nat.add (Nat.shift_left Nat.one (bits - 1)) (Drbg.nat_bits rng (bits - 1))))
  in
  t "to_bytes_be at limb boundaries" (QCheck.make ~print:Nat.to_decimal gen) (fun a ->
      let s = Nat.to_bytes_be a in
      let len = String.length s + 3 in
      String.equal s (ref_to_bytes_be a)
      && Nat.equal (Nat.of_bytes_be s) a
      && String.equal (Nat.to_bytes_be_padded ~len a) ("\000\000\000" ^ s))

(* The kernel folds a column sum every 64 product pairs. Without the
   fold, a column of an n-limb multiply (up to n operand products and n
   reduction products, each below 2^54) passes max_int above ~120 limbs
   and overflows the 63-bit word altogether a few hundred limbs later.
   The inputs make columns as large as they get: m = R - r for a small
   odd r is all ones above its two lowest limbs; the base is chosen so its Montgomery form is
   m - 1, all ones too; and the reduction digits, which follow r^-1 mod
   R, come out full-width. One modulus sits at the ~120-limb bound and
   one, at 400 limbs, is far enough above it that an unfolded column
   overflows the word. *)
let test_column_bound () =
  let r = Nat.of_int 0xB7E151628AED in
  List.iter
    (fun limbs ->
      let m = Nat.sub (Nat.shift_left Nat.one (27 * limbs)) r in
      let base = match Nat.mod_inverse r m with Some r_inv -> Nat.sub m r_inv | None -> assert false in
      let ctx = Nat.mont_init m in
      List.iter
        (fun e ->
          let exp = Nat.of_int e in
          Alcotest.check nat
            (Printf.sprintf "%d limbs, exponent %d" limbs e)
            (Nat.mod_pow_generic ~base ~exp ~modulus:m)
            (Nat.mod_pow_ctx ctx ~base ~exp))
        [ 2; 5 ];
      Alcotest.check nat
        (Printf.sprintf "%d limbs, mod_mul" limbs)
        (Nat.modulo (Nat.mul base base) m)
        (Nat.mod_mul ctx base base))
    [ 120; 400 ]

let prop_ctx_reuse =
  (* One cached context across many exponentiations: scratch-buffer
     reuse must not leak state between calls. *)
  t "context reuse is stateless" arb_pair (fun (m, seed) ->
      QCheck.assume (Nat.compare m Nat.two > 0 && not (Nat.is_even m));
      let ctx = Nat.mont_init m in
      let rng = Drbg.create ~seed:(Nat.to_decimal seed) in
      List.for_all
        (fun _ ->
          let base = Drbg.nat_bits rng 300 and exp = Drbg.nat_bits rng 80 in
          Nat.equal (Nat.mod_pow_ctx ctx ~base ~exp) (Nat.mod_pow_generic ~base ~exp ~modulus:m))
        [ (); (); (); () ])

let test_mont_ctx () =
  Alcotest.check_raises "mont_init even" (Invalid_argument "Nat.mont_init: modulus must be odd")
    (fun () -> ignore (Nat.mont_init (Nat.of_int 10)));
  Alcotest.check_raises "mont_init zero" (Invalid_argument "Nat.mont_init: modulus must be odd")
    (fun () -> ignore (Nat.mont_init Nat.zero));
  let m = Nat.of_int 1_000_000_007 in
  let ctx = Nat.mont_init m in
  Alcotest.check nat "mont_modulus" m (Nat.mont_modulus ctx);
  Alcotest.check nat "ctx mod_pow known" (Nat.of_int 976371285)
    (Nat.mod_pow_ctx ctx ~base:Nat.two ~exp:(Nat.of_int 100));
  Alcotest.check nat "ctx base multiple of m" Nat.zero
    (Nat.mod_pow_ctx ctx ~base:(Nat.mul m (Nat.of_int 7)) ~exp:(Nat.of_int 5));
  Alcotest.check nat "ctx zero exponent" Nat.one (Nat.mod_pow_ctx ctx ~base:(Nat.of_int 42) ~exp:Nat.zero)

let prop_mod_inverse =
  t "mod_inverse correct" arb_pair (fun (a, m) ->
      QCheck.assume (Nat.compare m Nat.two > 0);
      match Nat.mod_inverse a m with
      | Some x -> Nat.equal (Nat.modulo (Nat.mul (Nat.modulo a m) x) m) Nat.one
      | None -> not (Nat.is_one (Nat.gcd a m)))

let prop_gcd_divides =
  t "gcd divides both" arb_pair (fun (a, b) ->
      QCheck.assume (not (Nat.is_zero a) || not (Nat.is_zero b));
      let g = Nat.gcd a b in
      QCheck.assume (not (Nat.is_zero g));
      Nat.is_zero (Nat.modulo a g) && Nat.is_zero (Nat.modulo b g))

let test_known_values () =
  Alcotest.check nat "small mul" (Nat.of_int 1_000_000) (Nat.mul (Nat.of_int 1000) (Nat.of_int 1000));
  let a = Nat.of_decimal "340282366920938463463374607431768211456" (* 2^128 *) in
  Alcotest.check nat "2^128" a (Nat.shift_left Nat.one 128);
  Alcotest.(check int) "bit_length 2^128" 129 (Nat.bit_length a);
  Alcotest.check nat "pred/succ" a (Nat.succ (Nat.pred a));
  (* 2^100 mod (1e9+7) *)
  Alcotest.check nat "mod_pow known" (Nat.of_int 976371285)
    (Nat.mod_pow ~base:Nat.two ~exp:(Nat.of_int 100) ~modulus:(Nat.of_int 1_000_000_007));
  (* even modulus path *)
  Alcotest.check nat "mod_pow even modulus" (Nat.of_int 743)
    (Nat.mod_pow ~base:(Nat.of_int 7) ~exp:(Nat.of_int 11) ~modulus:(Nat.of_int 1000));
  (* Fermat: 3^(p-1) = 1 mod p for prime p = 2^61-1 *)
  let p = Nat.of_decimal "2305843009213693951" in
  Alcotest.check nat "fermat M61" Nat.one (Nat.mod_pow ~base:(Nat.of_int 3) ~exp:(Nat.pred p) ~modulus:p)

let test_edge_cases () =
  Alcotest.(check bool) "zero is zero" true (Nat.is_zero Nat.zero);
  Alcotest.(check int) "bit_length zero" 0 (Nat.bit_length Nat.zero);
  Alcotest.check nat "zero bytes" Nat.zero (Nat.of_bytes_be "");
  Alcotest.check nat "leading zero bytes" (Nat.of_int 258) (Nat.of_bytes_be "\x00\x00\x01\x02");
  Alcotest.(check string) "to_bytes zero" "" (Nat.to_bytes_be Nat.zero);
  Alcotest.(check string) "padded" "\x00\x00\x01\x02" (Nat.to_bytes_be_padded ~len:4 (Nat.of_int 258));
  Alcotest.check_raises "padding too small" (Invalid_argument "Nat.to_bytes_be_padded: value too large")
    (fun () -> ignore (Nat.to_bytes_be_padded ~len:1 (Nat.of_int 258)));
  Alcotest.check_raises "negative of_int" (Invalid_argument "Nat.of_int: negative") (fun () ->
      ignore (Nat.of_int (-1)));
  Alcotest.check_raises "sub underflow" (Invalid_argument "Nat.sub: negative result") (fun () ->
      ignore (Nat.sub Nat.one Nat.two));
  (match Nat.divmod Nat.one Nat.zero with
  | exception Division_by_zero -> ()
  | _ -> Alcotest.fail "divide by zero accepted");
  Alcotest.(check (option int)) "to_int_opt big" None (Nat.to_int_opt (Nat.shift_left Nat.one 80));
  Alcotest.(check (option int)) "to_int_opt max" (Some max_int) (Nat.to_int_opt (Nat.of_int max_int));
  Alcotest.check nat "modulo by one" Nat.zero (Nat.modulo (Nat.of_int 12345) Nat.one)

let suite =
  [
    ("known values", `Quick, test_known_values);
    ("edge cases", `Quick, test_edge_cases);
    QCheck_alcotest.to_alcotest prop_add_comm;
    QCheck_alcotest.to_alcotest prop_add_assoc;
    QCheck_alcotest.to_alcotest prop_mul_comm;
    QCheck_alcotest.to_alcotest prop_mul_assoc;
    QCheck_alcotest.to_alcotest prop_distrib;
    QCheck_alcotest.to_alcotest prop_add_sub;
    QCheck_alcotest.to_alcotest prop_divmod;
    QCheck_alcotest.to_alcotest prop_shift_mul;
    QCheck_alcotest.to_alcotest prop_shift_inverse;
    QCheck_alcotest.to_alcotest prop_bytes_roundtrip;
    QCheck_alcotest.to_alcotest prop_decimal_roundtrip;
    QCheck_alcotest.to_alcotest prop_bit_length;
    QCheck_alcotest.to_alcotest prop_mod_pow_agrees;
    QCheck_alcotest.to_alcotest prop_mod_pow_homomorphism;
    ("montgomery context", `Quick, test_mont_ctx);
    QCheck_alcotest.to_alcotest prop_ctx_agrees_generic;
    QCheck_alcotest.to_alcotest prop_ctx_reuse;
    QCheck_alcotest.to_alcotest prop_mod_mul;
    QCheck_alcotest.to_alcotest prop_rem_int;
    QCheck_alcotest.to_alcotest prop_bytes_limb_boundaries;
    ("column bound", `Quick, test_column_bound);
    QCheck_alcotest.to_alcotest prop_mod_inverse;
    QCheck_alcotest.to_alcotest prop_gcd_divides;
  ]

let () = Alcotest.run "worm_nat" [ ("nat", suite) ]
