(* Little-endian arrays of limbs in base 2^27. The invariant throughout is
   that values are canonical: the top limb is nonzero (zero is [||]).
   Base 2^27 keeps a limb product below 2^54, so the Montgomery kernel
   below can sum a whole column of products in one 63-bit native int
   before splitting off its carry (see "Column bound"). *)

type t = int array

let base_bits = 27
let base_mask = 0x7FFFFFF

let zero : t = [||]
let is_zero (a : t) = Array.length a = 0

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int v =
  if v < 0 then invalid_arg "Nat.of_int: negative";
  if v = 0 then zero
  else begin
    let rec limbs acc v = if v = 0 then List.rev acc else limbs ((v land base_mask) :: acc) (v lsr base_bits) in
    Array.of_list (limbs [] v)
  end

let one = of_int 1
let two = of_int 2

let to_int_opt (a : t) =
  (* max_int is 62 bits: at most three limbs with an 8-bit top limb. *)
  let n = Array.length a in
  if n = 0 then Some 0
  else if n > 3 then None
  else begin
    let v = ref 0 and ok = ref true in
    for i = n - 1 downto 0 do
      if !v > max_int lsr base_bits then ok := false
      else begin
        let shifted = !v lsl base_bits in
        if shifted > max_int - a.(i) || shifted < 0 then ok := false else v := shifted lor a.(i)
      end
    done;
    if !ok then Some !v else None
  end

let to_int a =
  match to_int_opt a with
  | Some v -> v
  | None -> invalid_arg "Nat.to_int: overflow"

let is_one a = Array.length a = 1 && a.(0) = 1
let is_even a = Array.length a = 0 || a.(0) land 1 = 0

let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let ai = if i < la then a.(i) else 0 in
    let bi = if i < lb then b.(i) else 0 in
    let s = ai + bi + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  r.(n) <- !carry;
  normalize r

let succ a = add a one

let sub (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if compare a b < 0 then invalid_arg "Nat.sub: negative result";
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bi = if i < lb then b.(i) else 0 in
    let d = a.(i) - bi - !borrow in
    if d < 0 then begin
      r.(i) <- d + base_mask + 1;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let pred a = sub a one

let mul (a : t) (b : t) : t =
  if is_zero a || is_zero b then zero
  else begin
    let la = Array.length a and lb = Array.length b in
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let x = (ai * b.(j)) + r.(i + j) + !carry in
          r.(i + j) <- x land base_mask;
          carry := x lsr base_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let x = r.(!k) + !carry in
          r.(!k) <- x land base_mask;
          carry := x lsr base_bits;
          incr k
        done
      end
    done;
    normalize r
  end

let bit_length (a : t) =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((n - 1) * base_bits) + width top 0
  end

let test_bit (a : t) i =
  if i < 0 then invalid_arg "Nat.test_bit: negative index";
  let limb = i / base_bits in
  limb < Array.length a && (a.(limb) lsr (i mod base_bits)) land 1 = 1

let shift_left (a : t) k =
  if k < 0 then invalid_arg "Nat.shift_left: negative shift";
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / base_bits and bits = k mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if bits = 0 then Array.blit a 0 r limbs la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let x = (a.(i) lsl bits) lor !carry in
        r.(i + limbs) <- x land base_mask;
        carry := x lsr base_bits
      done;
      r.(la + limbs) <- !carry
    end;
    normalize r
  end

let shift_right (a : t) k =
  if k < 0 then invalid_arg "Nat.shift_right: negative shift";
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / base_bits and bits = k mod base_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let n = la - limbs in
      let r = Array.make n 0 in
      if bits = 0 then Array.blit a limbs r 0 n
      else begin
        for i = 0 to n - 1 do
          let lo = a.(i + limbs) lsr bits in
          let hi = if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (base_bits - bits)) land base_mask else 0 in
          r.(i) <- lo lor hi
        done
      end;
      normalize r
    end
  end

(* Shift-and-subtract long division: O(bits(a) * limbs) — plenty for key
   sizes up to a few thousand bits, and only exercised outside the
   Montgomery fast path. *)
let divmod (a : t) (b : t) =
  if is_zero b then raise Division_by_zero;
  let c = compare a b in
  if c < 0 then (zero, a)
  else if c = 0 then (one, zero)
  else begin
    let shift = bit_length a - bit_length b in
    let qlimbs = (shift / base_bits) + 1 in
    let q = Array.make qlimbs 0 in
    let r = ref a in
    let d = ref (shift_left b shift) in
    for i = shift downto 0 do
      if compare !r !d >= 0 then begin
        r := sub !r !d;
        q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
      end;
      d := shift_right !d 1
    done;
    (normalize q, !r)
  end

let modulo a b = snd (divmod a b)

(* Horner over the limbs, most significant first: r < d <= 2^32 keeps
   r * 2^27 + limb below 2^60. *)
let rem_int (a : t) d =
  if d <= 0 || d > 1 lsl 32 then invalid_arg "Nat.rem_int: divisor out of range";
  let r = ref 0 in
  for i = Array.length a - 1 downto 0 do
    r := ((!r lsl base_bits) lor a.(i)) mod d
  done;
  !r

let rec gcd a b = if is_zero b then a else gcd b (modulo a b)

(* Signed values for the extended Euclid coefficient: (negative?, magnitude). *)
let s_sub (an, a) (bn, b) =
  match (an, bn) with
  | false, true -> (false, add a b)
  | true, false -> (true, add a b)
  | false, false -> if compare a b >= 0 then (false, sub a b) else (true, sub b a)
  | true, true -> if compare b a >= 0 then (false, sub b a) else (true, sub a b)

let mod_inverse a m =
  if is_zero m then invalid_arg "Nat.mod_inverse: zero modulus";
  if is_one m then Some zero
  else begin
    let a = modulo a m in
    (* Invariant: r_i = (coefficient of original a) kept in s_i, mod m. *)
    let rec go r0 r1 s0 s1 =
      if is_zero r1 then
        if is_one r0 then begin
          let neg, mag = s0 in
          let mag = modulo mag m in
          Some (if neg && not (is_zero mag) then sub m mag else mag)
        end
        else None
      else begin
        let q, r2 = divmod r0 r1 in
        let neg1, mag1 = s1 in
        let s2 = s_sub s0 (neg1, mul mag1 q) in
        go r1 r2 s1 s2
      end
    in
    go m a (false, zero) (false, one)
  end

(* Montgomery arithmetic for odd moduli, in product-scanning (FIPS)
   form. Values inside the domain are fixed-width [limbs]-length arrays
   (< m, not canonicalized). [mont_mul] produces a*b/R mod m one column
   at a time: column k sums every operand product a_i*b_j and every
   reduction product u_i*m_j with i + j = k, so the carry is split off
   once per column instead of once per product. Squaring is the same
   multiply: a dedicated squaring skips a quarter of the products but
   needs a second triangular loop per column, and at RSA sizes the loop
   overhead costs more than the products it saves.

   Column bound. A limb product is below 2^54, and a column of an
   n-limb multiply holds up to 2n of them plus the carry in. Held in one
   native int, that passes max_int once n reaches about 120 limbs
   (~3,200-bit moduli). So a column sum is kept as t + c*2^27, and t is
   folded into c after every [fold] = 64 inner-loop steps. A step adds
   two limb products, so between folds t grows by less than
   128 * 2^54 = 2^61 and stays below 2^62 whatever the modulus width.
   At RSA sizes (19 limbs for a 512-bit CRT prime, 38 for a 1024-bit
   modulus, 76 for 2048) a column has at most one fold.

   A context carries the reduction digits [u] as scratch, so it is NOT
   reentrant: one operation at a time per context ([mont_clone] gives
   each domain its own). *)
type mont = {
  m : t;  (* modulus, canonical: exactly [limbs] limbs, top nonzero *)
  n0' : int;  (* -m^-1 mod 2^27 *)
  r2 : int array;  (* R^2 mod m, fixed width *)
  one_m : int array;  (* R mod m: Montgomery form of 1, fixed width *)
  limbs : int;
  u : int array;  (* reduction digits of the product in flight *)
}

let mont_modulus ctx = ctx.m

(* Fresh scratch over the same precomputed constants: one allocation,
   so a shared context cache can hand each domain its own clone. *)
let mont_clone ctx = { ctx with u = Array.make ctx.limbs 0 }

let fold = 64

(* x <- x - m when top*R + x >= m, for a value below 2m held as [limbs]
   limbs plus a top limb of 0 or 1. *)
let sub_if_ge ctx (x : int array) top =
  let m = ctx.m in
  let i = ref (ctx.limbs - 1) in
  while !i > 0 && x.(!i) = m.(!i) do
    decr i
  done;
  if top > 0 || x.(!i) >= m.(!i) then begin
    let borrow = ref 0 in
    for i = 0 to ctx.limbs - 1 do
      let d = x.(i) - m.(i) - !borrow in
      x.(i) <- d land base_mask;
      borrow := (d asr base_bits) land 1
    done
  end

(* dst <- a + b mod m, for a, b < m. *)
let mod_add ctx (dst : int array) (a : int array) (b : int array) =
  let c = ref 0 in
  for i = 0 to ctx.limbs - 1 do
    let s = a.(i) + b.(i) + !c in
    dst.(i) <- s land base_mask;
    c := s lsr base_bits
  done;
  sub_if_ge ctx dst !c

(* dst <- a*b/R mod m, for a < R and b < m (or the other way round), so
   the column sums end below 2m and one subtraction finishes. Column k
   >= n writes limb k - n of dst after its last read of a and b below
   index k - n + 1, so dst may alias either operand (squaring passes
   the same array three times). Columns of more than [fold] pairs fold
   t into c between segments; shorter ones, every column at RSA sizes,
   run one loop with no fold. *)
let mont_mul ctx (dst : int array) (a : int array) (b : int array) =
  let n = ctx.limbs and m = ctx.m and u = ctx.u in
  let t = ref 0 and c = ref 0 in
  for k = 0 to (2 * n) - 1 do
    let hi = if k < n then k else n in
    let i = ref (if k < n then 0 else k - n + 1) in
    while hi - !i > fold do
      for j = !i to !i + fold - 1 do
        t :=
          !t
          + (Array.unsafe_get a j * Array.unsafe_get b (k - j))
          + (Array.unsafe_get u j * Array.unsafe_get m (k - j))
      done;
      c := !c + (!t lsr base_bits);
      t := !t land base_mask;
      i := !i + fold
    done;
    for j = !i to hi - 1 do
      t :=
        !t
        + (Array.unsafe_get a j * Array.unsafe_get b (k - j))
        + (Array.unsafe_get u j * Array.unsafe_get m (k - j))
    done;
    if k < n then begin
      t := !t + (Array.unsafe_get a k * Array.unsafe_get b 0);
      let uk = (!t * ctx.n0') land base_mask in
      Array.unsafe_set u k uk;
      t := !t + (uk * Array.unsafe_get m 0)
    end
    else Array.unsafe_set dst (k - n) (!t land base_mask);
    t := (!t lsr base_bits) + !c;
    c := 0
  done;
  sub_if_ge ctx dst !t

(* acc <- base_m^exp, both in Montgomery form; acc must not alias
   base_m. Fixed 4-bit windows: 4 squarings plus at most one table
   multiply per window, a ~17% multiply saving over binary
   square-and-multiply at RSA sizes. The 16-entry table costs 14 extra
   multiplies up front, well repaid beyond ~128-bit exponents; short
   exponents take the binary path. *)
let mont_pow ctx (acc : int array) (base_m : int array) exp =
  let n = ctx.limbs in
  let nbits = bit_length exp in
  if nbits = 0 then Array.blit ctx.one_m 0 acc 0 n
  else if nbits <= 128 then begin
    (* Start at the top bit, base_m itself: squaring and multiplying
       one_m into it gives the same limbs. e = 65537 takes 17 multiplies. *)
    Array.blit base_m 0 acc 0 n;
    for i = nbits - 2 downto 0 do
      mont_mul ctx acc acc acc;
      if test_bit exp i then mont_mul ctx acc acc base_m
    done
  end
  else begin
    let table = Array.init 16 (fun _ -> Array.make n 0) in
    Array.blit ctx.one_m 0 table.(0) 0 n;
    Array.blit base_m 0 table.(1) 0 n;
    for i = 2 to 15 do
      mont_mul ctx table.(i) table.(i - 1) base_m
    done;
    let windows = (nbits + 3) / 4 in
    let window_value w =
      let lo = 4 * w in
      let v = ref 0 in
      for b = 3 downto 0 do
        v := (!v lsl 1) lor if test_bit exp (lo + b) then 1 else 0
      done;
      !v
    in
    Array.blit table.(window_value (windows - 1)) 0 acc 0 n;
    for w = windows - 2 downto 0 do
      mont_mul ctx acc acc acc;
      mont_mul ctx acc acc acc;
      mont_mul ctx acc acc acc;
      mont_mul ctx acc acc acc;
      let v = window_value w in
      if v > 0 then mont_mul ctx acc acc table.(v)
    done
  end

let mont_init (m : t) =
  if is_zero m || is_even m then invalid_arg "Nat.mont_init: modulus must be odd";
  let limbs = Array.length m in
  let m0 = m.(0) in
  (* Hensel lifting: five Newton steps take a 1-bit inverse to >= 32 bits. *)
  let inv = ref 1 in
  for _ = 1 to 5 do
    inv := (!inv * (2 - (m0 * !inv))) land base_mask
  done;
  let n0' = (base_mask + 1 - !inv) land base_mask in
  (* R has at most 27 bits more than m, so R mod m is a short division. *)
  let r_mod_m = modulo (shift_left one (base_bits * limbs)) m in
  let one_m = Array.make limbs 0 in
  Array.blit r_mod_m 0 one_m 0 (Array.length r_mod_m);
  let ctx = { m; n0'; r2 = one_m; one_m; limbs; u = Array.make limbs 0 } in
  (* R^2 mod m is the Montgomery form of 2^(27 limbs): raise the
     Montgomery form of 2 to that power, a dozen or so multiplies
     instead of a double-width long division. *)
  let two_m = Array.make limbs 0 and r2 = Array.make limbs 0 in
  mod_add ctx two_m one_m one_m;
  mont_pow ctx r2 two_m (of_int (base_bits * limbs));
  { ctx with r2 }

(* dst <- v*R mod m, the Montgomery form of any natural v. *)
let rec load ctx (dst : int array) (v : t) =
  let n = ctx.limbs and len = Array.length v in
  if len > 2 * n then load ctx dst (modulo v ctx.m)
  else begin
    let lo = Array.make n 0 in
    Array.blit v 0 lo 0 (min len n);
    if len <= n then mont_mul ctx dst lo ctx.r2
    else begin
      (* v = hi*R + lo, as when a CRT half folds a message below p*q
         into p's domain: v*R = (hi*R)*R + lo*R. *)
      let hi = Array.make n 0 in
      Array.blit v n hi 0 (len - n);
      mont_mul ctx hi hi ctx.r2;
      mont_mul ctx hi hi ctx.r2;
      mont_mul ctx dst lo ctx.r2;
      mod_add ctx dst dst hi
    end
  end

let mod_pow_ctx ctx ~base ~exp =
  let n = ctx.limbs in
  let base_m = Array.make n 0 and acc = Array.make n 0 in
  load ctx base_m base;
  mont_pow ctx acc base_m exp;
  (* out of Montgomery form: acc * 1 / R *)
  let one_plain = Array.make n 0 in
  one_plain.(0) <- 1;
  mont_mul ctx acc acc one_plain;
  normalize acc

let mod_mul ctx a b =
  let n = ctx.limbs in
  let x = Array.make n 0 and y = Array.make n 0 in
  load ctx x a;
  let b = if Array.length b > n then modulo b ctx.m else b in
  Array.blit b 0 y 0 (Array.length b);
  (* (a*R) * b / R *)
  mont_mul ctx x x y;
  normalize x

let mod_pow_generic ~base ~exp ~modulus =
  let base = modulo base modulus in
  let acc = ref (modulo one modulus) in
  for i = bit_length exp - 1 downto 0 do
    acc := modulo (mul !acc !acc) modulus;
    if test_bit exp i then acc := modulo (mul !acc base) modulus
  done;
  !acc

let mod_pow ~base ~exp ~modulus =
  if is_zero modulus then raise Division_by_zero;
  if is_one modulus then zero
  else if is_even modulus then mod_pow_generic ~base ~exp ~modulus
  else mod_pow_ctx (mont_init modulus) ~base ~exp

let of_bytes_be s =
  let n = String.length s in
  if n = 0 then zero
  else begin
    (* Pack 8-bit bytes directly into 27-bit limbs. *)
    let total_bits = n * 8 in
    let limbs = ((total_bits + base_bits - 1) / base_bits) in
    let r = Array.make limbs 0 in
    for i = 0 to n - 1 do
      let byte = Char.code s.[n - 1 - i] in
      let bit = i * 8 in
      let limb = bit / base_bits and off = bit mod base_bits in
      r.(limb) <- r.(limb) lor ((byte lsl off) land base_mask);
      if off > base_bits - 8 && limb + 1 < limbs then r.(limb + 1) <- r.(limb + 1) lor (byte lsr (base_bits - off))
    done;
    normalize r
  end

(* Byte k from the least significant end is bits 8k .. 8k+7, read
   from at most two neighbouring limbs. *)
let to_bytes_be_padded ~len a =
  let nbytes = (bit_length a + 7) / 8 in
  if nbytes > len then invalid_arg "Nat.to_bytes_be_padded: value too large";
  let out = Bytes.make len '\000' in
  let la = Array.length a in
  for k = 0 to nbytes - 1 do
    let limb = 8 * k / base_bits and off = 8 * k mod base_bits in
    let v = a.(limb) lsr off in
    let v = if off > base_bits - 8 && limb + 1 < la then v lor (a.(limb + 1) lsl (base_bits - off)) else v in
    Bytes.unsafe_set out (len - 1 - k) (Char.unsafe_chr (v land 0xff))
  done;
  Bytes.unsafe_to_string out

let to_bytes_be a = to_bytes_be_padded ~len:((bit_length a + 7) / 8) a

let of_decimal s =
  if String.length s = 0 then invalid_arg "Nat.of_decimal: empty";
  let acc = ref zero in
  let ten = of_int 10 in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' -> acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
      | _ -> invalid_arg "Nat.of_decimal: non-digit")
    s;
  !acc

let to_decimal a =
  if is_zero a then "0"
  else begin
    let chunk = of_int 1_000_000_000 in
    let rec go a acc =
      if is_zero a then acc
      else begin
        let q, r = divmod a chunk in
        let digits = to_int r in
        if is_zero q then string_of_int digits :: acc else go q (Printf.sprintf "%09d" digits :: acc)
      end
    in
    String.concat "" (go a [])
  end
