type t = { mutable k : string; mutable v : string }

let hmac = Hmac.sha256

let update t data =
  t.k <- Hmac.sha256_parts ~key:t.k [ t.v; "\x00"; data ];
  t.v <- hmac ~key:t.k t.v;
  if String.length data > 0 then begin
    t.k <- Hmac.sha256_parts ~key:t.k [ t.v; "\x01"; data ];
    t.v <- hmac ~key:t.k t.v
  end

let create ~seed =
  let t = { k = String.make 32 '\x00'; v = String.make 32 '\x01' } in
  update t seed;
  t

let generate t n =
  let buf = Buffer.create n in
  while Buffer.length buf < n do
    t.v <- hmac ~key:t.k t.v;
    Buffer.add_string buf t.v
  done;
  update t "";
  String.sub (Buffer.contents buf) 0 n

let byte t = Char.code (generate t 1).[0]

let uint64 t =
  let s = generate t 8 in
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[i]))
  done;
  !v

let int_below t bound =
  if bound <= 0 then invalid_arg "Drbg.int_below: non-positive bound";
  (* Rejection sampling over 62-bit draws keeps the result unbiased. *)
  let limit = max_int - (max_int mod bound) in
  let rec draw () =
    let v = Int64.to_int (Int64.shift_right_logical (uint64 t) 2) in
    if v < limit then v mod bound else draw ()
  in
  draw ()

let nat_bits t bits =
  if bits < 0 then invalid_arg "Drbg.nat_bits: negative";
  if bits = 0 then Nat.zero
  else begin
    let nbytes = (bits + 7) / 8 in
    let s = Bytes.of_string (generate t nbytes) in
    let extra = (nbytes * 8) - bits in
    if extra > 0 then Bytes.set s 0 (Char.chr (Char.code (Bytes.get s 0) land (0xff lsr extra)));
    Nat.of_bytes_be (Bytes.unsafe_to_string s)
  end

let nat_below t bound =
  if Nat.is_zero bound then invalid_arg "Drbg.nat_below: zero bound";
  let bits = Nat.bit_length bound in
  let rec draw () =
    let v = nat_bits t bits in
    if Nat.compare v bound < 0 then v else draw ()
  in
  draw ()

let split t ~label =
  let seed = generate t 32 ^ "|split|" ^ label in
  create ~seed
