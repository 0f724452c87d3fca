type t = string

let empty = Sha256.digest "worm:chained-hash:init"

(* Each link hashes [prev || be64(len) || block]: the length delimiter
   keeps [add] injective on block sequences. The block bytes are fed
   straight from the caller's buffer ([feed_sub]) — no per-record
   concatenation or substring copies. *)

let link t s pos len =
  let ctx = Sha256.init () in
  Sha256.feed ctx t;
  let lenb = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set lenb i (Char.chr ((len lsr (8 * (7 - i))) land 0xff))
  done;
  Sha256.feed ctx (Bytes.unsafe_to_string lenb);
  Sha256.feed_sub ctx s ~pos ~len;
  Sha256.get ctx

let add t block = link t block 0 (String.length block)

let add_sub t s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Chained_hash.add_sub: out of bounds";
  link t s pos len

let of_blocks blocks = List.fold_left add empty blocks
let value t = t
let equal (a : t) (b : t) = Worm_util.Ct.equal a b
