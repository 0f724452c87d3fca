(* Wire core. The encoder is a growable preallocated [Bytes] written
   with unsafe big-endian word stores (the sha256.ml playbook: bounds
   are established once by [ensure], then the word primitives skip the
   per-byte checks); the decoder reads whole words the same way.
   Encodings are canonical and signed — the byte
   format here must stay bit-identical to test/support/ref_codec.ml,
   the retained seed codec that the tests compare against. *)

type encoder = { mutable buf : Bytes.t; mutable len : int }

external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external get16u : string -> int -> int = "%caml_string_get16u"
external get32u : string -> int -> int32 = "%caml_string_get32u"
external get64u : string -> int -> int64 = "%caml_string_get64u"
external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

let be16 v = if Sys.big_endian then v else swap16 v
let be32 v = if Sys.big_endian then v else swap32 v
let be64 v = if Sys.big_endian then v else swap64 v
let initial_capacity = 256
let make () = { buf = Bytes.create initial_capacity; len = 0 }
let encoder () = make ()
let length e = e.len
let to_string e = Bytes.sub_string e.buf 0 e.len

let grow e need =
  let cap = ref (Bytes.length e.buf * 2) in
  while need > !cap do
    cap := !cap * 2
  done;
  let nb = Bytes.create !cap in
  Bytes.blit e.buf 0 nb 0 e.len;
  e.buf <- nb

let ensure e n =
  let need = e.len + n in
  if need > Bytes.length e.buf then grow e need

let u8 e v =
  if v < 0 || v > 0xff then invalid_arg "Codec.u8";
  ensure e 1;
  Bytes.unsafe_set e.buf e.len (Char.unsafe_chr v);
  e.len <- e.len + 1

let u16 e v =
  if v < 0 || v > 0xffff then invalid_arg "Codec.u16";
  ensure e 2;
  set16u e.buf e.len (be16 v);
  e.len <- e.len + 2

let u32 e v =
  if v < 0 || v > 0xffffffff then invalid_arg "Codec.u32";
  ensure e 4;
  (* [Int32.of_int] wraps: values in [2^31, 2^32) land on the same bit
     pattern a true u32 store would produce *)
  set32u e.buf e.len (be32 (Int32.of_int v));
  e.len <- e.len + 4

let u64 e v =
  ensure e 8;
  set64u e.buf e.len (be64 v);
  e.len <- e.len + 8

let int_as_u64 e v =
  if v < 0 then invalid_arg "Codec.int_as_u64";
  u64 e (Int64.of_int v)

let bool e b = u8 e (if b then 1 else 0)

let raw e s =
  let n = String.length s in
  ensure e n;
  Bytes.blit_string s 0 e.buf e.len n;
  e.len <- e.len + n

let bytes e s =
  u32 e (String.length s);
  raw e s

let list item e xs =
  u32 e (List.length xs);
  List.iter (item e) xs

let option item e = function
  | None -> u8 e 0
  | Some v ->
      u8 e 1;
      item e v

(* ---------- encoder pool ---------- *)

(* Per-domain free list: client verification fans encodes across
   Worm_util.Pool domains, so a global stack would race. DLS keeps the
   hot path lock-free; the Atomic counters only aggregate stats. A
   domain's list is seeded with one encoder on its first borrow, so
   [pool_fresh] counts only borrows that found the list empty (nested
   borrows) and does not depend on which domains a batch ran on. *)
let pool_reused = Atomic.make 0
let pool_fresh = Atomic.make 0
let pool_domains = Atomic.make 0

let pool_key : encoder list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Atomic.incr pool_domains;
      ref [ make () ])
let max_pooled = 8
let max_retained_bytes = 1 lsl 16

type pool_stats = { pool_reused : int; pool_fresh : int; pool_domains : int }

let pool_stats () =
  { pool_reused = Atomic.get pool_reused; pool_fresh = Atomic.get pool_fresh;
    pool_domains = Atomic.get pool_domains }

let with_encoder f =
  let free = Domain.DLS.get pool_key in
  let e =
    match !free with
    | e :: rest ->
        free := rest;
        Atomic.incr pool_reused;
        e
    | [] ->
        Atomic.incr pool_fresh;
        make ()
  in
  Fun.protect
    ~finally:(fun () ->
      (* don't retain giant buffers, and reset so a partial encode
         (range-check raise) can't leak into the next borrow *)
      if Bytes.length e.buf <= max_retained_bytes && List.length !free < max_pooled then begin
        e.len <- 0;
        free := e :: !free
      end)
    (fun () -> f e)

let encode enc v =
  with_encoder (fun e ->
      enc e v;
      to_string e)

let encoded_length enc v =
  with_encoder (fun e ->
      enc e v;
      e.len)

(* ---------- decoder ---------- *)

type decoder = { input : string; mutable pos : int }

exception Truncated
exception Malformed of string

let decoder input = { input; pos = 0 }
let remaining d = String.length d.input - d.pos

let take d n =
  if remaining d < n then raise Truncated;
  let pos = d.pos in
  d.pos <- pos + n;
  pos

let read_u8 d =
  let pos = take d 1 in
  Char.code (String.unsafe_get d.input pos)

let read_u16 d =
  let pos = take d 2 in
  be16 (get16u d.input pos)

let read_u32 d =
  let pos = take d 4 in
  Int32.to_int (be32 (get32u d.input pos)) land 0xffffffff

let read_u64 d =
  let pos = take d 8 in
  be64 (get64u d.input pos)

let read_int_as_u64 d =
  let v = read_u64 d in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    raise (Malformed "int_as_u64 out of range");
  Int64.to_int v

let read_bool d =
  match read_u8 d with
  | 0 -> false
  | 1 -> true
  | n -> raise (Malformed (Printf.sprintf "bad bool tag %d" n))

let read_bytes d =
  let n = read_u32 d in
  let pos = take d n in
  String.sub d.input pos n

let read_list item d =
  let n = read_u32 d in
  List.init n (fun _ -> item d)

let read_option item d =
  match read_u8 d with
  | 0 -> None
  | 1 -> Some (item d)
  | n -> raise (Malformed (Printf.sprintf "bad option tag %d" n))

let expect_end d = if remaining d <> 0 then raise (Malformed "trailing bytes")

let run_decoder dec d =
  match
    let v = dec d in
    expect_end d;
    v
  with
  | v -> Ok v
  | exception Truncated -> Error "truncated input"
  | exception Malformed msg -> Error ("malformed input: " ^ msg)

let decode dec s = run_decoder dec (decoder s)
