module Drbg = Worm_crypto.Drbg
open Worm_core

let default_block_size = 64 * 1024

let record rng ~bytes =
  let rec split acc remaining =
    if remaining <= 0 then List.rev acc
    else begin
      let n = min remaining default_block_size in
      split (Drbg.generate rng n :: acc) (remaining - n)
    end
  in
  if bytes = 0 then [ "" ] else split [] bytes

let figure1_sizes = [ 1024; 2048; 4096; 8192; 16384; 32768; 65536; 131072; 262144 ]

type op = Write of { blocks : string list; policy : Policy.t } | Read of int

let mixed_trace rng ~ops ~write_fraction ~record_bytes ~policy =
  if write_fraction < 0. || write_fraction > 1. then invalid_arg "Workload.mixed_trace: bad fraction";
  let threshold = int_of_float (write_fraction *. 1000.) in
  List.init ops (fun _ ->
      if Drbg.int_below rng 1000 < threshold then Write { blocks = record rng ~bytes:record_bytes; policy }
      else Read (Drbg.int_below rng max_int))

let short_retention_mix rng ~min_ns ~max_ns ~n =
  if Int64.compare max_ns min_ns < 0 then invalid_arg "Workload.short_retention_mix: empty range";
  let spread = Int64.to_int (Int64.sub max_ns min_ns) in
  List.init n (fun i ->
      let jitter = if spread = 0 then 0 else Drbg.int_below rng (spread + 1) in
      Policy.custom
        ~name:(Printf.sprintf "short-%d" i)
        ~retention_ns:(Int64.add min_ns (Int64.of_int jitter))
        ~shred_passes:1)
