type t = {
  rtt_ns : int64;
  bandwidth : float;
  mutable requests : int;
  mutable bytes : int;
  mutable elapsed_ns : int64;
}

let create ?(rtt_ns = 1_000_000L) ?(bandwidth_bytes_per_sec = 125e6) () =
  { rtt_ns; bandwidth = bandwidth_bytes_per_sec; requests = 0; bytes = 0; elapsed_ns = 0L }

(* Round to nearest, not toward zero: a 1-byte frame at high bandwidth
   takes a fraction of a nanosecond, and truncation would bill it 0 —
   the ledger then drifts low exactly when a workload is millions of
   small frames. *)
let transfer_ns t ~bytes = Int64.of_float (Float.round (float_of_int bytes /. t.bandwidth *. 1e9))

let one_way_ns t ~bytes = Int64.add (Int64.div t.rtt_ns 2L) (transfer_ns t ~bytes)

let charge_exchange t n =
  t.bytes <- t.bytes + n;
  t.elapsed_ns <- Int64.add t.elapsed_ns (Int64.add t.rtt_ns (transfer_ns t ~bytes:n))

let note_exchange t ~bytes ~wait_ns =
  if Int64.compare wait_ns 0L < 0 then invalid_arg "Netsim.note_exchange: negative wait";
  t.requests <- t.requests + 1;
  t.bytes <- t.bytes + bytes;
  t.elapsed_ns <- Int64.add t.elapsed_ns wait_ns

let wrap t transport request =
  t.requests <- t.requests + 1;
  match transport request with
  | response ->
      charge_exchange t (String.length request + String.length response);
      response
  | exception e ->
      (* The request still crossed the wire and the caller still waited
         a round trip for the reply that never came: bill both before
         letting the fault surface, so the virtual ledger matches wire
         reality under faults. *)
      let bt = Printexc.get_raw_backtrace () in
      charge_exchange t (String.length request);
      Printexc.raise_with_backtrace e bt

let charge_ns t ns =
  if Int64.compare ns 0L < 0 then invalid_arg "Netsim.charge_ns: negative";
  t.elapsed_ns <- Int64.add t.elapsed_ns ns

let requests t = t.requests
let bytes_transferred t = t.bytes
let elapsed_ns t = t.elapsed_ns
