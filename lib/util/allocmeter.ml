let minor_words = Gc.minor_words

let per_op ~ops f =
  if ops <= 0 then invalid_arg "Allocmeter.per_op";
  let w0 = Gc.minor_words () in
  for _ = 1 to ops do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int ops
