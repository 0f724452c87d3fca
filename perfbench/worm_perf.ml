(* perfbench: the end-to-end benchmark of the Strong WORM stack.

   worm_perf.exe --workload ingest|audit|mixed --seed N --seconds S --trace 0|1

   Builds the stack from the layers' public functions, sets it up
   three times (reporting the median set-up time), then runs a fixed
   amount of work: [S * 10] windows, each sized to take about 0.1 s at
   reference speed, so every count and paper-clock metric repeats
   exactly for a seed. Real times are scaled to reference speed by the
   frozen calibration kernel timed around every window. Every verdict is
   checked; the last line of output is one JSON object holding every
   metric. *)

module H = Harness

let usage = "worm_perf.exe --workload ingest|audit|mixed --seed N --seconds S --trace 0|1 [--rev REV] [--trace-out FILE]"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let rev = ref "unknown" and trace_out = ref "" in
  let check_kernel = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "ingest | audit | mixed");
      ("--seed", Arg.Set_int seed, "input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "timed work, in seconds at reference speed");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: traced run, per-layer metrics");
      ("--rev", Arg.Set_string rev, "source revision, for the record");
      ("--trace-out", Arg.Set_string trace_out, "write every span to this file (traced runs)");
      ("--check-kernel", Arg.Set check_kernel, "check the frozen kernel against the library's SHA-256 and exponentiation, and its pinned digest");
    ]
  in
  let bad msg =
    prerr_endline ("worm_perf: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> bad ("unexpected argument " ^ a)) usage with
  | Arg.Bad msg -> bad msg
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  if !check_kernel then begin
    let inputs = Calib.hash_input :: List.init 200 (fun n -> String.sub Calib.hash_input 0 n) in
    let same = List.for_all (fun m -> String.equal (Calib.sha256 m) (Worm_crypto.Sha256.digest m)) inputs in
    let module Nat = Worm_crypto.Nat in
    let nat limbs = Array.fold_right (fun l acc -> Nat.add (Nat.shift_left acc Calib.base_bits) (Nat.of_int l)) limbs Nat.zero in
    let exp_ok =
      Nat.equal (nat (Calib.mod_exp ()))
        (Nat.mod_pow ~base:(nat Calib.base) ~exp:(nat Calib.exponent) ~modulus:(nat Calib.modulus))
    in
    Printf.printf "modular exponentiation matches library: %b\n" exp_ok;
    let digest = Calib.hex (Calib.kernel ()) in
    Printf.printf "sha256 matches library: %b\nkernel digest: %s (pinned %s)\n" same digest Calib.pinned_digest;
    exit (if same && exp_ok && String.equal digest Calib.pinned_digest then 0 else 1)
  end;
  let run =
    match !workload with
    | "ingest" -> Ingest.run
    | "audit" -> Audit.run
    | "mixed" -> Mixed.run
    | w -> bad (Printf.sprintf "unknown workload %S" w)
  in
  if !seed < 0 then bad "--seed is required";
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  let windows = !seconds * 10 in
  if windows < 1 then bad "--seconds must be >= 1";
  let traced = !trace = 1 in
  Printf.printf "# perfbench workload=%s seed=%d windows=%d reps=%d tracing=%s nproc=%d ocaml=%s rev=%s\n%!" !workload
    !seed windows Stack.setup_reps (if traced then "on" else "off") (Domain.recommended_domain_count ()) Sys.ocaml_version !rev;
  let metrics =
    try run ~seed:!seed ~windows ~trace:traced
    with e ->
      H.fail "exception: %s" (Printexc.to_string e);
      []
  in
  if traced && !trace_out <> "" then Report.dump !trace_out;
  let cal = List.rev !H.cal_samples and lib = List.rev !H.lib_samples in
  let floats l = String.concat "," (List.map (fun x -> Printf.sprintf "%.0f" x) l) in
  Printf.printf "# calibration reference_ns=%.0f digest=%s\n" Calib.reference_ns Calib.pinned_digest;
  Printf.printf "# calibration raw_ns=[%s]\n" (floats cal);
  Printf.printf "# library kernel raw_ns=[%s]\n" (floats lib);
  List.iter (fun (n, u, v) -> Printf.printf "# %-34s %16.6f %s\n" n v u) metrics;
  let ok = !H.failed = 0 && metrics <> [] in
  let body =
    String.concat ", "
      (List.map
         (fun (n, u, v) -> Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (H.json_string n) (H.json_float v) (H.json_string u))
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" ok (Stdlib.max 1 !H.attempted)
    !H.failed body;
  exit (if ok then 0 else 1)
