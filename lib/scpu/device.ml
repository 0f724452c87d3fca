open Worm_crypto
module Clock = Worm_simclock.Clock

exception Tamper_detected

type config = { strong_bits : int; weak_bits : int; weak_lifetime_ns : int64; profile : Cost_model.profile }

let default_config =
  { strong_bits = 1024; weak_bits = 512; weak_lifetime_ns = Clock.ns_of_min 120.; profile = Cost_model.ibm_4764 }

let test_config = { default_config with strong_bits = 512 }

type stats = {
  strong_signs : int;
  weak_signs : int;
  deletion_signs : int;
  sign_calls : int;
  hmac_ops : int;
  hash_ops : int;
  hash_bytes : int;
  dma_bytes : int;
  weak_rotations : int;
}

let zero_stats =
  {
    strong_signs = 0;
    weak_signs = 0;
    deletion_signs = 0;
    sign_calls = 0;
    hmac_ops = 0;
    hash_ops = 0;
    hash_bytes = 0;
    dma_bytes = 0;
    weak_rotations = 0;
  }

type keys = {
  signing : Rsa.secret;
  deletion : Rsa.secret;
  hmac_key : string;
  signing_cert : Cert.t;
  deletion_cert : Cert.t;
  mutable weak : Rsa.secret;
  mutable weak_cert : Cert.t;
  mutable weak_serial : int;
  rng : Drbg.t;
}

type t = {
  name : string;
  config : config;
  clock : Clock.t;
  mutable keys : keys option; (* None after zeroization *)
  mutable busy_ns : int64;
  mutable stats : stats;
}

let issue_weak_cert t_name config clock signing serial weak_pub =
  Cert.issue ~ca:signing
    ~subject:(Printf.sprintf "%s/weak-%d" t_name serial)
    ~role:Cert.Scpu_short_term ~key:weak_pub ~not_before:(Clock.now clock)
    ~not_after:(Int64.add (Clock.now clock) config.weak_lifetime_ns)

let provision ~seed ~clock ~ca ?(config = default_config) ~name () =
  let rng = Drbg.create ~seed:("scpu-device|" ^ name ^ "|" ^ seed) in
  let signing = Rsa.generate rng ~bits:config.strong_bits in
  let deletion = Rsa.generate rng ~bits:config.strong_bits in
  let weak = Rsa.generate rng ~bits:config.weak_bits in
  let hmac_key = Drbg.generate rng 32 in
  let far_future = Int64.add (Clock.now clock) (Clock.ns_of_years 50.) in
  let signing_cert =
    Cert.issue ~ca ~subject:(name ^ "/signing") ~role:Cert.Scpu_signing ~key:(Rsa.public_of signing)
      ~not_before:(Clock.now clock) ~not_after:far_future
  in
  let deletion_cert =
    Cert.issue ~ca ~subject:(name ^ "/deletion") ~role:Cert.Scpu_deletion ~key:(Rsa.public_of deletion)
      ~not_before:(Clock.now clock) ~not_after:far_future
  in
  let weak_cert = issue_weak_cert name config clock signing 0 (Rsa.public_of weak) in
  {
    name;
    config;
    clock;
    keys = Some { signing; deletion; hmac_key; signing_cert; deletion_cert; weak; weak_cert; weak_serial = 0; rng };
    busy_ns = 0L;
    stats = zero_stats;
  }

let name t = t.name
let config t = t.config

let keys t =
  match t.keys with
  | Some k -> k
  | None -> raise Tamper_detected

let now t =
  ignore (keys t);
  Clock.now t.clock

let charge t ns = t.busy_ns <- Int64.add t.busy_ns ns

let random t n =
  let k = keys t in
  Drbg.generate k.rng n

let signing_cert t = (keys t).signing_cert
let deletion_cert t = (keys t).deletion_cert

(* Rotate the short-lived key when its certificate has lapsed. Fresh
   keys are assumed pre-generated during idle (§4.3), so rotation is
   free in the busy-time ledger. *)
let rotate_weak_if_needed t =
  let k = keys t in
  if Int64.compare (Clock.now t.clock) k.weak_cert.Cert.not_after > 0 then begin
    k.weak <- Rsa.generate k.rng ~bits:t.config.weak_bits;
    k.weak_serial <- k.weak_serial + 1;
    k.weak_cert <- issue_weak_cert t.name t.config t.clock k.signing k.weak_serial (Rsa.public_of k.weak);
    t.stats <- { t.stats with weak_rotations = t.stats.weak_rotations + 1 }
  end

let sign_strong t msg =
  let k = keys t in
  charge t (Cost_model.rsa_sign_ns t.config.profile ~bits:t.config.strong_bits);
  t.stats <- { t.stats with strong_signs = t.stats.strong_signs + 1; sign_calls = t.stats.sign_calls + 1 };
  Rsa.sign k.signing msg

let sign_deletion t msg =
  let k = keys t in
  charge t (Cost_model.rsa_sign_ns t.config.profile ~bits:t.config.strong_bits);
  t.stats <- { t.stats with deletion_signs = t.stats.deletion_signs + 1; sign_calls = t.stats.sign_calls + 1 };
  Rsa.sign k.deletion msg

let sign_weak t msg =
  rotate_weak_if_needed t;
  let k = keys t in
  charge t (Cost_model.rsa_sign_ns t.config.profile ~bits:t.config.weak_bits);
  t.stats <- { t.stats with weak_signs = t.stats.weak_signs + 1; sign_calls = t.stats.sign_calls + 1 };
  (k.weak_cert, Rsa.sign k.weak msg)

(* Batch variants: one key check and one sign call for a whole burst.
   The ledger still charges per signature. Key checks, charging and
   stats run in the calling domain before any signing is handed to the
   process-wide pool, the SCPU's crypto engine signing beside the host;
   only the signatures fan out. *)

let sign_strong_batch t msgs =
  let k = keys t in
  let count = List.length msgs in
  charge t (Int64.mul (Int64.of_int count) (Cost_model.rsa_sign_ns t.config.profile ~bits:t.config.strong_bits));
  t.stats <- { t.stats with strong_signs = t.stats.strong_signs + count; sign_calls = t.stats.sign_calls + 1 };
  Worm_util.Pool.map (Rsa.sign k.signing) msgs

let sign_deletion_batch t msgs =
  let k = keys t in
  let count = List.length msgs in
  charge t (Int64.mul (Int64.of_int count) (Cost_model.rsa_sign_ns t.config.profile ~bits:t.config.strong_bits));
  t.stats <- { t.stats with deletion_signs = t.stats.deletion_signs + count; sign_calls = t.stats.sign_calls + 1 };
  Worm_util.Pool.map (Rsa.sign k.deletion) msgs

let sign_weak_batch t msgs =
  rotate_weak_if_needed t;
  let k = keys t in
  let count = List.length msgs in
  charge t (Int64.mul (Int64.of_int count) (Cost_model.rsa_sign_ns t.config.profile ~bits:t.config.weak_bits));
  t.stats <- { t.stats with weak_signs = t.stats.weak_signs + count; sign_calls = t.stats.sign_calls + 1 };
  (k.weak_cert, Worm_util.Pool.map (Rsa.sign k.weak) msgs)

let hmac_tag t msg =
  let k = keys t in
  charge t (Cost_model.hmac_ns t.config.profile ~bytes:(String.length msg));
  t.stats <- { t.stats with hmac_ops = t.stats.hmac_ops + 1 };
  Hmac.sha256 ~key:k.hmac_key msg

let hmac_verify t ~msg ~tag =
  let k = keys t in
  charge t (Cost_model.hmac_ns t.config.profile ~bytes:(String.length msg));
  t.stats <- { t.stats with hmac_ops = t.stats.hmac_ops + 1 };
  Hmac.verify_sha256 ~key:k.hmac_key ~msg ~mac:tag

let hash t msg =
  ignore (keys t);
  charge t (Cost_model.hash_ns t.config.profile ~bytes:(String.length msg));
  t.stats <- { t.stats with hash_ops = t.stats.hash_ops + 1; hash_bytes = t.stats.hash_bytes + String.length msg };
  Sha256.digest msg

let charge_dma t ~bytes =
  ignore (keys t);
  charge t (Cost_model.dma_ns t.config.profile ~bytes);
  t.stats <- { t.stats with dma_bytes = t.stats.dma_bytes + bytes }

let charge_rsa_verify t ~bits =
  ignore (keys t);
  charge t (Cost_model.rsa_verify_ns t.config.profile ~bits)

let charge_hash_only t ~bytes =
  ignore (keys t);
  charge t (Cost_model.hash_ns t.config.profile ~bytes);
  t.stats <- { t.stats with hash_ops = t.stats.hash_ops + 1; hash_bytes = t.stats.hash_bytes + bytes }

let busy_ns t = t.busy_ns
let reset_busy t = t.busy_ns <- 0L
let stats t = t.stats

let tamper_respond t = t.keys <- None
let is_zeroized t = t.keys = None
