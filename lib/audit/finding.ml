open Worm_core
module Codec = Worm_util.Codec

type cls =
  | Stale_bound
  | Bad_signature
  | Data_mismatch
  | Missing_proof
  | Torn_window
  | Unreadable
  | Backlog_anomaly

type subject =
  | Record of Serial.t
  | Window of Serial.t * Serial.t
  | Bounds
  | Journal
  | Backlog

type t = { subject : subject; cls : cls; detail : string }

let make subject cls detail = { subject; cls; detail }

let cls_name = function
  | Stale_bound -> "stale-bound"
  | Bad_signature -> "bad-signature"
  | Data_mismatch -> "data-mismatch"
  | Missing_proof -> "missing-proof"
  | Torn_window -> "torn-window"
  | Unreadable -> "unreadable"
  | Backlog_anomaly -> "backlog-anomaly"

let subject_to_string = function
  | Record sn -> "record " ^ Serial.to_string sn
  | Window (lo, hi) -> Printf.sprintf "window [%s, %s]" (Serial.to_string lo) (Serial.to_string hi)
  | Bounds -> "bounds"
  | Journal -> "journal"
  | Backlog -> "backlog"

let equal a b = a.subject = b.subject && a.cls = b.cls && String.equal a.detail b.detail
let pp fmt t = Format.fprintf fmt "%s: %s (%s)" (subject_to_string t.subject) (cls_name t.cls) t.detail

(* Dominance order: the most actionable symptom names the class. A
   record with both a forged datasig and mismatching bytes is a
   data-mismatch (heal the data first; the re-audit then covers the
   signature); stale bounds rank last because a heartbeat fixes them. *)
let violation_cls = function
  | Client.Data_mismatch -> Data_mismatch
  | Client.Window_bound_invalid | Client.Window_does_not_cover -> Torn_window
  | Client.Meta_witness_invalid | Client.Data_witness_invalid | Client.Deletion_proof_invalid
  | Client.Current_bound_invalid | Client.Base_bound_invalid | Client.Base_bound_expired
  | Client.Erasure_cert_invalid ->
      Bad_signature
  | Client.Absence_unproven | Client.Wrong_serial | Client.Base_does_not_cover -> Missing_proof
  | Client.Stale_current_bound -> Stale_bound

let cls_rank = function
  | Data_mismatch -> 0
  | Torn_window -> 1
  | Bad_signature -> 2
  | Unreadable -> 3
  | Missing_proof -> 4
  | Backlog_anomaly -> 5
  | Stale_bound -> 6

let of_violations = function
  | [] -> Missing_proof
  | vs -> List.map violation_cls vs |> List.sort (fun a b -> Int.compare (cls_rank a) (cls_rank b)) |> List.hd

let of_firmware_error = function
  | Firmware.Audit_mismatch -> Data_mismatch
  | Firmware.Data_required -> Unreadable
  | _ -> Bad_signature

(* ---------- codec (findings checkpoint) ---------- *)

let cls_tag = function
  | Stale_bound -> 0
  | Bad_signature -> 1
  | Data_mismatch -> 2
  | Missing_proof -> 3
  | Torn_window -> 4
  | Unreadable -> 5
  | Backlog_anomaly -> 6

let cls_of_tag = function
  | 0 -> Stale_bound
  | 1 -> Bad_signature
  | 2 -> Data_mismatch
  | 3 -> Missing_proof
  | 4 -> Torn_window
  | 5 -> Unreadable
  | 6 -> Backlog_anomaly
  | n -> raise (Codec.Malformed (Printf.sprintf "unknown finding class tag %d" n))

let encode enc t =
  (match t.subject with
  | Record sn ->
      Codec.u8 enc 0;
      Serial.encode enc sn
  | Window (lo, hi) ->
      Codec.u8 enc 1;
      Serial.encode enc lo;
      Serial.encode enc hi
  | Bounds -> Codec.u8 enc 2
  | Journal -> Codec.u8 enc 3
  | Backlog -> Codec.u8 enc 4);
  Codec.u8 enc (cls_tag t.cls);
  Codec.bytes enc t.detail

let decode dec =
  let subject =
    match Codec.read_u8 dec with
    | 0 -> Record (Serial.decode dec)
    | 1 ->
        let lo = Serial.decode dec in
        let hi = Serial.decode dec in
        Window (lo, hi)
    | 2 -> Bounds
    | 3 -> Journal
    | 4 -> Backlog
    | n -> raise (Codec.Malformed (Printf.sprintf "unknown finding subject tag %d" n))
  in
  let cls = cls_of_tag (Codec.read_u8 dec) in
  let detail = Codec.read_bytes dec in
  { subject; cls; detail }
