open Worm_core

type t = {
  store_id : string;
  sn_base : Serial.t;
  sn_current : Serial.t;
  records_scanned : int;
  slices : int;
  host_ns : int64;
  pass_complete : bool;
  findings : Finding.t list;
}

let clean t = t.pass_complete && t.findings = []

let summary t =
  Printf.sprintf "%s: %d records in %d slices, %d finding(s)%s"
    (if clean t then "clean" else if t.pass_complete then "FINDINGS" else "in progress")
    t.records_scanned t.slices (List.length t.findings)
    (if t.pass_complete then "" else " so far")

(* Minimal JSON emitter: the report schema needs only strings, ints,
   bools and flat finding objects, so no library dependency. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let finding_json (f : Finding.t) =
  Printf.sprintf {|{"subject": "%s", "class": "%s", "detail": "%s"}|}
    (json_escape (Finding.subject_to_string f.Finding.subject))
    (Finding.cls_name f.Finding.cls)
    (json_escape f.Finding.detail)

let to_json t =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"worm-audit-report/1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"store_id\": \"%s\",\n" (Worm_util.Hex.encode t.store_id));
  Buffer.add_string b (Printf.sprintf "  \"sn_base\": %Ld,\n" (Serial.to_int64 t.sn_base));
  Buffer.add_string b (Printf.sprintf "  \"sn_current\": %Ld,\n" (Serial.to_int64 t.sn_current));
  Buffer.add_string b (Printf.sprintf "  \"records_scanned\": %d,\n" t.records_scanned);
  Buffer.add_string b (Printf.sprintf "  \"slices\": %d,\n" t.slices);
  Buffer.add_string b (Printf.sprintf "  \"host_ns\": %Ld,\n" t.host_ns);
  Buffer.add_string b (Printf.sprintf "  \"pass_complete\": %b,\n" t.pass_complete);
  Buffer.add_string b (Printf.sprintf "  \"clean\": %b,\n" (clean t));
  Buffer.add_string b "  \"findings\": [";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b "\n    ";
      Buffer.add_string b (finding_json f))
    t.findings;
  if t.findings <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "]\n}";
  Buffer.contents b
