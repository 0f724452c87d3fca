type value = Int of int | Float of float | Str of string | Bool of bool | Row of t | List of value list
and t = (string * value) list

let is_row = function Row _ -> true | _ -> false
let as_rows items = List.filter_map (function Row r -> Some r | _ -> None) items

(* ---------- text ---------- *)

let rec cell = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.4g" f
  | Str s -> s
  | Bool b -> string_of_bool b
  | Row r -> "{" ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ cell v) r) ^ "}"
  | List items -> "[" ^ String.concat ", " (List.map cell items) ^ "]"

(* A row's scalar cells, with nested rows flattened to dotted keys, and
   its nested tables (lists of rows), both in field order. *)
let rec flatten prefix r =
  List.fold_right
    (fun (k, v) (cells, tables) ->
      let k = if prefix = "" then k else prefix ^ "." ^ k in
      match v with
      | Row sub ->
          let c, t = flatten k sub in
          (c @ cells, t @ tables)
      | List items when items <> [] && List.for_all is_row items -> (cells, (k, as_rows items) :: tables)
      | v -> ((k, cell v) :: cells, tables))
    r ([], [])

let rec print_table indent rows =
  let flat = List.map (flatten "") rows in
  let header = match flat with (cells, _) :: _ -> List.map fst cells | [] -> [] in
  let value cells k = Option.value (List.assoc_opt k cells) ~default:"-" in
  let widths =
    List.map
      (fun k -> List.fold_left (fun w (cells, _) -> max w (String.length (value cells k))) (String.length k) flat)
      header
  in
  let line cols =
    print_string indent;
    List.iteri
      (fun i (w, s) -> if i = 0 then Printf.printf "%-*s" w s else Printf.printf "  %*s" w s)
      (List.combine widths cols);
    print_newline ()
  in
  line header;
  List.iter
    (fun (cells, tables) ->
      line (List.map (value cells) header);
      List.iter (print_nested (indent ^ "  ")) tables)
    flat

and print_nested indent (k, rows) =
  Printf.printf "%s%s:\n" indent k;
  print_table (indent ^ "  ") rows

let print r =
  let cells, tables = flatten "" r in
  let w = List.fold_left (fun w (k, _) -> max w (String.length k)) 0 cells in
  List.iter (fun (k, c) -> Printf.printf "%-*s  %s\n" w k c) cells;
  List.iter (print_nested "") tables

(* ---------- JSON ---------- *)

let json_escape buf s =
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
    s

let rec json_to_buf buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (if Float.is_finite f then Printf.sprintf "%.12g" f else "null")
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Str s ->
      Buffer.add_char buf '"';
      json_escape buf s;
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          json_to_buf buf item)
        items;
      Buffer.add_char buf ']'
  | Row fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          json_to_buf buf (Str k);
          Buffer.add_char buf ':';
          json_to_buf buf v)
        fields;
      Buffer.add_char buf '}'

let to_json r =
  let buf = Buffer.create 4096 in
  json_to_buf buf (Row r);
  Buffer.contents buf

(* ---------- access by key ---------- *)

type 'a kind = { name : string; cast : value -> 'a option }

let int = { name = "an int"; cast = (function Int i -> Some i | _ -> None) }
let float = { name = "a float"; cast = (function Float f -> Some f | _ -> None) }
let str = { name = "a string"; cast = (function Str s -> Some s | _ -> None) }
let bool = { name = "a bool"; cast = (function Bool b -> Some b | _ -> None) }
let row = { name = "a row"; cast = (function Row r -> Some r | _ -> None) }

let rows =
  {
    name = "a list of rows";
    cast = (function List items when List.for_all is_row items -> Some (as_rows items) | _ -> None);
  }

let get kind key r =
  match List.assoc_opt key r with
  | None -> failwith (Printf.sprintf "Row.get: no key %S" key)
  | Some v -> (
      match kind.cast v with
      | Some x -> x
      | None -> failwith (Printf.sprintf "Row.get: key %S is not %s" key kind.name))
