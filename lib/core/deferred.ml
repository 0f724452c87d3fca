type entry = { sn : Serial.t; deadline : int64 }

module Key = struct
  type t = int64 * Serial.t

  let compare (d1, s1) (d2, s2) =
    let c = Int64.compare d1 d2 in
    if c <> 0 then c else Serial.compare s1 s2
end

module Key_set = Set.Make (Key)

type t = { mutable entries : Key_set.t; by_sn : (Serial.t, int64) Hashtbl.t }

let create () = { entries = Key_set.empty; by_sn = Hashtbl.create 64 }
let length t = Key_set.cardinal t.entries
let is_empty t = Key_set.is_empty t.entries

let remove t sn =
  match Hashtbl.find_opt t.by_sn sn with
  | None -> false
  | Some deadline ->
      t.entries <- Key_set.remove (deadline, sn) t.entries;
      Hashtbl.remove t.by_sn sn;
      true

let push t ~sn ~deadline =
  ignore (remove t sn);
  t.entries <- Key_set.add (deadline, sn) t.entries;
  Hashtbl.replace t.by_sn sn deadline

let peek t = Option.map (fun (deadline, sn) -> { sn; deadline }) (Key_set.min_elt_opt t.entries)

let take_batch t ~max =
  let rec go acc n =
    if n = 0 then List.rev acc
    else begin
      match Key_set.min_elt_opt t.entries with
      | None -> List.rev acc
      | Some ((deadline, sn) as key) ->
          t.entries <- Key_set.remove key t.entries;
          Hashtbl.remove t.by_sn sn;
          go ({ sn; deadline } :: acc) (n - 1)
    end
  in
  go [] max

let take_until t ~deadline ~max =
  let rec go acc n =
    if n = 0 then List.rev acc
    else begin
      match Key_set.min_elt_opt t.entries with
      | Some ((d, sn) as key) when Int64.compare d deadline <= 0 ->
          t.entries <- Key_set.remove key t.entries;
          Hashtbl.remove t.by_sn sn;
          go ({ sn; deadline = d } :: acc) (n - 1)
      | Some _ | None -> List.rev acc
    end
  in
  go [] max

(* Keys are ordered by (deadline, sn), so the overdue entries are a
   prefix of the set: stop at the first deadline >= now instead of
   folding the whole queue — admission control polls this every tick. *)
let overdue t ~now =
  let rec go seq acc =
    match seq () with
    | Seq.Cons ((deadline, sn), rest) when Int64.compare deadline now < 0 ->
        go rest ({ sn; deadline } :: acc)
    | Seq.Cons _ | Seq.Nil -> List.rev acc
  in
  go (Key_set.to_seq t.entries) []

let to_list t = List.map (fun (deadline, sn) -> { sn; deadline }) (Key_set.elements t.entries)
