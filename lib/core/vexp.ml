module Entry = struct
  type t = int64 * Serial.t

  let compare (e1, s1) (e2, s2) =
    let c = Int64.compare e1 e2 in
    if c <> 0 then c else Serial.compare s1 s2
end

module Entry_set = Set.Make (Entry)

type t = { capacity : int; mutable entries : Entry_set.t; by_sn : (Serial.t, int64) Hashtbl.t }

let create ~capacity =
  if capacity <= 0 then invalid_arg "Vexp.create: non-positive capacity";
  { capacity; entries = Entry_set.empty; by_sn = Hashtbl.create 64 }

let length t = Entry_set.cardinal t.entries
let is_full t = length t >= t.capacity
let mem t sn = Hashtbl.mem t.by_sn sn

type insert_result = Inserted | Inserted_evicting of int64 * Serial.t | Rejected_full

let remove t sn =
  match Hashtbl.find_opt t.by_sn sn with
  | None -> false
  | Some expiry ->
      t.entries <- Entry_set.remove (expiry, sn) t.entries;
      Hashtbl.remove t.by_sn sn;
      true

let insert t ~expiry sn =
  ignore (remove t sn);
  if not (is_full t) then begin
    t.entries <- Entry_set.add (expiry, sn) t.entries;
    Hashtbl.replace t.by_sn sn expiry;
    Inserted
  end
  else begin
    let ((max_expiry, max_sn) as max_entry) = Entry_set.max_elt t.entries in
    if Int64.compare expiry max_expiry >= 0 then Rejected_full
    else begin
      t.entries <- Entry_set.add (expiry, sn) (Entry_set.remove max_entry t.entries);
      Hashtbl.remove t.by_sn max_sn;
      Hashtbl.replace t.by_sn sn expiry;
      Inserted_evicting (max_expiry, max_sn)
    end
  end

let next_due t = Entry_set.min_elt_opt t.entries

let pop_due t ~now =
  let rec go acc =
    match Entry_set.min_elt_opt t.entries with
    | Some ((expiry, sn) as entry) when Int64.compare expiry now < 0 ->
        t.entries <- Entry_set.remove entry t.entries;
        Hashtbl.remove t.by_sn sn;
        go (entry :: acc)
    | Some _ | None -> List.rev acc
  in
  go []

let to_list t = Entry_set.elements t.entries
