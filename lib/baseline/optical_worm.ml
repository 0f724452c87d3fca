type disc_id = int
type slot = int

type disc = { mutable slots : string array; mutable used : int }

type t = { disc_capacity : int; mutable discs : (disc_id * disc) list; mutable next_disc : int }

let create ?(disc_capacity = 8) () =
  if disc_capacity <= 0 then invalid_arg "Optical_worm.create: non-positive capacity";
  { disc_capacity; discs = []; next_disc = 0 }

let current_disc t =
  match t.discs with
  | (id, d) :: _ when d.used < Array.length d.slots -> (id, d)
  | _ ->
      let id = t.next_disc in
      t.next_disc <- id + 1;
      let d = { slots = Array.make t.disc_capacity ""; used = 0 } in
      t.discs <- (id, d) :: t.discs;
      (id, d)

let burn t record =
  let id, d = current_disc t in
  let slot = d.used in
  d.slots.(slot) <- record;
  d.used <- slot + 1;
  (id, slot)

let find t id = List.assoc_opt id t.discs

let read t (id, slot) =
  match find t id with
  | Some d when slot >= 0 && slot < d.used -> Some d.slots.(slot)
  | Some _ | None -> None

let try_overwrite _t _addr _data = Error "burned marks are permanent: the medium cannot be rewritten"
let try_erase_record _t _addr = Error "no per-record erasure on write-once media; destroy the disc"

let destroy_disc t id =
  match find t id with
  | None -> 0
  | Some d ->
      t.discs <- List.remove_assoc id t.discs;
      d.used

let disc_count t = List.length t.discs

let swap_disc t id contents =
  match find t id with
  | None -> false
  | Some original when List.length contents = original.used ->
      (* a freshly burned disc with the same record count passes any
         non-cryptographic inventory *)
      let d = { slots = Array.of_list contents; used = List.length contents } in
      t.discs <- (id, d) :: List.remove_assoc id t.discs;
      true
  | Some _ -> false
