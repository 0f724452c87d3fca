(* Bounded map with least-recently-used eviction. Lookups stamp a
   monotonic tick; inserts over capacity evict the smallest stamp with a
   linear scan. Capacities here are small (hundreds) and misses are
   orders of magnitude dearer than a scan (an RSA verification), so the
   O(capacity) eviction is the right trade against a linked-list LRU's
   per-node overhead. Not domain-safe: callers wrap with their own
   mutex when shared. *)

type ('k, 'v) t = {
  capacity : int;
  tbl : ('k, 'v * int ref) Hashtbl.t;
  mutable tick : int;
}

let create capacity =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  { capacity; tbl = Hashtbl.create (max 16 capacity); tick = 0 }

let length t = Hashtbl.length t.tbl

let touch t stamp =
  t.tick <- t.tick + 1;
  stamp := t.tick

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | Some (v, stamp) ->
      touch t stamp;
      Some v
  | None -> None

let mem t k = Hashtbl.mem t.tbl k

let evict_oldest t =
  let victim =
    Hashtbl.fold
      (fun k (_, stamp) acc ->
        match acc with
        | Some (_, best) when best <= !stamp -> acc
        | _ -> Some (k, !stamp))
      t.tbl None
  in
  match victim with
  | Some (k, _) -> Hashtbl.remove t.tbl k
  | None -> ()

let put t k v =
  if t.capacity > 0 then begin
    (match Hashtbl.find_opt t.tbl k with
    | Some _ -> Hashtbl.remove t.tbl k
    | None -> if Hashtbl.length t.tbl >= t.capacity then evict_oldest t);
    t.tick <- t.tick + 1;
    Hashtbl.add t.tbl k (v, ref t.tick)
  end

let remove t k = Hashtbl.remove t.tbl k
let clear t = Hashtbl.reset t.tbl
