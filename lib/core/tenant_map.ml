(* Host-side tenant -> serials index. Untrusted bookkeeping: erasure
   correctness never depends on it (the SCPU refuses erased keys
   regardless), it only lets the host answer "which records did this
   tenant write" without scanning the VRDT, and lets maintenance skip
   erased records cheaply. Rebuilt from VRDT attrs on restore. *)

type t = { table : (string, Serial.Set.t ref) Hashtbl.t }

let create () = { table = Hashtbl.create 16 }

let note t ~tenant ~sn =
  if not (String.equal tenant "") then begin
    match Hashtbl.find_opt t.table tenant with
    | Some set -> set := Serial.Set.add sn !set
    | None -> Hashtbl.replace t.table tenant (ref (Serial.Set.singleton sn))
  end

let remove t ~tenant ~sn =
  if not (String.equal tenant "") then begin
    match Hashtbl.find_opt t.table tenant with
    | Some set ->
        set := Serial.Set.remove sn !set;
        if Serial.Set.is_empty !set then Hashtbl.remove t.table tenant
    | None -> ()
  end

let serials t tenant =
  match Hashtbl.find_opt t.table tenant with
  | Some set -> Serial.Set.elements !set
  | None -> []

let count t tenant =
  match Hashtbl.find_opt t.table tenant with Some set -> Serial.Set.cardinal !set | None -> 0

let tenants t = Hashtbl.fold (fun tenant _ acc -> tenant :: acc) t.table [] |> List.sort String.compare
