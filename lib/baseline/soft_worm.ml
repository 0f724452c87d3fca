module Disk = Worm_simdisk.Disk
module Clock = Worm_simclock.Clock
module Sha256 = Worm_crypto.Sha256
open Worm_core

type record_id = int

type meta = { rdl : Disk.addr list; checksum : string; created_at : int64; policy : Policy.t; deleted : bool }

type t = {
  disk : Disk.t;
  clock : Clock.t;
  (* "logically unaddressable" checksum + metadata region — still just
     host memory, which is the whole problem *)
  table : (record_id, meta) Hashtbl.t;
  mutable next_id : int;
}

let create ?disk ~clock () =
  let disk =
    match disk with
    | Some d -> d
    | None -> Disk.create ()
  in
  { disk; clock; table = Hashtbl.create 256; next_id = 0 }

(* Same digest as [Sha256.digest (String.concat "\x00" blocks)], minus
   the concatenation. *)
let rec sep_parts = function
  | [] -> []
  | [ b ] -> [ b ]
  | b :: rest -> b :: "\x00" :: sep_parts rest

let checksum_of blocks = Sha256.digest_parts (sep_parts blocks)

let write t ~policy ~blocks =
  let id = t.next_id in
  t.next_id <- id + 1;
  let rdl = List.map (Disk.write t.disk) blocks in
  Hashtbl.replace t.table id
    { rdl; checksum = checksum_of blocks; created_at = Clock.now t.clock; policy; deleted = false };
  id

type read_result = Ok_data of string list | Checksum_mismatch | Deleted | Never_written

let read t id =
  match Hashtbl.find_opt t.table id with
  | None -> Never_written
  | Some meta when meta.deleted -> Deleted
  | Some meta -> begin
      let blocks = List.map (Disk.read t.disk) meta.rdl in
      if List.exists Option.is_none blocks then Checksum_mismatch
      else begin
        let blocks = List.filter_map Fun.id blocks in
        if String.equal (checksum_of blocks) meta.checksum then Ok_data blocks else Checksum_mismatch
      end
    end

let delete t id =
  match Hashtbl.find_opt t.table id with
  | None -> Error "no such record"
  | Some meta when meta.deleted -> Error "already deleted"
  | Some meta ->
      let expiry = Int64.add meta.created_at meta.policy.Policy.retention_ns in
      if Int64.compare (Clock.now t.clock) expiry <= 0 then Error "retention period has not lapsed"
      else begin
        List.iter (fun rd -> ignore (Disk.shred t.disk ~passes:meta.policy.Policy.shred_passes rd)) meta.rdl;
        Hashtbl.replace t.table id { meta with deleted = true };
        Ok ()
      end

module Raw = struct
  let tamper_and_fix_checksum t id blocks' =
    match Hashtbl.find_opt t.table id with
    | None -> false
    | Some meta when meta.deleted -> false
    | Some meta ->
        if List.length blocks' <> List.length meta.rdl then false
        else begin
          List.iter2 (fun rd b -> ignore (Disk.Raw.tamper t.disk rd ~f:(fun _ -> b))) meta.rdl blocks';
          Hashtbl.replace t.table id { meta with checksum = checksum_of blocks' };
          true
        end

  let hide t id =
    match Hashtbl.find_opt t.table id with
    | None -> false
    | Some meta ->
        List.iter (fun rd -> ignore (Disk.Raw.delete t.disk rd)) meta.rdl;
        Hashtbl.remove t.table id;
        true

  let force_delete t id =
    match Hashtbl.find_opt t.table id with
    | None -> false
    | Some meta ->
        List.iter (fun rd -> ignore (Disk.Raw.delete t.disk rd)) meta.rdl;
        Hashtbl.replace t.table id { meta with deleted = true };
        true
end
