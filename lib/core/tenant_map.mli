(** Host-side index from tenant id to the serials it wrote.

    Untrusted bookkeeping: crypto-erasure is enforced inside the SCPU
    ({!Firmware.erase_tenant} destroys the key whether or not the host
    kept this map honest). The map exists so the host can enumerate a
    tenant's records without a VRDT scan — reporting, maintenance
    skipping — and is rebuilt from VRDT attributes on restore. Serials
    with the empty tenant id are never indexed. *)

type t

val create : unit -> t
val note : t -> tenant:string -> sn:Serial.t -> unit
val remove : t -> tenant:string -> sn:Serial.t -> unit
val serials : t -> string -> Serial.t list
(** Ascending. *)

val count : t -> string -> int
val tenants : t -> string list
(** Tenants with at least one live record, sorted. *)
