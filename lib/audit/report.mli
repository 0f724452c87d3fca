(** Machine-readable audit health reports.

    The end product of a scrub pass: what was covered, what it cost, and
    every classified finding. [to_json] emits the stable wire form that
    `wormctl audit` prints and external compliance tooling consumes. *)

open Worm_core

type t = {
  store_id : string;
  sn_base : Serial.t;
  sn_current : Serial.t;
  records_scanned : int;  (** per-SN outcomes verified this pass *)
  slices : int;  (** budgeted slices the pass took *)
  host_ns : int64;  (** host CPU charged for verification work *)
  pass_complete : bool;  (** [false]: interim snapshot mid-pass *)
  findings : Finding.t list;
}

val clean : t -> bool
(** A complete pass with zero findings. *)

val summary : t -> string
(** One human-readable line. *)

val to_json : t -> string
(** Stable JSON object (schema [worm-audit-report/1]). *)
