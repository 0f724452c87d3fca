(** Classified compliance findings.

    Every anomaly the scrubber surfaces is reduced to one of a small set
    of classes, chosen so that each class maps to exactly one repair
    action (see {!Scrubber.repair_all}) and so that the fault-injection
    tests can assert a one-to-one correspondence between what was broken
    and what was reported. *)

open Worm_core

type cls =
  | Stale_bound  (** a bound's timestamp is past the freshness limit *)
  | Bad_signature  (** a witness / proof / bound signature fails to verify *)
  | Data_mismatch  (** stored bytes do not hash to the signed value *)
  | Missing_proof  (** an absence was claimed without a covering proof *)
  | Torn_window  (** deletion-window bounds inconsistent or covering live SNs *)
  | Unreadable  (** data blocks destroyed — no proof either way *)
  | Backlog_anomaly  (** deferred/audit queues reference dead records or are overdue *)

type subject =
  | Record of Serial.t
  | Window of Serial.t * Serial.t  (** (lo, hi) of the offending window *)
  | Bounds  (** the store-wide base/current bounds *)
  | Journal
  | Backlog

type t = { subject : subject; cls : cls; detail : string }

val make : subject -> cls -> string -> t
val cls_name : cls -> string
val subject_to_string : subject -> string
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val of_violations : Client.violation list -> cls
(** Collapse a client verdict's violation list to the dominant class
    (data mismatch > torn window > bad signature > missing proof >
    stale bound). *)

val of_firmware_error : Firmware.error -> cls
(** Classify failures surfaced by idle maintenance
    ({!Worm.drain_audit_findings}). *)

val encode : Worm_util.Codec.encoder -> t -> unit
val decode : Worm_util.Codec.decoder -> t
