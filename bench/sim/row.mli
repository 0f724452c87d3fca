(** Result rows for the paper's experiments.

    A row is an ordered list of named values. Every experiment in
    {!Sim} and every bench section produces rows; {!print} renders them
    as text, {!to_json} as JSON, and tests and gates read them back by
    key with {!get}. *)

type value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Row of t
  | List of value list

and t = (string * value) list

val print : t -> unit
(** Text rendering on stdout: one [key value] line per field, with a
    nested row's fields named [key.field]. A field holding a list of
    rows prints as a table under its key, whose column headers are the
    keys of the list's first row, flattened the same way; a list of
    rows inside a table row prints as an indented table under it. *)

val to_json : t -> string
(** Compact JSON object, fields in row order. Floats print with
    [%.12g]; nan and the infinities, which JSON cannot spell, print as
    [null]. *)

type 'a kind
(** What {!get} expects a key to hold. *)

val int : int kind
val float : float kind
val str : string kind
val bool : bool kind
val row : t kind
val rows : t list kind

val get : 'a kind -> string -> t -> 'a
(** [get kind key r] is the value of [key] in [r]. There is no default,
    so a misspelt key fails loudly.
    @raise Failure naming [key] if [r] has no such key or its value is
    of another kind. *)
