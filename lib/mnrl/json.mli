(** Minimal JSON representation, printer and parser.

    Self-contained (the build environment is sealed, so no external JSON
    dependency); covers the subset MNRL files use: objects, arrays,
    strings with escapes, integers, floats, booleans and null. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string * int
(** Message and byte offset. *)

val to_string : ?pretty:bool -> t -> string
val of_string : string -> t
(** @raise Parse_error on malformed input. *)

val of_string_result : string -> (t, string) result

(** {1 Accessors} — total functions returning [option]. *)

val member : string -> t -> t option
val to_list_opt : t -> t list option
val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
