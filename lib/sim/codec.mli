(** The byte codec shared by every binary format of the stack: run
    checkpoints and the request spool ({!Checkpoint}), typed errors
    ({!Sim_error.to_wire}) and the service protocol ([Wire]).

    Integers are little-endian, strings and arrays carry a u32 length
    prefix, and floats travel as their exact IEEE-754 bits, so a round
    trip is the identity even for values with no finite decimal form. *)

(** {1 Writers} *)

val w_u8 : Buffer.t -> int -> unit
(** The low 8 bits. *)

val w_u32 : Buffer.t -> int -> unit
(** Raises [Invalid_argument] outside [\[0, 2{^32})]: a value that does
    not fit is refused, never truncated. *)

val w_i64 : Buffer.t -> int -> unit
val w_f64 : Buffer.t -> float -> unit

val w_str : Buffer.t -> string -> unit
(** u32 length, then the bytes. *)

val w_array : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a array -> unit
(** u32 count, then each element. *)

(** {1 Readers}

    A reader walks a cursor over one payload and raises {!Corrupt} on
    truncation. *)

exception Corrupt of string

type cursor

val r_u8 : cursor -> int
val r_u32 : cursor -> int
val r_i64 : cursor -> int
val r_f64 : cursor -> float
val r_str : cursor -> string
val r_array : (cursor -> 'a) -> cursor -> 'a array

val decode : ?at:int -> (cursor -> 'a) -> string -> ('a, string) result
(** Run a reader over a payload: the bytes of the string from [at]
    (default 0) to its end, so a payload read with its envelope is
    decoded where it lies.  [Error detail] on truncation, on
    a {!Corrupt} the reader raises itself (an unknown tag), or on
    trailing bytes; never raises, since payloads may come from the
    network. *)
