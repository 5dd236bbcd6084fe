(** Character classes: predicates over the byte alphabet [0, 255].

    A character class is the label attached to every homogeneous-NFA state
    and the basic matching unit of all three RAP execution modes.  It is
    represented as an immutable 256-bit set, so all operations are O(1)
    (four 64-bit words). *)

type t

(** {1 Constructors} *)

val empty : t
(** The class matching no symbol. *)

val full : t
(** The class matching every symbol (PCRE [.] with DOTALL; the paper's
    [Sigma]). *)

val singleton : char -> t
(** [singleton c] matches exactly [c]. *)

val of_byte : int -> t
(** [of_byte b] matches the byte [b]; raises [Invalid_argument] unless
    [0 <= b < 256]. *)

val of_range : char -> char -> t
(** [of_range lo hi] matches every byte in the inclusive range; raises
    [Invalid_argument] if [lo > hi]. *)

val of_string : string -> t
(** [of_string s] matches any character occurring in [s]. *)

(** {1 Boolean algebra} *)

val union : t -> t -> t
val complement : t -> t

(** {1 Queries} *)

val mem : t -> char -> bool
val mem_byte : t -> int -> bool
val low_nibbles : t -> int -> int
(** [low_nibbles cc h] is the 16-bit set of the low nibbles [l] for which
    byte [16h + l] is a member, bit [l] for [l]; [0 <= h < 16]. *)

val is_empty : t -> bool
val is_full : t -> bool
val cardinal : t -> int
val equal : t -> t -> bool
val choose : t -> char option
(** Smallest member, if any. *)

(** {1 Iteration} *)

val iter : (int -> unit) -> t -> unit
(** [iter f cc] applies [f] to each member byte in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val to_bytes : t -> int list
(** Members in increasing order. *)

(** {1 Common classes (PCRE escapes)} *)

val digit : t (* \d *)
val word : t (* \w *)
val space : t (* \s *)
val dot : t
(** PCRE [.] without DOTALL: everything except ['\n']. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** Prints a PCRE-compatible class, e.g. [[a-z0-9_]], choosing the
    complemented form when it is shorter. *)

val to_string : t -> string
