(** Abstract syntax of regular expressions.

    The grammar follows the paper (§2.1):
    [r := eps | cc | r|r | r.r | r* | r{m,n}], extended with the usual
    conveniences [r?], [r+] and unbounded repetition [r{m,}].  Bounded
    repetition is kept as a first-class node — it is the construct the NBVA
    mode compresses, so rewriting passes must see it un-expanded. *)

type t =
  | Epsilon  (** Matches the empty string. *)
  | Class of Charclass.t  (** Matches one symbol of the class. *)
  | Concat of t * t
  | Alt of t * t
  | Star of t
  | Repeat of t * int * int option
      (** [Repeat (r, m, Some n)] is [r{m,n}]; [Repeat (r, m, None)] is
          [r{m,}].  Invariant (enforced by {!repeat}): [0 <= m] and
          [m <= n]. *)

(** {1 Smart constructors}

    These apply the evident simplifications (identity elements, empty
    classes) so that rewriting passes can rebuild nodes without
    re-normalising. *)

val epsilon : t
val cls : Charclass.t -> t
val chr : char -> t
val str : string -> t
(** Concatenation of the singletons of each character. *)

val concat : t -> t -> t
val concat_list : t list -> t
val alt : t -> t -> t
val alt_list : t list -> t
(** [alt_list []] raises [Invalid_argument]. *)

val star : t -> t
val plus : t -> t
val opt : t -> t
val repeat : t -> int -> int option -> t
(** Normalises degenerate bounds: [r{0,0} = eps], [r{1,1} = r],
    [r{0,} = r*].  Raises [Invalid_argument] if [m < 0] or [n < m]. *)

(** {1 Queries} *)

val equal : t -> t -> bool
val literal_width : t -> int
(** Number of [Class] leaves counted with bounded repetitions unfolded —
    i.e. the number of Glushkov positions of the fully unfolded regex.
    Unbounded tails [r{m,}] count as [m + 1] copies of [r].  This is the
    STE demand of NFA mode. *)

val has_bounded_repetition : t -> bool
(** [true] when some [Repeat] node with a finite upper bound remains.
    Plain optionality [r?] (i.e. [Repeat (r, 0, Some 1)]) does not count:
    it needs no counter, so it is part of the "unfolded" normal form. *)

val witness : t -> string
(** A shortest string the regex matches whole: a class's first byte,
    the shorter branch of an alternation, no iteration of a star and the
    least number of a repetition's.  Raises [Invalid_argument] on a
    [Class] with no byte (one built without {!cls}). *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** Prints PCRE-compatible concrete syntax that {!Parser.parse} accepts
    back. *)

val to_string : t -> string
