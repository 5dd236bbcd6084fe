(** Character-class encoding schemes for CAM storage (paper §3.2, [18]).

    CAMA-style CAMs do not store a 256-bit one-hot row per character class;
    they store short codes.  The {e multi-zero prefix} scheme splits the
    8-bit symbol into two nibbles and encodes each as a 16-bit one-hot,
    giving a 32-bit code.  One code then recognises any class that is a
    {e product} [H x L] of a set of high nibbles and a set of low nibbles;
    other classes need several codes (one CAM column each).

    RAP's CAM path for LNFA mode requires every class of the line to fit a
    {e single} 32-bit code (§3.2); the one-hot fallback in the local switch
    (256 bits, two switch columns) handles the rest. *)

val mzp_code_count : Charclass.t -> int
(** Number of 32-bit multi-zero-prefix codes needed to cover the class: a
    minimal-ish greedy cover by nibble products (one code per product).
    Singletons and contiguous aligned ranges give 1; arbitrary classes up
    to 16. *)

val fits_single_code : Charclass.t -> bool
(** [mzp_code_count cc = 1], i.e. the class is a nibble product — the
    LNFA CAM-path constraint.  The empty class is not a product. *)

val cam_columns_for_class : Charclass.t -> int
(** CAM columns an STE with this class occupies in NFA/NBVA mode: one per
    32-bit code. *)
