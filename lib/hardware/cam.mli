(** Energy model of the 32x128 8T-CAM tile memory.

    In NFA/LNFA modes the CAM performs one {e search} per input symbol over
    the enabled columns; in NBVA mode the same array also serves BV words
    with read and write accesses during the bit-vector-processing phase
    (§3.1, unified storage). *)

val search_pj : enabled_cols:int -> float
(** One state-matching search with [enabled_cols] of the 128 columns
    precharged.  Table 1 gives 4 pJ for a full search; scaling is linear in
    the enabled fraction with a floor of one column. *)

val bv_word_read_pj : bv_cols:int -> float
(** Read one BV word spanning [bv_cols] columns. *)

val bv_word_write_pj : bv_cols:int -> float
