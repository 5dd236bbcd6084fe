(** Mutable arbitrary-width bit vectors.

    These back both the software Shift-And engine and the bit vectors of
    BV-STEs in the NBVA simulators.  Bit 0 is the least significant; bits at
    or beyond [width] do not exist — shifts drop them, which is exactly the
    overflow behaviour of a hardware BV of that width.

    A vector is a window of [words_for width] consecutive words of an int
    array: {!create} gives it a private array, {!of_arena}/{!alloc_in}
    view a slice of a shared {!Arena} pool so a whole executor's state
    packs contiguously (one blit to snapshot, zero allocation to step).
    Operations never read or write outside the window. *)

type t

val bits_per_word : int
(** Usable bits per backing word (62 on 64-bit OCaml: tagged ints keep
    every operation allocation-free). *)

val words_for : int -> int
(** Backing words of a vector of the given width:
    [max 1 (ceil (width / bits_per_word))] — even width 0 owns one word
    so operations never special-case. *)

val create : int -> t
(** [create width] is an all-zero vector backed by a private array;
    [width >= 0]. *)

val of_arena : Arena.t -> off:int -> width:int -> t
(** A view of [words_for width] words of the arena starting at word
    offset [off] — no copy; mutations are visible through every view of
    the same words.  The slice stays valid for the arena's lifetime (the
    pool never reallocates).  Raises [Invalid_argument] when the window
    is not inside the arena's allocated prefix. *)

val alloc_in : Arena.t -> int -> t
(** [alloc_in arena width] is [of_arena] over freshly {!Arena.alloc}ed
    (all-zero) words. *)

val width : t -> int

val copy : t -> t
(** [copy t] is a self-backed copy (even of an arena slice). *)

val get : t -> int -> bool
(** Raises [Invalid_argument] when the index is out of bounds. *)

val set : t -> int -> unit
val reset : t -> int -> unit
val clear : t -> unit
(** Zero every bit. *)

val fill_ones : t -> unit
val is_zero : t -> bool
val equal : t -> t -> bool

val popcount : t -> int
(** Word-parallel (SWAR) bit count. *)

val popcount_word : int -> int
(** SWAR bit count of one backing word — for flat kernels that fold
    popcounts over raw word ranges. *)

val popcount_and : t -> t -> int
(** [popcount_and a b] is [popcount (a land b)] without allocating the
    intersection; operands must have equal width. *)

(** {1 Bulk operations} — operands must have equal width. *)

val or_in : t -> t -> unit
(** [or_in dst src] is [dst <- dst lor src]. *)

val and_in : t -> t -> unit
val blit : src:t -> dst:t -> unit

val get_word : t -> int -> int
(** [get_word t i] is backing word [i] ([0 <= i < words_for width]) —
    the raw word export primitive (state digests fold it).  Raises
    [Invalid_argument] out of bounds. *)

val set_word : t -> int -> int -> unit
(** [set_word t i w] stores [w] as backing word [i], masking away bits
    at or beyond [width] (and beyond {!bits_per_word}) so dropped bits
    never reappear.  Raises [Invalid_argument] out of bounds. *)

val intersects : t -> t -> bool
(** [true] when the two vectors share a set bit (no allocation). *)

val shift_left1 : t -> carry_in:bool -> unit
(** In-place shift towards higher indices; bit 0 becomes [carry_in]; the
    bit at [width-1] is dropped.  This is the paper's [shft(v)] and the
    Shift-And transition [(states << 1) | maskInitial]. *)

val lsb_index : int -> int
(** Bit position of the lowest set bit of a nonzero word — the ctz
    primitive flat kernels use to scan a word's set bits directly. *)

val pp : Format.formatter -> t -> unit
(** Most significant bit first, as in the paper's figures. *)
