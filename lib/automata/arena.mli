(** Fixed-capacity word pools backing packed run state.

    An arena is one flat [int array] that holds every mutable vector of an
    executor — active masks, scratch buffers, BV words — as contiguous
    word ranges handed out by {!alloc}.  Two properties follow:

    - snapshot, restore and whole-state cloning are a single [Array.blit]
      over the used prefix instead of a record-graph copy;
    - the capacity is fixed at {!create} and the backing array is never
      reallocated, so a {!Bitvec.of_arena} slice taken at any point stays
      valid for the arena's whole lifetime.

    Offsets are in words ({!Bitvec.bits_per_word} usable bits each), not
    bytes or bits. *)

type t

val create : capacity:int -> t
(** An all-zero pool of [capacity] words with nothing allocated.  The
    capacity never grows; compute it up front. *)

val alloc : t -> int -> int
(** [alloc t n] reserves the next [n] words and returns their offset.
    Fresh words are zero.  Raises [Invalid_argument] when the arena is
    full — allocation is monotonic; there is no free. *)

val used : t -> int

val words : t -> int array
(** The backing array itself, for flat kernels that index word ranges
    directly.  Callers must stay within ranges they allocated. *)

(** {1 Guard words}

    A guard is one allocated word holding an offset-dependent canary.
    Placed between (or after) the live vectors of an executor's arena,
    it catches out-of-range writes and random corruption: any write that
    lands on it is visible to {!guards_ok}.  Guards travel with
    {!snapshot}/{!restore} like ordinary words, so clones and rollbacks
    stay guarded for free. *)

val guard : t -> unit
(** Allocate one word and arm it as a guard. *)

val guards_ok : t -> bool
(** [true] iff every guard word still holds its canary. *)

val rearm_guards : t -> unit
(** Rewrite every guard word's canary.  A flat snapshot taken before a
    guard was tripped restores the canary by itself; this is for healing
    paths that restore state by other means. *)

val snapshot : t -> int array
(** Copy of the used prefix — the whole mutable state in one blit. *)

val restore : t -> int array -> unit
(** Inverse of {!snapshot}.  Raises [Invalid_argument] when the length
    does not match the arena's used prefix. *)
