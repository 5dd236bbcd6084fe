(** Multi-LNFA binning (paper §3.2 "Multi-LNFA Binning" and §4.3).

    Lines are grouped into bins so that all initial states of a bin land in
    its first tile; the remaining tiles of the bin power-gate whenever no
    state of theirs is active.  A bin of [slots] lines splits every tile
    into [slots] regions; every member line is treated as having the length
    of the longest line in the bin (partial regions are wasted area, the
    DSE trade-off of Fig 10b).

    Binning algorithm (§4.3): sort lines by decreasing length; greedily
    open a bin with the largest slot count allowed, halving the slot count
    whenever the current line is too long for the bin's per-line capacity.

    CAM-path and switch-path lines are binned separately: they use
    different storage and hence different per-tile capacities. *)

type bin = {
  members : (int * Program.lnfa_line) list;
      (** (owner unit id, line); at most [slots] entries. *)
  slots : int;  (** Lines the bin is dimensioned for (power of two). *)
  region_states : int;  (** States per line per tile. *)
  max_len : int;  (** Longest member line. *)
  tiles : int;  (** ceil(max_len / region_states). *)
  single_code : bool;
}

val capacity_per_tile : single_code:bool -> int
(** 192 states for single-code bins (128 CAM columns + 64 one-hot switch
    slots) or 64 one-hot slots for switch-path bins. *)

val pack : max_bin_size:int -> (int * Program.lnfa_line) list -> bin list
(** [pack ~max_bin_size lines] bins the given (unit id, line) pairs.
    [max_bin_size] is clamped to [1 .. Circuit.max_bin_size] and rounded
    down to a power of two. *)

val shift_and : bin -> Shift_and.t
(** The bin's Shift-And engine: its members' lines packed in member
    order, the layout the simulator's tile maps assume.  The mapper
    compiles it once per bin ({!Mapper.placement}'s [bin_tables]). *)
