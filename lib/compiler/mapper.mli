(** Greedy hardware mapping (paper §4.3), optionally defect-aware.

    The mapper packs at {e tile-piece} granularity: every compiled unit
    (and every LNFA bin) contributes a sequence of tile pieces; pieces of
    different units may share a physical tile when the mode and resource
    constraints allow, and all pieces of one unit land in one array
    (inter-array communication does not exist, §3.3).  Blocks are placed
    first-fit-decreasing by tile demand.

    Sharing rules per mode:
    {ul
    {- NFA pieces share by columns;}
    {- NBVA pieces share by columns and BV bits, and never mix [r(n)] with
       [rAll] reads in one tile;}
    {- LNFA bins own their tiles (the region layout is bin-wide).}}

    With a {!Defect.t} map ({!map_units_result}) placement becomes
    defect-aware: dead tiles are skipped, stuck CAM columns shrink a
    tile's effective capacity after spare-column repair, and blocks that
    no surviving array can host are dropped with a structured
    {!Compile_error.t} instead of aborting the whole rule set.

    The paper reports >90% utilisation from its grouping mapper; {!stats}
    exposes the same measure. *)

type piece =
  | P_unit of { unit_id : int; local_tile : int }
  | P_bin of { bin_id : int; bin_tile : int }

type tile_mode = T_nfa | T_nbva | T_lnfa

type placed_tile = {
  mode : tile_mode;
  phys : int;  (** Physical tile index within the array (defects skip slots). *)
  pieces : piece list;
}

type placement = {
  units : Program.compiled array;
  bins : Binning.bin array;
  bin_tables : Shift_and.t array;
      (** Per bin, its compiled Shift-And tables ({!Binning.shift_and}):
          built once with the placement and shared by every engine and
          clone stepping the bin. *)
  arrays : placed_tile array array;  (** Each inner array has <= 16 tiles. *)
}

type defect_stats = {
  dead_tiles_skipped : int;  (** Dead tiles inside arrays the placement uses. *)
  cols_lost : int;  (** Unrepaired stuck columns (CAM beyond spares + switch rows). *)
  cols_repaired : int;  (** Stuck CAM columns repaired from the spare pool. *)
}

val map_units_result :
  ?defects:Defect.t ->
  ?tile_cols:int ->
  params:Program.params ->
  Program.compiled array ->
  placement * Compile_error.t list * defect_stats
(** Defect-aware, non-raising mapping.  [tile_cols] (default 128) is the
    column capacity of a tile — the CA baseline maps onto 256-column
    tiles; [defects] defaults to [Defect.none].  Unplaceable blocks are
    dropped and reported (one error per affected source regex): a block
    that alone exceeds one array is [Oversize] on any chip.  The returned
    placement contains only placed units and bins, reindexed.  An LNFA
    regex whose lines spread over several bins may be partially placed
    when one of its bins is dropped; it is then reported dropped while its
    surviving lines still match. *)

(** {1 Reporting} *)

type stats = {
  num_arrays : int;
  num_tiles : int;
  cols_used : int;
  col_utilisation : float;  (** cols used / (tiles * tile capacity). *)
  tile_utilisation : float;  (** tiles used / (arrays * 16). *)
}

val stats : placement -> stats
val pp_stats : Format.formatter -> stats -> unit
val pp_defect_stats : Format.formatter -> defect_stats -> unit

val pp_placement : Format.formatter -> placement -> unit
(** Human-readable floorplan: one line per tile with its mode, occupancy
    and the units/bins whose pieces it hosts. *)
