(** Plain NFA compilation: the classical Glushkov construction (§4,
    "we omit the NFA procedure") plus tile partitioning.

    States are sliced onto tiles in Glushkov position order under two
    constraints: the class codes of a tile fit its 128 CAM columns, and at
    most 32 of its STEs drive cross-tile edges (the tile's share of the
    global switch, §3.3).  When the export bound trips, the tile closes
    early at the last admissible boundary.

    The unit also carries its compressed executor
    ([Nbva.compile ~threshold:2]), compiled here once so that building
    an engine compiles nothing. *)

val compile :
  ?tile_capacity_cols:int -> ?col_demand:(Charclass.t -> int) -> Ast.t -> Program.nfa_unit
(** Defaults model the RAP/CAMA tile (128 columns, multi-zero-prefix
    codes); the Cache Automaton baseline passes 256 columns and a demand
    of one column per STE (row-indexed matching needs no codes).  Raises
    [Invalid_argument] when the executor cannot be built. *)

val fits_array : Program.nfa_unit -> bool
(** At most 16 tiles, i.e. 2048 STEs (§3.3). *)
