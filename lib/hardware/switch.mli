(** Energy model of the FCB crossbar switches.

    The 128x128 local switch realises state transitions inside a tile (one
    traversal per symbol when the tile has active STEs); the 256x256 global
    switch routes the 32 exported STEs of each tile across an array.  Both
    are 8T-SRAM arrays per Table 1; access energy scales with the number of
    rows actually driven by active states. *)

val local_traverse_pj : active_rows:int -> float
(** One local-switch traversal with [active_rows] of 128 rows driven. *)

val global_traverse_pj : active_rows:int -> float
(** One global-switch traversal with [active_rows] of 256 rows driven. *)

val wire_pj : hops:int -> float
(** Global-wire energy for [hops] cross-tile signals
    ({!Circuit.global_wire_mm_per_hop} mm each). *)
