(** Permanent-defect map of a manufactured chip.

    RAP stores state in 8T-SRAM CAM cells and crossbar switches — exactly
    the structures where stuck-at defects dominate in-memory designs.  A
    [t] describes one sampled chip: dead tiles, stuck CAM columns
    (column granularity, the cell array's repair unit) and stuck crossbar
    switch rows, keyed by (array, tile, column/row).

    The paper keeps {e spare CAM columns} next to the NBVA bit-vector
    columns; [spare_cols] models that pool per tile: up to that many stuck
    CAM columns are repaired for free.  Stuck switch rows are not
    CAM-repairable and always cost a column of capacity.

    [none] is the pristine unbounded chip — the defect-free mapper path is
    bit-identical to mapping without a defect map at all. *)

type t

val none : t
(** Pristine chip, unbounded number of arrays, no defects. *)

val create :
  ?chip_arrays:int ->
  ?spare_cols:int ->
  ?dead_tiles:(int * int) list ->
  ?stuck_cam_cols:(int * int * int) list ->
  ?stuck_switch_rows:(int * int * int) list ->
  unit ->
  t
(** [chip_arrays] bounds the physical arrays available to the mapper
    (default: unbounded); sites are [(array, tile)] resp.
    [(array, tile, column)] / [(array, tile, row)].  [spare_cols] defaults
    to {!default_spare_cols}. *)

val default_spare_cols : int

val is_trivial : t -> bool
(** No defects and no array bound: mapping behaves exactly as pristine. *)

val array_exists : t -> int -> bool
(** Whether physical array [i] exists on this chip. *)

val is_dead_tile : t -> array_id:int -> tile:int -> bool

val tile_loss : t -> array_id:int -> tile:int -> int * int
(** [(lost, repaired)] columns for this tile: stuck CAM columns beyond the
    spare pool plus stuck switch rows are [lost]; CAM columns covered by
    spares are [repaired]. *)

val usable_cols : t -> array_id:int -> tile:int -> nominal:int -> int
(** [nominal] minus unrepaired losses, clamped at 0 (0 for dead tiles). *)

val pp : Format.formatter -> t -> unit
