(** NBVA compilation (paper §4.1): rewriting, oversized-repetition
    splitting, and partitioning of the automaton onto tiles.

    Pipeline, in order:
    + unfolding rewriting ({!Rewrite.unfold_for_nbva}),
    + bounded-repetition rewriting ({!Rewrite.split_bounded}),
    + splitting of repetitions whose bit vector exceeds one tile
      (Example 4.3's dichotomic search reduces to a closed form: the
      largest bound [k] such that [2 + ceil(k/depth) <= 128] columns),
    + word alignment ({!Rewrite.pad_to_depth}),
    + generalised Glushkov construction ({!Nbva.of_ast}),
    + greedy tile partitioning under the §4.1 constraints: at most 128 CAM
      columns per tile, at most {!Circuit.max_bv_bits_per_tile} BV bits,
      no [r(n)] and [rAll] actions in the same tile, and at most 32
      exported (cross-tile) STEs per tile. *)

val max_single_bv_bits : depth:int -> int
(** Largest bound representable in one tile at the given depth
    (504 at depth 4, matching Example 4.3). *)

val split_oversized : depth:int -> Ast.t -> Ast.t
(** Rewrite [cc{m}] (and [cc{0,k}]) whose vector would not fit a tile into
    a concatenation of maximal fitting chunks. *)

val compile : params:Program.params -> Ast.t -> Program.nbva_unit
(** The full pipeline.  Raises [Invalid_argument] if the regex cannot be
    mapped (e.g. a single state class needing more than 128 columns). *)

val compile_bvap : params:Program.params -> Ast.t -> Program.nbva_unit
(** BVAP-flavoured partitioning: bit vectors live in the per-tile BVM
    rather than CAM columns, so a tile's CAM holds only CC codes, but BVs
    consume fixed 512-bit BVM slots (16 per tile), wasting the remainder of
    a slot — the provisioning rigidity the paper contrasts RAP against.
    The [bv_cols] field of the resulting tiles records BVM slot columns
    (4 per slot) for energy accounting. *)
