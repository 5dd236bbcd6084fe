(** Hardware-configuration IR: what the compiler hands to the mapper and
    the mapper hands to the simulator.

    A {e unit} is one regex compiled for one execution mode, with its
    resource demand broken down per tile.  Tiles inside a unit are indexed
    [0 .. tiles-1] (unit-local); the mapper later assigns unit-local tiles
    to physical tiles of an array. *)

type params = {
  unfold_threshold : int;
      (** Bounded repetitions with a finite bound below this are unfolded
          into plain states (§4.1). *)
  bv_depth : int;  (** Rows per BV word column (DSE parameter, Fig 10a). *)
  bin_size : int;  (** Max LNFAs per bin (DSE parameter, Fig 10b). *)
}

val default_params : params
(** threshold 8, depth 8, bin 8 — overridden per benchmark by the
    design-space exploration. *)

(** {1 NFA units} *)

type nfa_unit = {
  nfa : Nfa.t;
  exec : Nbva.t;
      (** The compressed executor the simulator steps: the same regex as
          an NBVA at unfold threshold 2, so every bounded-repetition chain
          of [nfa] is one bit-vector state.  Built once by the compiler
          and shared by every engine built from this unit. *)
  tile_of_state : int array;  (** state -> unit-local tile. *)
  tile_states : int array;  (** #STEs in each tile. *)
  tile_cols : int array;  (** CAM columns used in each tile. *)
  cross_edges : (int * int) list;  (** Edges crossing tile boundaries. *)
}

(** {1 NBVA units} *)

type bv_alloc = {
  ste : int;  (** NBVA state index. *)
  size : int;  (** Bits. *)
  width : int;  (** Columns = ceil(size / depth). *)
  read : Nbva.read_action;
}

type nbva_tile = {
  states : int list;  (** NBVA state indices mapped here. *)
  cc_cols : int;  (** Columns storing character-class codes. *)
  set1_cols : int;  (** Initial-vector columns (one per BV-STE entered). *)
  bv_cols : int;  (** Columns storing BV words. *)
  bvs : bv_alloc list;
}

type nbva_unit = {
  nbva : Nbva.t;
  depth : int;
  ntiles : nbva_tile array;
  tile_of_state : int array;
  cross_edges : (int * int) list;
  bv_bits_cap : int;
      (** Per-tile BV storage budget of the target design: 4064 bits on
          RAP (CAM columns), the BVM slot capacity on BVAP.  The mapper
          honours it when sharing tiles between units. *)
}

(** {1 LNFA units} *)

type lnfa_line = {
  labels : Charclass.t array;
  single_code : bool;
      (** Every class fits one 32-bit multi-zero-prefix code: the line can
          use the CAM path (1 CAM column per state); otherwise it uses the
          one-hot local-switch path (2 switch columns per state). *)
}

type lnfa_unit = { lines : lnfa_line list; states : int }

type unit_kind = U_nfa of nfa_unit | U_nbva of nbva_unit | U_lnfa of lnfa_unit

type compiled = {
  source : string;  (** Concrete syntax, for reports. *)
  ast : Ast.t;
  kind : unit_kind;
}

(** {1 Resource queries} *)

val mode_name : unit_kind -> string
val num_tiles : unit_kind -> int
(** Unit-local tile count ({b before} binning: an LNFA unit reports the
    unbinned demand [ceil(states/capacity)]). *)

val num_states : unit_kind -> int
val cols_of_tile : unit_kind -> int -> int
(** Columns used by unit-local tile [i]. *)
