(** Circuit-level models in 28nm CMOS (paper Table 1).

    Every energy/area/delay number the evaluation uses comes from this
    module.  The SPICE-characterised values are the paper's Table 1 taken
    verbatim; the handful of fitted constants (clock rates of the baseline
    designs, controller energies of the baselines) are the operating points
    the paper reports for those designs and are marked as such. *)

type model = {
  energy_min_pj : float;
      (** Access energy at minimal activity (one active row/column). *)
  energy_max_pj : float;  (** Access energy with the array fully active. *)
  delay_ps : float;
  area_um2 : float;
  leakage_ua : float;
}

(** {1 Table 1 entries} *)

val sram_128x128 : model
val sram_256x256 : model
val cam_32x128 : model
val local_controller : model
val global_controller : model
val global_wire_mm : model
(** Per millimetre of global wire. *)

(** {1 Derived quantities} *)

val access_energy_pj : model -> activity:float -> float
(** Linear interpolation between [energy_min_pj] and [energy_max_pj];
    [activity] is clamped to [0, 1].  An access with [activity = 0.] still
    costs [energy_min_pj] (precharge and sensing of one line). *)

val leakage_pj_per_cycle : model -> clock_ghz:float -> float
(** Static energy per clock cycle at {!supply_voltage_v}. *)

val supply_voltage_v : float
(** 0.9 V nominal for the 28nm process. *)

(** {1 Clock rates (GHz)}

    RAP's 2.08 GHz derives from its 436.1 ps worst pipeline stage + 10%
    margin (§5.2); the baseline rates are the operating points reported in
    Tables 2 and 3. *)

val rap_clock_ghz : float
val cama_clock_ghz : float
val ca_clock_ghz : float
val bvap_clock_ghz : float

(** {1 Architectural geometry (§3.3)} *)

val tile_cam_rows : int (* 32 *)
val tile_cam_cols : int (* 128: STEs per tile *)
val tiles_per_array : int (* 16 *)
val arrays_per_bank : int (* 4 *)
val max_bin_size : int (* 32 *)
val max_bv_bits_per_tile : int (* 4064 *)
val global_wire_mm_per_hop : float
(** Average global-wire length charged per cross-tile transition (fitted
    from CA's wire model; one array is on the order of 1 mm across). *)

(** {1 Tile and array areas (um^2)} *)

val rap_tile_area_um2 : float
(** CAM + local switch + local controller. *)

val cama_tile_area_um2 : float
(** Same memories, simpler (shared) control: CAM + local switch + half a
    local controller (fitted). *)

val ca_tile_area_um2 : float
(** Cache Automaton: 256x256 SRAM state-matching array + 256x256 switch +
    shared controller; holds 256 STEs. *)

val ca_tile_stes : int

val bvap_bvm_area_um2 : float
(** BVAP's Bit Vector Module: dedicated 128x128 BV SRAM + semi-parallel
    multibit switch (MFCB, modelled as a second 128x128 array) + control.
    Allocated per BVAP tile that may host BV-STEs, used or not. *)

val array_overhead_um2 : float
(** Global switch + global controller + global wiring per 16-tile array. *)
