type model = {
  energy_min_pj : float;
  energy_max_pj : float;
  delay_ps : float;
  area_um2 : float;
  leakage_ua : float;
}

(* Table 1, verbatim. *)
let sram_128x128 =
  { energy_min_pj = 1.; energy_max_pj = 14.; delay_ps = 298.; area_um2 = 5655.; leakage_ua = 57. }

let sram_256x256 =
  { energy_min_pj = 2.; energy_max_pj = 55.; delay_ps = 410.; area_um2 = 18153.; leakage_ua = 228. }

let cam_32x128 =
  { energy_min_pj = 4.; energy_max_pj = 4.; delay_ps = 325.; area_um2 = 2626.; leakage_ua = 14. }

let local_controller =
  { energy_min_pj = 2.; energy_max_pj = 2.; delay_ps = 90.; area_um2 = 2900.; leakage_ua = 18. }

let global_controller =
  { energy_min_pj = 2.; energy_max_pj = 2.; delay_ps = 400.; area_um2 = 1400.; leakage_ua = 9. }

let global_wire_mm =
  { energy_min_pj = 0.07; energy_max_pj = 0.07; delay_ps = 66.; area_um2 = 50.; leakage_ua = 0. }

let supply_voltage_v = 0.9

let access_energy_pj m ~activity =
  let a = Float.max 0. (Float.min 1. activity) in
  m.energy_min_pj +. ((m.energy_max_pj -. m.energy_min_pj) *. a)

let leakage_pj_per_cycle m ~clock_ghz =
  (* I(uA) * V(V) gives uW; one cycle lasts 1/clock ns; uW * ns = fJ *)
  m.leakage_ua *. supply_voltage_v /. clock_ghz /. 1000.

(* Clock rates: RAP from its pipeline analysis (§5.2); baselines from the
   throughput columns of Tables 2 and 3. *)
let rap_clock_ghz = 2.08
let cama_clock_ghz = 2.14
let ca_clock_ghz = 1.82
let bvap_clock_ghz = 2.00

let tile_cam_rows = 32
let tile_cam_cols = 128
let tiles_per_array = 16
let arrays_per_bank = 4
let max_bin_size = 32
let max_bv_bits_per_tile = 4064

(* One array is ~16 tiles of ~0.011 mm^2, i.e. on the order of half a
   millimetre across; a cross-tile hop traverses a fraction of that. *)
let global_wire_mm_per_hop = 0.3

let rap_tile_area_um2 =
  cam_32x128.area_um2 +. sram_128x128.area_um2 +. local_controller.area_um2

(* CAMA shares one simpler controller between tiles: charge half a local
   controller per tile (fitted to the RAP-NFA/CAMA area ratio of Table 2). *)
let cama_tile_area_um2 =
  cam_32x128.area_um2 +. sram_128x128.area_um2 +. (local_controller.area_um2 /. 2.)

(* Cache Automaton: sense-amplifier state matching in a 256x256 8T-SRAM
   slice plus a 256x256 switch; 256 STEs per tile. *)
let ca_tile_area_um2 =
  sram_256x256.area_um2 +. sram_256x256.area_um2 +. (local_controller.area_um2 /. 2.)

let ca_tile_stes = 256

(* BVAP's add-on module: one 128x128 SRAM of bit vectors, the MFCB
   multibit routing switch (second 128x128 array) and its control. *)
let bvap_bvm_area_um2 =
  sram_128x128.area_um2 +. sram_128x128.area_um2 +. (local_controller.area_um2 /. 2.)

let array_overhead_um2 =
  sram_256x256.area_um2 (* 256x256 global FCB *)
  +. global_controller.area_um2
  +. (16. *. global_wire_mm_per_hop *. global_wire_mm.area_um2)
