let local_traverse_pj ~active_rows =
  Circuit.access_energy_pj Circuit.sram_128x128 ~activity:(float_of_int active_rows /. 128.)

let global_traverse_pj ~active_rows =
  Circuit.access_energy_pj Circuit.sram_256x256 ~activity:(float_of_int active_rows /. 256.)

let wire_pj ~hops =
  float_of_int hops *. Circuit.global_wire_mm_per_hop
  *. Circuit.global_wire_mm.Circuit.energy_min_pj
