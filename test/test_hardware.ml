(* Circuit models (Table 1), encodings, energy ledger, buffers. *)

open Alcotest

let feq = float 1e-9

let test_table1_values () =
  check feq "CAM search" 4. Circuit.cam_32x128.Circuit.energy_max_pj;
  check feq "CAM area" 2626. Circuit.cam_32x128.Circuit.area_um2;
  check feq "SRAM128 min" 1. Circuit.sram_128x128.Circuit.energy_min_pj;
  check feq "SRAM128 max" 14. Circuit.sram_128x128.Circuit.energy_max_pj;
  check feq "SRAM256 max" 55. Circuit.sram_256x256.Circuit.energy_max_pj;
  check feq "SRAM256 area" 18153. Circuit.sram_256x256.Circuit.area_um2;
  check feq "controller energy" 2. Circuit.local_controller.Circuit.energy_min_pj;
  check feq "wire" 0.07 Circuit.global_wire_mm.Circuit.energy_min_pj

let test_access_interpolation () =
  let m = Circuit.sram_128x128 in
  check feq "zero activity = floor" 1. (Circuit.access_energy_pj m ~activity:0.);
  check feq "full activity = max" 14. (Circuit.access_energy_pj m ~activity:1.);
  check feq "half way" 7.5 (Circuit.access_energy_pj m ~activity:0.5);
  check feq "clamped above" 14. (Circuit.access_energy_pj m ~activity:3.);
  check feq "clamped below" 1. (Circuit.access_energy_pj m ~activity:(-1.))

let test_leakage () =
  (* 57 uA * 0.9 V = 51.3 uW; at 2 GHz one cycle is 0.5 ns -> 25.65 fJ *)
  let pj = Circuit.leakage_pj_per_cycle Circuit.sram_128x128 ~clock_ghz:2.0 in
  check (float 1e-6) "leakage per cycle" 0.025650 pj

let test_clocks () =
  check feq "RAP clock" 2.08 Circuit.rap_clock_ghz;
  check feq "CAMA clock" 2.14 Circuit.cama_clock_ghz;
  check feq "CA clock" 1.82 Circuit.ca_clock_ghz;
  check feq "BVAP clock" 2.00 Circuit.bvap_clock_ghz

let test_geometry () =
  check int "tile cols" 128 Circuit.tile_cam_cols;
  check int "tiles per array" 16 Circuit.tiles_per_array;
  check int "max bin" 32 Circuit.max_bin_size;
  check int "max BV bits" 4064 Circuit.max_bv_bits_per_tile;
  check bool "RAP tile bigger than CAMA tile" true
    (Circuit.rap_tile_area_um2 > Circuit.cama_tile_area_um2);
  check bool "CA tile biggest" true (Circuit.ca_tile_area_um2 > Circuit.rap_tile_area_um2)

let test_cam_model () =
  check feq "full search is 4 pJ" 4. (Cam.search_pj ~enabled_cols:128);
  check feq "half search" 2. (Cam.search_pj ~enabled_cols:64);
  check bool "zero cols still costs one column" true (Cam.search_pj ~enabled_cols:0 > 0.);
  check bool "bv ops scale with width" true
    (Cam.bv_word_read_pj ~bv_cols:64 > Cam.bv_word_read_pj ~bv_cols:8)

let test_switch_model () =
  check bool "local scales with rows" true
    (Switch.local_traverse_pj ~active_rows:128 > Switch.local_traverse_pj ~active_rows:1);
  check feq "local full = 14" 14. (Switch.local_traverse_pj ~active_rows:128);
  check feq "global full = 55" 55. (Switch.global_traverse_pj ~active_rows:256);
  check feq "wire energy" (0.07 *. Circuit.global_wire_mm_per_hop) (Switch.wire_pj ~hops:1)

(* Encodings *)

let test_nibble_product () =
  let is_product = Encoding.fits_single_code in
  check bool "singleton" true (is_product (Charclass.singleton 'a'));
  check bool "full" true (is_product Charclass.full);
  check bool "nibble-aligned range [A-O] (0x41-0x4f)" true
    (is_product (Charclass.of_range 'A' 'O'));
  check bool "[a-z] crosses nibbles" false (is_product (Charclass.of_range 'a' 'z'));
  check bool "dot is not a product" false (is_product Charclass.dot);
  check bool "empty is not a product" false (is_product Charclass.empty);
  (* {6,7} x {1} = [aq] ... 0x61,0x71 *)
  check bool "two chars, same low nibble" true
    (is_product (Charclass.of_string "aq"))

let test_mzp_code_count () =
  check int "empty" 0 (Encoding.mzp_code_count Charclass.empty);
  check int "singleton" 1 (Encoding.mzp_code_count (Charclass.singleton 'x'));
  check int "product range" 1 (Encoding.mzp_code_count (Charclass.of_range 'A' 'O'));
  check int "[a-z] needs 2" 2 (Encoding.mzp_code_count (Charclass.of_range 'a' 'z'));
  check int "dot needs 2" 2 (Encoding.mzp_code_count Charclass.dot);
  check bool "bounded by 16" true
    (Encoding.mzp_code_count (Charclass.complement (Charclass.of_string "aqz")) <= 16);
  check bool "single-code predicate" true (Encoding.fits_single_code (Charclass.singleton 'k'));
  check int "cam columns = codes" 2 (Encoding.cam_columns_for_class Charclass.dot)

let prop_mzp_cover_sound =
  (* every non-empty class needs 1 to 16 codes, and products exactly 1 *)
  QCheck2.Test.make ~name:"mzp code count consistent with product test" ~count:200 Gen.gen_cc
    (fun cc ->
      let n = Encoding.mzp_code_count cc in
      Encoding.fits_single_code cc = (n = 1)
      && if Charclass.is_empty cc then n = 0 else n >= 1 && n <= 16)

(* The encoding against its byte-level definition: per high nibble, the
   set of low nibbles under it; a product is one distinct non-empty set,
   and each distinct one costs a code. *)
let prop_nibble_encoding_bytewise =
  QCheck2.Test.make ~name:"nibble encoding matches the byte-level definition" ~count:300
    Gen.gen_any_cc
    (fun cc ->
      let rows = Array.make 16 0 in
      for b = 0 to 255 do
        if Charclass.mem_byte cc b then rows.(b lsr 4) <- rows.(b lsr 4) lor (1 lsl (b land 15))
      done;
      let distinct = List.sort_uniq compare (List.filter (fun l -> l <> 0) (Array.to_list rows)) in
      Encoding.mzp_code_count cc = List.length distinct
      && Encoding.fits_single_code cc = (List.length distinct = 1))

(* Energy ledger *)

let test_energy_ledger () =
  let t = Energy.create () in
  check feq "empty total" 0. (Energy.total_pj t);
  Energy.add t Energy.State_matching 4.;
  Energy.add t Energy.State_matching 2.;
  Energy.add t Energy.Leakage 0.5;
  check feq "category sum" 6. (Energy.get_pj t Energy.State_matching);
  check feq "total" 6.5 (Energy.total_pj t);
  check feq "uJ conversion" 6.5e-6 (Energy.total_uj t);
  let t2 = Energy.create () in
  Energy.add t2 Energy.Io 1.;
  Energy.merge_into ~dst:t t2;
  check feq "merge" 7.5 (Energy.total_pj t);
  check int "breakdown has 3 entries" 3 (List.length (Energy.breakdown t))

(* Buffers *)

let test_fifo () =
  check int "array input entries" 8 Buffers.array_input_entries

let suite =
  [
    test_case "table 1 values" `Quick test_table1_values;
    test_case "access interpolation" `Quick test_access_interpolation;
    test_case "leakage arithmetic" `Quick test_leakage;
    test_case "clock rates" `Quick test_clocks;
    test_case "geometry constants" `Quick test_geometry;
    test_case "CAM model" `Quick test_cam_model;
    test_case "switch model" `Quick test_switch_model;
    test_case "nibble products" `Quick test_nibble_product;
    test_case "multi-zero-prefix code counts" `Quick test_mzp_code_count;
    test_case "energy ledger" `Quick test_energy_ledger;
    test_case "fifo model" `Quick test_fifo;
    QCheck_alcotest.to_alcotest prop_mzp_cover_sound;
    QCheck_alcotest.to_alcotest prop_nibble_encoding_bytewise;
  ]
