let full_search_pj = Circuit.cam_32x128.Circuit.energy_max_pj
let cols = float_of_int Circuit.tile_cam_cols

let search_pj ~enabled_cols =
  let frac = Float.max (1. /. cols) (float_of_int enabled_cols /. cols) in
  full_search_pj *. frac

(* A BV word access drives the wordline across [bv_cols] columns: model as
   a search over those columns (read) or a write of the same width, both
   scaling like the search. *)
let bv_word_read_pj ~bv_cols = search_pj ~enabled_cols:bv_cols
let bv_word_write_pj ~bv_cols = search_pj ~enabled_cols:bv_cols
