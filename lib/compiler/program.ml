type params = {
  unfold_threshold : int;
  bv_depth : int;
  bin_size : int;
}

let default_params = { unfold_threshold = 8; bv_depth = 8; bin_size = 8 }

type nfa_unit = {
  nfa : Nfa.t;
  exec : Nbva.t;  (* threshold-2 compressed executor the engine steps *)
  tile_of_state : int array;
  tile_states : int array;
  tile_cols : int array;
  cross_edges : (int * int) list;
}

type bv_alloc = { ste : int; size : int; width : int; read : Nbva.read_action }

type nbva_tile = {
  states : int list;
  cc_cols : int;
  set1_cols : int;
  bv_cols : int;
  bvs : bv_alloc list;
}

type nbva_unit = {
  nbva : Nbva.t;
  depth : int;
  ntiles : nbva_tile array;
  tile_of_state : int array;
  cross_edges : (int * int) list;
  bv_bits_cap : int;  (* per-tile BV storage budget of the target design *)
}

type lnfa_line = { labels : Charclass.t array; single_code : bool }
type lnfa_unit = { lines : lnfa_line list; states : int }
type unit_kind = U_nfa of nfa_unit | U_nbva of nbva_unit | U_lnfa of lnfa_unit

type compiled = { source : string; kind : unit_kind }

let mode_name = function U_nfa _ -> "NFA" | U_nbva _ -> "NBVA" | U_lnfa _ -> "LNFA"

let lnfa_line_capacity line =
  (* states per tile when the line is alone in a tile: CAM plus one-hot
     switch storage for single-code lines *)
  if line.single_code then Circuit.tile_cam_cols + (Circuit.tile_cam_cols / 2)
  else Circuit.tile_cam_cols / 2

let num_tiles = function
  | U_nfa u -> Array.length u.tile_states
  | U_nbva u -> Array.length u.ntiles
  | U_lnfa u ->
      List.fold_left
        (fun acc line ->
          acc + ((Array.length line.labels + lnfa_line_capacity line - 1) / lnfa_line_capacity line))
        0 u.lines

let num_states = function
  | U_nfa u -> Nfa.num_states u.nfa
  | U_nbva u -> Nbva.num_states u.nbva
  | U_lnfa u -> u.states

let cols_of_tile kind i =
  match kind with
  | U_nfa u -> u.tile_cols.(i)
  | U_nbva u ->
      let t = u.ntiles.(i) in
      t.cc_cols + t.set1_cols + t.bv_cols
  | U_lnfa u ->
      (* tiles are enumerated line by line; the last tile of a line may be
         partial *)
      let rec walk lines i =
        match lines with
        | [] -> invalid_arg "Program.cols_of_tile: tile index out of range"
        | line :: rest ->
            let cap = lnfa_line_capacity line in
            let len = Array.length line.labels in
            let tiles = (len + cap - 1) / cap in
            if i < tiles then
              let states_here = if i = tiles - 1 then len - (i * cap) else cap in
              if line.single_code then states_here else 2 * states_here
            else walk rest (i - tiles)
      in
      walk u.lines i
