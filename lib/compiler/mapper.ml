type piece =
  | P_unit of { unit_id : int; local_tile : int }
  | P_bin of { bin_id : int; bin_tile : int }

type tile_mode = T_nfa | T_nbva | T_lnfa

type placed_tile = { mode : tile_mode; phys : int; pieces : piece list }

type placement = {
  units : Program.compiled array;
  bins : Binning.bin array;
  bin_tables : Shift_and.t array;
  arrays : placed_tile array array;
}

type defect_stats = {
  dead_tiles_skipped : int;
  cols_lost : int;
  cols_repaired : int;
}

let no_defect_stats = { dead_tiles_skipped = 0; cols_lost = 0; cols_repaired = 0 }

(* Resource demand of one tile piece. *)
type demand = {
  d_mode : tile_mode;
  d_cols : int;  (* columns (NFA/NBVA) or state slots (LNFA) *)
  d_cap : int;  (* tile capacity in the same unit *)
  d_bv_bits : int;
  d_bits_cap : int;
  d_has_r : bool;
  d_has_rall : bool;
  d_exclusive : bool;  (* multi-tile bins own their tiles *)
}

(* Mutable tile under construction, pinned to a physical slot. *)
type building = {
  b_mode : tile_mode;
  b_cap : int;  (* nominal capacity (sharing-compatibility key) *)
  b_eff : int;  (* effective capacity after stuck-column losses *)
  b_phys : int;  (* physical tile index within the array *)
  mutable b_cols : int;
  mutable b_bits : int;
  b_bits_cap : int;
  mutable b_has_r : bool;
  mutable b_has_rall : bool;
  mutable b_exclusive : bool;
  mutable b_pieces : piece list;
}

let demand_of_unit ~tile_cols (c : Program.compiled) local_tile =
  match c.Program.kind with
  | Program.U_nfa u ->
      {
        d_mode = T_nfa;
        d_cols = u.Program.tile_cols.(local_tile);
        d_cap = tile_cols;
        d_bv_bits = 0;
        d_bits_cap = Circuit.max_bv_bits_per_tile;
        d_has_r = false;
        d_has_rall = false;
        d_exclusive = false;
      }
  | Program.U_nbva u ->
      let t = u.Program.ntiles.(local_tile) in
      let has_r, has_rall =
        List.fold_left
          (fun (r, ra) (a : Program.bv_alloc) ->
            match a.Program.read with
            | Nbva.Read_exact _ -> (true, ra)
            | Nbva.Read_all -> (r, true))
          (false, false) t.Program.bvs
      in
      {
        d_mode = T_nbva;
        d_cols = t.Program.cc_cols + t.Program.set1_cols + t.Program.bv_cols;
        d_cap = tile_cols;
        d_bv_bits =
          List.fold_left (fun acc (a : Program.bv_alloc) -> acc + a.Program.size) 0 t.Program.bvs;
        d_bits_cap = u.Program.bv_bits_cap;
        d_has_r = has_r;
        d_has_rall = has_rall;
        d_exclusive = false;
      }
  | Program.U_lnfa _ -> invalid_arg "Mapper: LNFA units are placed through bins"

let fits (b : building) (d : demand) =
  b.b_mode = d.d_mode && b.b_cap = d.d_cap
  && b.b_bits_cap = d.d_bits_cap
  && (not b.b_exclusive) && (not d.d_exclusive)
  && b.b_cols + d.d_cols <= b.b_eff
  && b.b_bits + d.d_bv_bits <= b.b_bits_cap
  && (not (b.b_has_r && d.d_has_rall))
  && not (b.b_has_rall && d.d_has_r)

let add_to (b : building) (d : demand) piece =
  b.b_cols <- b.b_cols + d.d_cols;
  b.b_bits <- b.b_bits + d.d_bv_bits;
  b.b_has_r <- b.b_has_r || d.d_has_r;
  b.b_has_rall <- b.b_has_rall || d.d_has_rall;
  b.b_exclusive <- b.b_exclusive || d.d_exclusive;
  b.b_pieces <- piece :: b.b_pieces

let new_tile ~phys ~eff (d : demand) piece =
  {
    b_mode = d.d_mode;
    b_cap = d.d_cap;
    b_eff = eff;
    b_phys = phys;
    b_cols = d.d_cols;
    b_bits = d.d_bv_bits;
    b_bits_cap = d.d_bits_cap;
    b_has_r = d.d_has_r;
    b_has_rall = d.d_has_rall;
    b_exclusive = d.d_exclusive;
    b_pieces = [ piece ];
  }

(* A block: all pieces of one unit or one bin, placed atomically into one
   array. *)
type block = { demands : (demand * piece) list; tiles_ub : int }

let block_of_unit ~tile_cols units id =
  let c = units.(id) in
  let n = Program.num_tiles c.Program.kind in
  {
    demands =
      List.init n (fun i ->
          (demand_of_unit ~tile_cols c i, P_unit { unit_id = id; local_tile = i }));
    tiles_ub = n;
  }

let block_of_bin (bins : Binning.bin array) id =
  let b = bins.(id) in
  (* LNFA demands are expressed in state slots; single-tile bins are just
     a group of regions and may share a tile with other such bins *)
  let m = List.length b.Binning.members in
  let single = b.Binning.tiles = 1 in
  {
    demands =
      List.init b.Binning.tiles (fun i ->
          ( {
              d_mode = T_lnfa;
              d_cols = m * b.Binning.region_states;
              d_cap = Binning.capacity_per_tile ~single_code:b.Binning.single_code;
              d_bv_bits = 0;
              d_bits_cap = Circuit.max_bv_bits_per_tile;
              d_has_r = false;
              d_has_rall = false;
              d_exclusive = not single;
            },
            P_bin { bin_id = id; bin_tile = i } ));
    tiles_ub = b.Binning.tiles;
  }

(* Effective capacity of a slot with [usable] of the [tile_cols] nominal
   CAM columns surviving: demand capacities (which for LNFA are state
   slots, not columns) shrink proportionally. *)
let eff_cap ~tile_cols ~usable cap =
  if usable >= tile_cols then cap else cap * usable / tile_cols

(* An array under construction: the usable columns of each physical slot
   still free (0 once taken, or when none survive), and built tiles,
   newest first. *)
type arr = { arr_id : int; usable : int array; mutable built : building list }

let fresh_array defects ~tile_cols id =
  let usable t = Defect.usable_cols defects ~array_id:id ~tile:t ~nominal:tile_cols in
  { arr_id = id; usable = Array.init Circuit.tiles_per_array usable; built = [] }

(* What one add changed, to undo it: a built tile's fields before a piece
   joined it, or a slot a new tile took. *)
type undo =
  | Grew of {
      tile : building;
      cols : int;
      bits : int;
      has_r : bool;
      has_rall : bool;
      exclusive : bool;
      pieces : piece list;
    }
  | Opened of { phys : int; usable : int }

(* Add a piece to the newest built tile it fits, logging the tile's
   fields for undo. *)
let rec join log d piece = function
  | b :: rest ->
      if fits b d then begin
        log :=
          Grew
            {
              tile = b;
              cols = b.b_cols;
              bits = b.b_bits;
              has_r = b.b_has_r;
              has_rall = b.b_has_rall;
              exclusive = b.b_exclusive;
              pieces = b.b_pieces;
            }
          :: !log;
        add_to b d piece;
        true
      end
      else join log d piece rest
  | [] -> false

(* Open a new tile for a piece in the lowest free slot, from [phys] up,
   that can host it. *)
let rec open_slot ~tile_cols ar log d piece phys =
  phys < Circuit.tiles_per_array
  &&
  let usable = ar.usable.(phys) in
  let eff = eff_cap ~tile_cols ~usable d.d_cap in
  if usable > 0 && d.d_cols <= eff then begin
    log := Opened { phys; usable } :: !log;
    ar.usable.(phys) <- 0;
    ar.built <- new_tile ~phys ~eff d piece :: ar.built;
    true
  end
  else open_slot ~tile_cols ar log d piece (phys + 1)

let rec place_all ~tile_cols ar log = function
  | [] -> true
  | (d, piece) :: rest ->
      (join log d piece ar.built || open_slot ~tile_cols ar log d piece 0)
      && place_all ~tile_cols ar log rest

(* Place a block into an array, piece by piece: each joins a built tile
   if it can, else opens one.  When some piece fits nowhere, every add is
   undone, so failure leaves the array as it was; [keep:false] undoes a
   success too.  An attempt allocates in proportion to its adds, not to
   the tiles the array holds. *)
let try_place ?(keep = true) ~tile_cols ar block =
  let built = ar.built and log = ref [] in
  let ok = place_all ~tile_cols ar log block.demands in
  if not (ok && keep) then begin
    List.iter
      (function
        | Grew g ->
            let b = g.tile in
            b.b_cols <- g.cols;
            b.b_bits <- g.bits;
            b.b_has_r <- g.has_r;
            b.b_has_rall <- g.has_rall;
            b.b_exclusive <- g.exclusive;
            b.b_pieces <- g.pieces
        | Opened { phys; usable } -> ar.usable.(phys) <- usable)
      !log;
    ar.built <- built
  end;
  ok

let map_units_result ?(defects = Defect.none) ?(tile_cols = Circuit.tile_cam_cols)
    ~(params : Program.params) units =
  (* collect LNFA lines and bin them *)
  let lines = ref [] in
  Array.iteri
    (fun id (c : Program.compiled) ->
      match c.Program.kind with
      | Program.U_lnfa u ->
          List.iter (fun line -> lines := (id, line) :: !lines) u.Program.lines
      | Program.U_nfa _ | Program.U_nbva _ -> ())
    units;
  let bins = Array.of_list (Binning.pack ~max_bin_size:params.Program.bin_size !lines) in
  (* blocks, largest first, each knowing which sources it carries *)
  let blocks = ref [] in
  Array.iteri
    (fun id (c : Program.compiled) ->
      match c.Program.kind with
      | Program.U_lnfa _ -> ()
      | Program.U_nfa _ | Program.U_nbva _ ->
          blocks := (block_of_unit ~tile_cols units id, [ c.Program.source ]) :: !blocks)
    units;
  Array.iteri
    (fun id (b : Binning.bin) ->
      let sources =
        List.sort_uniq compare
          (List.map (fun (uid, _) -> units.(uid).Program.source) b.Binning.members)
      in
      blocks := (block_of_bin bins id, sources) :: !blocks)
    bins;
  let sorted = List.sort (fun (a, _) (b, _) -> compare b.tiles_ub a.tiles_ub) !blocks in
  let empty = fresh_array Defect.none ~tile_cols (-1) in
  let arrays : arr list ref = ref [] in
  let next_array = ref 0 in
  let drops = ref [] in
  let record sources reason =
    List.iter (fun s -> drops := Compile_error.v s reason :: !drops) sources
  in
  List.iter
    (fun (block, sources) ->
      if block.tiles_ub > Circuit.tiles_per_array then
        record sources
          (Compile_error.Oversize
             { tiles_needed = block.tiles_ub; tiles_cap = Circuit.tiles_per_array })
      else if not (try_place ~keep:false ~tile_cols empty block) then
        record sources (Compile_error.Resource_exhausted "block does not fit an empty array")
      else begin
        let rec attempt = function
          | ar :: rest -> if not (try_place ~tile_cols ar block) then attempt rest
          | [] -> open_new ()
        and open_new () =
          if not (Defect.array_exists defects !next_array) then
            record sources
              (Compile_error.Unplaceable
                 { tiles_needed = block.tiles_ub; detail = "no surviving array can host it" })
          else begin
            let id = !next_array in
            incr next_array;
            let ar = fresh_array defects ~tile_cols id in
            arrays := !arrays @ [ ar ];
            if not (try_place ~tile_cols ar block) then open_new ()
          end
        in
        attempt !arrays
      end)
    sorted;
  let finish (b : building) = { mode = b.b_mode; phys = b.b_phys; pieces = List.rev b.b_pieces } in
  let used = List.filter (fun ar -> ar.built <> []) !arrays in
  let arrays_out =
    Array.of_list (List.map (fun ar -> Array.of_list (List.rev_map finish ar.built)) used)
  in
  let dstats =
    if Defect.is_trivial defects then no_defect_stats
    else
      List.fold_left
        (fun acc ar ->
          let acc = ref acc in
          for t = 0 to Circuit.tiles_per_array - 1 do
            if Defect.is_dead_tile defects ~array_id:ar.arr_id ~tile:t then
              acc := { !acc with dead_tiles_skipped = !acc.dead_tiles_skipped + 1 }
            else begin
              let lost, repaired = Defect.tile_loss defects ~array_id:ar.arr_id ~tile:t in
              acc :=
                {
                  !acc with
                  cols_lost = !acc.cols_lost + lost;
                  cols_repaired = !acc.cols_repaired + repaired;
                }
            end
          done;
          !acc)
        no_defect_stats used
  in
  let drops = List.rev !drops in
  if drops = [] then
    ({ units; bins; bin_tables = Array.map Binning.shift_and bins; arrays = arrays_out }, [], dstats)
  else begin
    (* graceful degradation: keep only placed units/bins, remapping ids so
       the placement stays self-contained *)
    let unit_placed = Array.make (Array.length units) false in
    let bin_placed = Array.make (max 1 (Array.length bins)) false in
    Array.iter
      (fun tiles ->
        Array.iter
          (fun (t : placed_tile) ->
            List.iter
              (function
                | P_unit { unit_id; _ } -> unit_placed.(unit_id) <- true
                | P_bin { bin_id; _ } -> bin_placed.(bin_id) <- true)
              t.pieces)
          tiles)
      arrays_out;
    Array.iteri
      (fun id (b : Binning.bin) ->
        if bin_placed.(id) then
          List.iter (fun (uid, _) -> unit_placed.(uid) <- true) b.Binning.members)
      bins;
    let unit_map = Array.make (Array.length units) (-1) in
    let kept_units = ref [] and n = ref 0 in
    Array.iteri
      (fun id c ->
        if unit_placed.(id) then begin
          unit_map.(id) <- !n;
          incr n;
          kept_units := c :: !kept_units
        end)
      units;
    let bin_map = Array.make (max 1 (Array.length bins)) (-1) in
    let kept_bins = ref [] and nb = ref 0 in
    Array.iteri
      (fun id b ->
        if bin_placed.(id) then begin
          bin_map.(id) <- !nb;
          incr nb;
          kept_bins := b :: !kept_bins
        end)
      bins;
    let remap = function
      | P_unit { unit_id; local_tile } -> P_unit { unit_id = unit_map.(unit_id); local_tile }
      | P_bin { bin_id; bin_tile } -> P_bin { bin_id = bin_map.(bin_id); bin_tile }
    in
    let arrays_out =
      Array.map
        (Array.map (fun t -> { t with pieces = List.map remap t.pieces }))
        arrays_out
    in
    let bins = Array.of_list (List.rev !kept_bins) in
    ( {
        units = Array.of_list (List.rev !kept_units);
        bins;
        bin_tables = Array.map Binning.shift_and bins;
        arrays = arrays_out;
      },
      drops,
      dstats )
  end

let map_units ?(tile_cols = Circuit.tile_cam_cols) ~(params : Program.params) units =
  (* historical exception contract: oversize units raise *)
  Array.iteri
    (fun id (c : Program.compiled) ->
      match c.Program.kind with
      | Program.U_lnfa _ -> ()
      | k ->
          let n = Program.num_tiles k in
          if n > Circuit.tiles_per_array then
            invalid_arg
              (Printf.sprintf "Mapper: unit %d (%s) needs %d tiles, exceeding one array" id
                 c.Program.source n))
    units;
  match map_units_result ~defects:Defect.none ~tile_cols ~params units with
  | p, [], _ -> p
  | _, _ :: _, _ -> invalid_arg "Mapper: block does not fit an empty array"

type stats = {
  num_arrays : int;
  num_tiles : int;
  cols_used : int;
  col_utilisation : float;
  tile_utilisation : float;
}

let stats p =
  let tiles = ref 0 and cols = ref 0 in
  Array.iter
    (fun arr ->
      tiles := !tiles + Array.length arr;
      Array.iter
        (fun t ->
          List.iter
            (fun piece ->
              match piece with
              | P_unit { unit_id; local_tile } ->
                  cols := !cols + Program.cols_of_tile p.units.(unit_id).Program.kind local_tile
              | P_bin { bin_id; bin_tile } ->
                  let b = p.bins.(bin_id) in
                  let per_state = if b.Binning.single_code then 1 else 2 in
                  (* states actually stored in this bin tile *)
                  let lo = bin_tile * b.Binning.region_states in
                  List.iter
                    (fun (_, l) ->
                      let len = Array.length l.Program.labels in
                      let here = max 0 (min b.Binning.region_states (len - lo)) in
                      cols := !cols + (per_state * here))
                    b.Binning.members)
            t.pieces)
        arr)
    p.arrays;
  let num_arrays = Array.length p.arrays in
  {
    num_arrays;
    num_tiles = !tiles;
    cols_used = !cols;
    col_utilisation =
      (if !tiles = 0 then 1.
       else float_of_int !cols /. float_of_int (!tiles * Circuit.tile_cam_cols));
    tile_utilisation =
      (if num_arrays = 0 then 1.
       else float_of_int !tiles /. float_of_int (num_arrays * Circuit.tiles_per_array));
  }

let pp_stats fmt s =
  Format.fprintf fmt "arrays=%d tiles=%d cols=%d col-util=%.1f%% tile-util=%.1f%%" s.num_arrays
    s.num_tiles s.cols_used (100. *. s.col_utilisation) (100. *. s.tile_utilisation)

let pp_defect_stats fmt d =
  Format.fprintf fmt "dead-tiles=%d cols-lost=%d cols-repaired=%d" d.dead_tiles_skipped
    d.cols_lost d.cols_repaired

let pp_placement fmt p =
  Format.fprintf fmt "@[<v>";
  Array.iteri
    (fun ai tiles ->
      Format.fprintf fmt "array %d (%d tiles):@," ai (Array.length tiles);
      Array.iter
        (fun (t : placed_tile) ->
          let mode =
            match t.mode with T_nfa -> "NFA " | T_nbva -> "NBVA" | T_lnfa -> "LNFA"
          in
          let pieces =
            List.map
              (fun piece ->
                match piece with
                | P_unit { unit_id; local_tile } ->
                    Printf.sprintf "u%d.%d(%s)" unit_id local_tile
                      (let src = p.units.(unit_id).Program.source in
                       if String.length src > 18 then String.sub src 0 18 ^ ".." else src)
                | P_bin { bin_id; bin_tile } ->
                    let b = p.bins.(bin_id) in
                    Printf.sprintf "bin%d.%d(%d lines)" bin_id bin_tile
                      (List.length b.Binning.members))
              t.pieces
          in
          Format.fprintf fmt "  tile %2d [%s] %s@," t.phys mode (String.concat " " pieces))
        tiles)
    p.arrays;
  Format.fprintf fmt "%a@]" pp_stats (stats p)
