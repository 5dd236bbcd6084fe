(* See exec.mli. *)

type tile_events = {
  t_mode : Engine.mode;
  mutable t_powered : bool;
  mutable t_enabled_cols : int;
  mutable t_active_states : int;
}

type bv_phase = { p_mode : Engine.mode; p_bv_cols : int; p_iterations : int; p_stall : int }

type array_events = {
  mutable sym : int;
  mutable symbol : char;
  mutable stall : int;
  mutable cross : int;
  mutable reports : int;
  tiles : tile_events array;
  bv_phases : bv_phase array;
  mutable n_phases : int;
}

(* The event record is owned by its [t] and refreshed in place by every
   [step], like the engines' records it is assembled from.  BV-phase
   records depend only on (engine, local tile, arch), so they are built
   once per architecture and [step] copies references into [bv_phases]. *)
type t = {
  engines : Engine.t array;
  last_events : Engine.events array;  (* parallel to [engines], refreshed by [step] *)
  tile_pieces : (int * int) array array;  (* physical tile -> (engine, local) *)
  tile_modes : Engine.mode array;
  ev : array_events;
  mutable phases : (Arch.t * bv_phase array array) option;
      (* per engine, per local tile, for the last architecture stepped *)
}

let of_parts engines tile_pieces tile_modes =
  let max_phases = Array.fold_left (fun acc e -> acc + Engine.num_tiles e) 0 engines in
  {
    engines;
    last_events = Array.map Engine.events engines;
    tile_pieces;
    tile_modes;
    ev =
      {
        sym = 0;
        symbol = '\000';
        stall = 0;
        cross = 0;
        reports = 0;
        tiles =
          Array.map
            (fun m -> { t_mode = m; t_powered = false; t_enabled_cols = 0; t_active_states = 0 })
            tile_modes;
        bv_phases =
          Array.make max_phases
            { p_mode = Engine.M_nbva; p_bv_cols = 0; p_iterations = 0; p_stall = 0 };
        n_phases = 0;
      };
    phases = None;
  }

let build (p : Mapper.placement) (tiles : Mapper.placed_tile array) =
  let engine_ids = Hashtbl.create 8 in
  let engines = ref [] in
  let n_engines = ref 0 in
  let engine_of_key key make =
    match Hashtbl.find_opt engine_ids key with
    | Some i -> i
    | None ->
        let i = !n_engines in
        incr n_engines;
        Hashtbl.replace engine_ids key i;
        engines := make () :: !engines;
        i
  in
  let tile_pieces =
    Array.map
      (fun (t : Mapper.placed_tile) ->
        List.map
          (fun piece ->
            match piece with
            | Mapper.P_unit { unit_id; local_tile } ->
                let e =
                  engine_of_key (`Unit unit_id) (fun () ->
                      let c = p.Mapper.units.(unit_id) in
                      match c.Program.kind with
                      | Program.U_nfa u -> Engine.of_nfa_unit u
                      | Program.U_nbva u -> Engine.of_nbva_unit u
                      | Program.U_lnfa _ -> assert false)
                in
                (e, local_tile)
            | Mapper.P_bin { bin_id; bin_tile } ->
                let e =
                  engine_of_key (`Bin bin_id) (fun () -> Engine.of_bin p.Mapper.bins.(bin_id))
                in
                (e, bin_tile))
          t.Mapper.pieces)
      tiles
  in
  let tile_modes =
    Array.map
      (fun (t : Mapper.placed_tile) ->
        match t.Mapper.mode with
        | Mapper.T_nfa -> Engine.M_nfa
        | Mapper.T_nbva -> Engine.M_nbva
        | Mapper.T_lnfa -> Engine.M_lnfa)
      tiles
  in
  let engines = Array.of_list (List.rev !engines) in
  of_parts engines (Array.map Array.of_list tile_pieces) tile_modes

let engines t = t.engines
let tile_modes t = t.tile_modes
let num_tiles t = Array.length t.tile_pieces

let snapshot t = Array.map Engine.snapshot t.engines
let snapshot_flat = snapshot

let restore t snaps =
  if Array.length snaps <> Array.length t.engines then
    invalid_arg "Exec.restore: snapshot does not match this array";
  Array.iteri (fun i s -> Engine.restore t.engines.(i) s) snaps

(* The BV-processing phase a triggering (engine, local tile) pair
   enters on [arch]. *)
let phase_of (arch : Arch.t) e lt =
  let iterations =
    match arch.Arch.kind with
    | Arch.Rap -> Engine.bv_depth e
    | Arch.Bvap ->
        max 1 ((Engine.max_bv_size e + arch.Arch.bv_word_bits - 1) / arch.Arch.bv_word_bits)
    | Arch.Cama | Arch.Ca -> 0
  in
  {
    p_mode = Engine.mode e;
    p_bv_cols = Engine.tile_bv_cols e lt;
    p_iterations = iterations;
    p_stall =
      Arch.stall_cycles arch ~bv_depth:(Engine.bv_depth e) ~max_bv_size:(Engine.max_bv_size e);
  }

let phases_for arch t =
  match t.phases with
  | Some (a, tbl) when a == arch -> tbl
  | _ ->
      let tbl =
        Array.map
          (fun e -> Array.init (Engine.num_tiles e) (fun lt -> phase_of arch e lt))
          t.engines
      in
      t.phases <- Some (arch, tbl);
      tbl

(* Assembly reads only the engines' refreshed event records ([step]
   returns the same physical records held in [last_events]) and writes
   only [t.ev], in place. *)
let assemble (arch : Arch.t) t ~sym c =
  let ev = t.ev in
  let cross = ref 0 and reports = ref 0 and stall = ref 0 and n = ref 0 in
  let phases = if arch.Arch.supports_nbva then phases_for arch t else [||] in
  for ei = 0 to Array.length t.last_events - 1 do
    let e = t.last_events.(ei) in
    if arch.Arch.supports_nbva then begin
      let trig = e.Engine.triggered in
      for lt = 0 to Array.length trig - 1 do
        if trig.(lt) then begin
          let p = phases.(ei).(lt) in
          ev.bv_phases.(!n) <- p;
          incr n;
          if p.p_stall > !stall then stall := p.p_stall
        end
      done
    end;
    cross := !cross + e.Engine.cross;
    reports := !reports + e.Engine.reports
  done;
  for ti = 0 to Array.length t.tile_pieces - 1 do
    let pieces = t.tile_pieces.(ti) in
    let powered = ref false and enabled = ref 0 and active = ref 0 in
    for k = 0 to Array.length pieces - 1 do
      let ei, lt = pieces.(k) in
      let e = t.last_events.(ei) in
      if e.Engine.powered.(lt) then powered := true;
      enabled := !enabled + e.Engine.enabled.(lt);
      active := !active + e.Engine.active.(lt)
    done;
    let te = ev.tiles.(ti) in
    te.t_powered <- !powered;
    te.t_enabled_cols <- !enabled;
    te.t_active_states <- !active
  done;
  ev.sym <- sym;
  ev.symbol <- c;
  ev.stall <- !stall;
  ev.cross <- !cross;
  ev.reports <- !reports;
  ev.n_phases <- !n;
  ev

let step arch t ~sym c =
  for i = 0 to Array.length t.engines - 1 do
    ignore (Engine.step t.engines.(i) c)
  done;
  assemble arch t ~sym c

(* A fresh-state clone: all compiled structure (engines' automata and
   masks, the tile resolution) is shared with the template; run state,
   event records and the phase cache are per-clone, so clones stepped
   on different domains share nothing mutable. *)
let clone_fresh t = of_parts (Array.map Engine.clone_fresh t.engines) t.tile_pieces t.tile_modes
