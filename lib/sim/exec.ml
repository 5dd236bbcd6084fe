(* See exec.mli. *)

type t = {
  engines : Engine.t array;
  last_events : Engine.events array;  (* parallel to [engines], refreshed by [step] *)
  tile_pieces : (int * int) list array;  (* physical tile -> (engine, local) *)
  tile_modes : Engine.mode array;
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
                      | Program.U_nfa u ->
                          Engine.of_nfa_unit ~hint:c.Program.hint ~ast:c.Program.ast u
                      | Program.U_nbva u -> Engine.of_nbva_unit ~hint:c.Program.hint u
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
  { engines; last_events = Array.map Engine.events engines; tile_pieces; tile_modes }

let engines t = t.engines
let tile_modes t = t.tile_modes
let num_tiles t = Array.length t.tile_pieces

let snapshot t = Array.map Engine.snapshot t.engines

let restore t snaps =
  if Array.length snaps <> Array.length t.engines then
    invalid_arg "Exec.restore: snapshot does not match this array";
  Array.iteri (fun i s -> Engine.restore t.engines.(i) s) snaps

let snapshot_flat t = Array.map Engine.snapshot_flat t.engines

let restore_flat t snaps =
  if Array.length snaps <> Array.length t.engines then
    invalid_arg "Exec.restore_flat: snapshot does not match this array";
  Array.iteri (fun i s -> Engine.restore_flat t.engines.(i) s) snaps

type tile_events = {
  t_mode : Engine.mode;
  t_powered : bool;
  t_enabled_cols : int;
  t_active_states : int;
}

type bv_phase = { p_mode : Engine.mode; p_bv_cols : int; p_iterations : int; p_stall : int }

type array_events = {
  sym : int;
  symbol : char;
  stall : int;
  cross : int;
  reports : int;
  tiles : tile_events array;
  bv_phases : bv_phase list;
}

(* Assembly reads only the engines' refreshed event records ([step]
   returns the same physical records held in [last_events]). *)
let assemble (arch : Arch.t) t ~sym c =
  let cross = ref 0 and reports = ref 0 and stall = ref 0 in
  let phases = ref [] in
  Array.iter
    (fun e ->
      let ev = Engine.events e in
      (if arch.Arch.supports_nbva then
         for lt = 0 to Array.length ev.Engine.triggered - 1 do
           if ev.Engine.triggered.(lt) then begin
             let iterations =
               match arch.Arch.kind with
               | Arch.Rap -> Engine.bv_depth e
               | Arch.Bvap ->
                   max 1
                     ((Engine.max_bv_size e + arch.Arch.bv_word_bits - 1)
                     / arch.Arch.bv_word_bits)
               | Arch.Cama | Arch.Ca -> 0
             in
             let p_stall =
               Arch.stall_cycles arch ~bv_depth:(Engine.bv_depth e)
                 ~max_bv_size:(Engine.max_bv_size e)
             in
             phases :=
               {
                 p_mode = Engine.mode e;
                 p_bv_cols = Engine.tile_bv_cols e lt;
                 p_iterations = iterations;
                 p_stall;
               }
               :: !phases;
             stall := max !stall p_stall
           end
         done);
      cross := !cross + ev.Engine.cross;
      reports := !reports + ev.Engine.reports)
    t.engines;
  let tiles =
    Array.mapi
      (fun ti pieces ->
        let powered = ref false and enabled = ref 0 and active = ref 0 in
        List.iter
          (fun (ei, lt) ->
            let ev = t.last_events.(ei) in
            if ev.Engine.powered.(lt) then powered := true;
            enabled := !enabled + ev.Engine.enabled.(lt);
            active := !active + ev.Engine.active.(lt))
          pieces;
        {
          t_mode = t.tile_modes.(ti);
          t_powered = !powered;
          t_enabled_cols = !enabled;
          t_active_states = !active;
        })
      t.tile_pieces
  in
  {
    sym;
    symbol = c;
    stall = !stall;
    cross = !cross;
    reports = !reports;
    tiles;
    bv_phases = List.rev !phases;
  }

let step arch t ~sym c =
  Array.iter (fun e -> ignore (Engine.step e c)) t.engines;
  assemble arch t ~sym c

(* A fresh-state clone: all compiled structure (engines' automata and
   masks, the tile resolution) is shared with the template; only run
   state and event records are per-clone. *)
let clone_fresh t =
  let engines = Array.map Engine.clone_fresh t.engines in
  { t with engines; last_events = Array.map Engine.events engines }
