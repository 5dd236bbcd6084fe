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
   [step], from the engines' records.  BV-phase records depend only on
   (engine, local tile, arch), so they are built once per architecture
   and [step] copies references into [bv_phases].

   Awake set.  [step] steps only the engines in [owner.awake] (state
   that may be non-zero) and those in the byte's row of [wake] (engines
   the byte wakes from the zero state).  An engine leaves the set right
   after a step that leaves its state all-zero ([Engine.step_live]
   returns [false]); the all-zero state stays all-zero on every byte
   outside its wake row, so skipping it is exact until the byte's row or
   [Engine.restore] / [Engine.flip_state_bit], which set its bit, bring
   it back.  An engine outside the set is counted at its idle share and
   its record is never read, so the step that drops it writes nothing.

   Idle-baseline assembly.  A tile's value with every engine idle is a
   constant, [base_enabled] and [base_powered] (no active states), built
   once per placement.  Only the tiles of stepped engines can change
   ([touched]); each is reset to its baseline, and every stepped engine
   that stays live — the awake set after the step — adds its record
   minus its idle share on each of its pieces.  That share is 0 active
   states, the engine's idle enabled columns (constant on plan tiles),
   and for [powered], an OR, nothing: a live record powers every tile
   the zero record does.  Untouched tiles keep last symbol's values,
   which are still exact because no engine on them was stepped. *)
type t = {
  engines : Engine.t array;
  pieces : int array array;
      (* per engine: flat (physical tile, local tile, idle enabled
         columns) triples, one per tile piece *)
  base_enabled : int array;  (* per physical tile, every engine idle *)
  base_powered : bool array;
  tile_modes : Engine.mode array;
  engine_tiles : int array;  (* per engine: [tile_bit]s of the tiles it has pieces on *)
  wake : int array;
      (* byte -> engines it wakes: 256 rows of [Bitvec.words_for] (engines)
         words, in [Bitvec] word layout; sealed as [owner.tables] *)
  owner : Engine.owner;
  mutable touched : int;  (* [tile_bit]s of the tiles to assemble at the next step *)
  ev : array_events;
  mutable phases : (Arch.t * bv_phase array array) option;
      (* per engine, per local tile, for the last architecture stepped *)
}

(* An array has at most [Circuit.tiles_per_array] tiles; any past the
   word's bits share its top bit, which only makes assembly redo them
   together.  The bound is an int comparison written out: assembly asks
   for every tile's bit on every symbol, and [Stdlib.min] would call the
   C runtime's generic comparison each time. *)
let tile_bit ti =
  let top = Bitvec.bits_per_word - 1 in
  1 lsl (if ti < top then ti else top)
let all_tiles = -1

let wake_table engines =
  let n = Array.length engines in
  let nw = Bitvec.words_for n in
  let tbl = Array.make (256 * nw) 0 in
  Array.iteri
    (fun ei e ->
      let bytes = Engine.wake_bytes e in
      let w = ei / Bitvec.bits_per_word and bit = 1 lsl (ei mod Bitvec.bits_per_word) in
      for b = 0 to 255 do
        if Bytes.get bytes b <> '\000' then tbl.((b * nw) + w) <- tbl.((b * nw) + w) lor bit
      done)
    engines;
  tbl

let engine_tiles pieces =
  Array.map
    (fun pc ->
      let m = ref 0 in
      for k = 0 to (Array.length pc / 3) - 1 do
        m := !m lor tile_bit pc.(3 * k)
      done;
      !m)
    pieces

let of_parts engines ~pieces ~base_enabled ~base_powered tile_modes ~engine_tiles ~wake =
  let max_phases = Array.fold_left (fun acc e -> acc + Engine.num_tiles e) 0 engines in
  let owner =
    {
      Engine.awake = Bitvec.create (Array.length engines);
      tables = [ Engine.R_words ("array_wake", wake) ];
    }
  in
  Array.iteri (fun i e -> Engine.attach e owner i) engines;
  {
    engines;
    pieces;
    base_enabled;
    base_powered;
    tile_modes;
    engine_tiles;
    wake;
    owner;
    touched = all_tiles;
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

(* One engine per unit or bin with a piece in [tiles], in first-seen
   order.  A first pass makes the engines and counts their pieces, a
   second writes each engine's triples, reading its idle enabled columns
   from its fresh record (the projection of the all-zero state); the
   baseline sums the fresh records over every piece. *)
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
  let engine_of = function
    | Mapper.P_unit { unit_id; _ } ->
        engine_of_key (`Unit unit_id) (fun () ->
            let c = p.Mapper.units.(unit_id) in
            match c.Program.kind with
            | Program.U_nfa u -> Engine.of_nfa_unit u
            | Program.U_nbva u -> Engine.of_nbva_unit u
            | Program.U_lnfa _ -> assert false)
    | Mapper.P_bin { bin_id; _ } ->
        engine_of_key (`Bin bin_id) (fun () ->
            Engine.of_bin ~tables:p.Mapper.bin_tables.(bin_id) p.Mapper.bins.(bin_id))
  in
  let total = Array.fold_left (fun acc t -> acc + List.length t.Mapper.pieces) 0 tiles in
  let piece_engine = Array.make total 0 and counts = Array.make total 0 in
  let k = ref 0 in
  Array.iter
    (fun (t : Mapper.placed_tile) ->
      List.iter
        (fun piece ->
          let ei = engine_of piece in
          piece_engine.(!k) <- ei;
          counts.(ei) <- counts.(ei) + 1;
          incr k)
        t.Mapper.pieces)
    tiles;
  let engines = Array.of_list (List.rev !engines) in
  let pieces = Array.init (Array.length engines) (fun ei -> Array.make (3 * counts.(ei)) 0) in
  let ntiles = Array.length tiles in
  let base_enabled = Array.make ntiles 0 and base_powered = Array.make ntiles false in
  Array.fill counts 0 total 0;
  k := 0;
  Array.iteri
    (fun ti (t : Mapper.placed_tile) ->
      List.iter
        (fun piece ->
          let ei = piece_engine.(!k) in
          let lt =
            match piece with
            | Mapper.P_unit { local_tile; _ } -> local_tile
            | Mapper.P_bin { bin_tile; _ } -> bin_tile
          in
          let r = Engine.events engines.(ei) and j = 3 * counts.(ei) in
          let pc = pieces.(ei) in
          pc.(j) <- ti;
          pc.(j + 1) <- lt;
          pc.(j + 2) <- r.Engine.enabled.(lt);
          base_enabled.(ti) <- base_enabled.(ti) + r.Engine.enabled.(lt);
          if r.Engine.powered.(lt) then base_powered.(ti) <- true;
          counts.(ei) <- counts.(ei) + 1;
          incr k)
        t.Mapper.pieces)
    tiles;
  let tile_modes =
    Array.map
      (fun (t : Mapper.placed_tile) ->
        match t.Mapper.mode with
        | Mapper.T_nfa -> Engine.M_nfa
        | Mapper.T_nbva -> Engine.M_nbva
        | Mapper.T_lnfa -> Engine.M_lnfa)
      tiles
  in
  of_parts engines ~pieces ~base_enabled ~base_powered tile_modes
    ~engine_tiles:(engine_tiles pieces) ~wake:(wake_table engines)

let engines t = t.engines
let awake_count t = Bitvec.popcount t.owner.Engine.awake
let tile_modes t = t.tile_modes

let snapshot t = Array.map Engine.snapshot t.engines
let snapshot_flat = snapshot

(* Every engine's [Engine.restore] marks its record stale and wakes it;
   the next step then steps them all, projects every one it leaves
   live, and reassembles every tile. *)
let restore t snaps =
  if Array.length snaps <> Array.length t.engines then
    invalid_arg "Exec.restore: snapshot does not match this array";
  Array.iteri (fun i s -> Engine.restore t.engines.(i) s) snaps;
  t.touched <- all_tiles

(* The BV-processing phase a triggering (engine, local tile) pair
   enters on [arch]. *)
let phase_of (arch : Arch.t) e lt =
  let iterations =
    match arch.Arch.kind with
    | Arch.Rap -> Engine.bv_depth e
    | Arch.Bvap ->
        Int.max 1 ((Engine.max_bv_size e + arch.Arch.bv_word_bits - 1) / arch.Arch.bv_word_bits)
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

(* Add live engine [ei]'s BV phases, cross signals and reports, from
   its record, to [t.ev]. *)
let add_events (arch : Arch.t) phases t ei =
  let r = Engine.events t.engines.(ei) and ev = t.ev in
  if arch.Arch.supports_nbva then begin
    let trig = r.Engine.triggered in
    for lt = 0 to Array.length trig - 1 do
      if trig.(lt) then begin
        let p = phases.(ei).(lt) in
        ev.bv_phases.(ev.n_phases) <- p;
        ev.n_phases <- ev.n_phases + 1;
        if p.p_stall > ev.stall then ev.stall <- p.p_stall
      end
    done
  end;
  ev.cross <- ev.cross + r.Engine.cross;
  ev.reports <- ev.reports + r.Engine.reports

(* Add engine [ei]'s record to the tiles it has pieces on.  [net] takes
   off its idle enabled columns, which the tiles' baseline already
   holds. *)
let add_pieces t ei ~net =
  let r = Engine.events t.engines.(ei) and pc = t.pieces.(ei) and tiles = t.ev.tiles in
  for k = 0 to (Array.length pc / 3) - 1 do
    let te = tiles.(pc.(3 * k)) and lt = pc.((3 * k) + 1) in
    let idle = if net then pc.((3 * k) + 2) else 0 in
    if r.Engine.powered.(lt) then te.t_powered <- true;
    te.t_enabled_cols <- te.t_enabled_cols + r.Engine.enabled.(lt) - idle;
    te.t_active_states <- te.t_active_states + r.Engine.active.(lt)
  done

(* The fast path's engine step.  The engine's awake and touched bits are
   set before it is stepped (the caller sets the awake bit, this the
   touched one), so a step that raises (a corrupted plan index) leaves
   the engine awake and its tiles due: the next step, or the rollback's
   [restore], redoes them.  An engine whose step leaves its state
   all-zero contributes nothing and leaves the awake set. *)
let step_engine (arch : Arch.t) phases t ei c =
  t.touched <- t.touched lor t.engine_tiles.(ei);
  if Engine.step_live t.engines.(ei) c then add_events arch phases t ei
  else Bitvec.reset t.owner.Engine.awake ei

(* The fast path steps the awake set and the byte's wake row, in
   ascending engine order, and assembles the touched tiles from their
   baselines and the engines left awake.  The engines it leaves out are
   idle: no phase, cross signal or report, so the sums over the stepped
   engines are the array's, in engine order.  The reference kernel takes
   none of these shortcuts: it steps and projects every engine
   ([Engine.step]) and sums every tile from all of its pieces' records,
   so a [Reference] run checks the fast path's selection, its kept
   records and its baselines as well as its kernel. *)
let step (arch : Arch.t) t ~sym c =
  let ev = t.ev and awake = t.owner.Engine.awake in
  let phases = if arch.Arch.supports_nbva then phases_for arch t else [||] in
  let nw = Bitvec.words_for (Array.length t.engines) in
  ev.stall <- 0;
  ev.cross <- 0;
  ev.reports <- 0;
  ev.n_phases <- 0;
  (match !Nbva.kernel with
  | Nbva.Reference ->
      Bitvec.fill_ones awake;
      for ei = 0 to Array.length t.engines - 1 do
        let e = t.engines.(ei) in
        ignore (Engine.step e c);
        if Engine.idle e then Bitvec.reset awake ei else add_events arch phases t ei
      done;
      Array.iter
        (fun te ->
          te.t_powered <- false;
          te.t_enabled_cols <- 0;
          te.t_active_states <- 0)
        ev.tiles;
      for ei = 0 to Array.length t.engines - 1 do
        add_pieces t ei ~net:false
      done
  | Nbva.Bit_parallel ->
      let row = Char.code c * nw in
      for w = 0 to nw - 1 do
        (* [set_word] drops bits past the last engine: a flipped padding
           bit of the table names no engine *)
        Bitvec.set_word awake w (Bitvec.get_word awake w lor Array.unsafe_get t.wake (row + w));
        let m = ref (Bitvec.get_word awake w) in
        while !m <> 0 do
          step_engine arch phases t ((w * Bitvec.bits_per_word) + Bitvec.lsb_index !m) c;
          m := !m land (!m - 1)
        done
      done;
      for ti = 0 to Array.length ev.tiles - 1 do
        if t.touched land tile_bit ti <> 0 then begin
          let te = ev.tiles.(ti) in
          te.t_powered <- t.base_powered.(ti);
          te.t_enabled_cols <- t.base_enabled.(ti);
          te.t_active_states <- 0
        end
      done;
      for w = 0 to nw - 1 do
        let m = ref (Bitvec.get_word awake w) in
        while !m <> 0 do
          add_pieces t ((w * Bitvec.bits_per_word) + Bitvec.lsb_index !m) ~net:true;
          m := !m land (!m - 1)
        done
      done);
  t.touched <- 0;
  ev.sym <- sym;
  ev.symbol <- c;
  ev

(* A fresh-state clone: all compiled structure (engines' automata and
   masks, the pieces and baselines, the wake table) is shared with the
   template; run state, the awake set, event records and the phase
   cache are per-clone, so clones stepped on different domains share
   nothing mutable. *)
let clone_fresh t =
  of_parts (Array.map Engine.clone_fresh t.engines) ~pieces:t.pieces ~base_enabled:t.base_enabled
    ~base_powered:t.base_powered t.tile_modes ~engine_tiles:t.engine_tiles ~wake:t.wake
