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

(* The event record is owned by its [t] and updated in place by every
   [step].  BV-phase records depend only on (engine, local tile, arch),
   so they are built once per architecture, one per BV-phase slot, and
   [step] copies references into [bv_phases].

   Awake set.  [step] steps only the engines in [owner.awake] (state
   that may be non-zero) and those in the byte's row of [wake] (engines
   the byte wakes from the zero state).  An engine leaves the set right
   after a step that leaves its state all-zero ([Engine.step_live]
   returns [Idle]); the all-zero state stays all-zero on every byte
   outside its wake row, so skipping it is exact until the byte's row or
   [Engine.restore] / [Engine.flip_state_bit], which set its bit, bring
   it back.

   Counting by delta.  The record holds every engine at some share: an
   engine outside the set at its idle share (the projection of the
   all-zero state), an engine in it at its record as last projected.
   [held] keeps, per piece, what that share put on the piece's tile
   (active states, enabled columns, powered, packed into one word),
   [e_cross] / [e_reports] what it put in the array totals, and [slots]
   which of its tiles it sends into the BV phase.  A step changes a
   share only when the engine projects ([Projected]) or goes idle
   ([Idle]); it then adds new minus held to each of the engine's tiles
   whose piece moved and to the totals, and flips the slots that
   moved.  An engine stepped without
   change touches nothing, and neither does one left out.  [powered] is
   an OR over pieces, so each tile keeps a count of the pieces that
   power it ([pow]).  Tiles start at their idle baseline
   ([base_enabled], [base_powered]) with every engine at its idle
   share: at [build], [clone_fresh] and [restore]. *)
type t = {
  engines : Engine.t array;
  pieces : int array array;
      (* per engine: flat (physical tile, local tile, idle share
         [packed]) triples, one per tile piece *)
  first_piece : int array;  (* per engine: its first piece's index in [held] *)
  base_enabled : int array;  (* per physical tile, every engine idle *)
  base_powered : int array;  (* per physical tile: pieces the idle records power *)
  tile_modes : Engine.mode array;
  slot_of : int array;
      (* per engine: its first BV-phase slot, one slot per local tile in
         engine order; -1 for an engine that never triggers *)
  wake : int array;
      (* byte -> engines it wakes: 256 rows of [Bitvec.words_for] (engines)
         words, in [Bitvec] word layout; sealed as [owner.tables] *)
  owner : Engine.owner;
  held : int array;  (* per piece: its share as counted, [packed] *)
  pow : int array;  (* per physical tile: counted pieces that power it *)
  e_cross : int array;
  e_reports : int array;
  slots : Bitvec.t;  (* BV-phase slots whose tile is triggered *)
  mutable n_set : int;  (* set bits of [slots] *)
  mutable resync : bool;  (* a [Reference] step rebuilt [ev] from scratch *)
  ev : array_events;
  mutable phases : (Arch.t * bv_phase array) option;
      (* per slot, for the last architecture stepped *)
}

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

let no_phase = { p_mode = Engine.M_nbva; p_bv_cols = 0; p_iterations = 0; p_stall = 0 }

(* A piece's share of its tile in one word: active states, enabled
   columns and powered (0/1), in 24-bit fields.  A piece's counts are
   bounded by its unit's states and its tile's columns, far below 2^24. *)
let field = 24
let field_mask = (1 lsl field) - 1
let packed ~active ~enabled ~powered = active lor (enabled lsl field) lor (powered lsl (2 * field))

(* Every tile at its idle baseline and every engine at its idle share:
   the state [build], [clone_fresh] and [restore] leave. *)
let reset_counts t =
  let ev = t.ev in
  Array.iteri
    (fun ti te ->
      te.t_active_states <- 0;
      te.t_enabled_cols <- t.base_enabled.(ti);
      t.pow.(ti) <- t.base_powered.(ti);
      te.t_powered <- t.base_powered.(ti) > 0)
    ev.tiles;
  Array.iteri
    (fun ei pc ->
      for k = 0 to (Array.length pc / 3) - 1 do
        t.held.(t.first_piece.(ei) + k) <- pc.((3 * k) + 2)
      done;
      t.e_cross.(ei) <- 0;
      t.e_reports.(ei) <- 0)
    t.pieces;
  Bitvec.clear t.slots;
  t.n_set <- 0;
  t.resync <- false;
  ev.cross <- 0;
  ev.reports <- 0;
  ev.stall <- 0;
  ev.n_phases <- 0

let of_parts engines ~pieces ~first_piece ~base_enabled ~base_powered tile_modes ~slot_of ~wake =
  let n = Array.length engines in
  let n_pieces = Array.fold_left (fun acc pc -> acc + (Array.length pc / 3)) 0 pieces in
  let n_slots = ref 0 in
  for ei = 0 to n - 1 do
    if slot_of.(ei) >= 0 then n_slots := slot_of.(ei) + Engine.num_tiles engines.(ei)
  done;
  let n_slots = !n_slots in
  let owner =
    { Engine.awake = Bitvec.create n; tables = [ Engine.R_words ("array_wake", wake) ] }
  in
  Array.iteri (fun i e -> Engine.attach e owner i) engines;
  let t =
    {
      engines;
      pieces;
      first_piece;
      base_enabled;
      base_powered;
      tile_modes;
      slot_of;
      wake;
      owner;
      held = Array.make n_pieces 0;
      pow = Array.make (Array.length tile_modes) 0;
      e_cross = Array.make n 0;
      e_reports = Array.make n 0;
      slots = Bitvec.create n_slots;
      n_set = 0;
      resync = false;
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
          bv_phases = Array.make n_slots no_phase;
          n_phases = 0;
        };
      phases = None;
    }
  in
  reset_counts t;
  t

(* One engine per unit or bin with a piece in [tiles], in first-seen
   order.  A first pass makes the engines and counts their pieces, a
   second writes each engine's triples, reading its idle share from
   its fresh record (the projection of the all-zero state); the
   baseline sums the fresh records over every piece.  NBVA-mode engines
   get one BV-phase slot per local tile, in engine order. *)
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
  let n = Array.length engines in
  let pieces = Array.init n (fun ei -> Array.make (3 * counts.(ei)) 0) in
  let first_piece = Array.make n 0 in
  for ei = 1 to n - 1 do
    first_piece.(ei) <- first_piece.(ei - 1) + counts.(ei - 1)
  done;
  let ntiles = Array.length tiles in
  let base_enabled = Array.make ntiles 0 and base_powered = Array.make ntiles 0 in
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
          let powered = if r.Engine.powered.(lt) then 1 else 0 in
          pc.(j) <- ti;
          pc.(j + 1) <- lt;
          pc.(j + 2) <- packed ~active:0 ~enabled:r.Engine.enabled.(lt) ~powered;
          base_enabled.(ti) <- base_enabled.(ti) + r.Engine.enabled.(lt);
          base_powered.(ti) <- base_powered.(ti) + powered;
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
  let slot_of = Array.make n (-1) and next = ref 0 in
  Array.iteri
    (fun ei e ->
      if Engine.mode e = Engine.M_nbva then begin
        slot_of.(ei) <- !next;
        next := !next + Engine.num_tiles e
      end)
    engines;
  of_parts engines ~pieces ~first_piece ~base_enabled ~base_powered tile_modes ~slot_of
    ~wake:(wake_table engines)

let engines t = t.engines
let awake_count t = Bitvec.popcount t.owner.Engine.awake
let tile_modes t = t.tile_modes

let snapshot t = Array.map Engine.snapshot t.engines
let snapshot_flat = snapshot

let snapshot_into t dst =
  if Array.length dst <> Array.length t.engines then
    invalid_arg "Exec.snapshot_into: buffer does not match this array";
  Array.iteri (fun i e -> Engine.snapshot_into e dst.(i)) t.engines

(* Every engine's [Engine.restore] marks its record stale and wakes it,
   and every tile goes back to its baseline; the next step then steps
   them all and counts every one it leaves live. *)
let restore t snaps =
  if Array.length snaps <> Array.length t.engines then
    invalid_arg "Exec.restore: snapshot does not match this array";
  Array.iteri (fun i s -> Engine.restore t.engines.(i) s) snaps;
  reset_counts t

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
      let tbl = Array.make (Bitvec.width t.slots) no_phase in
      Array.iteri
        (fun ei e ->
          let s = t.slot_of.(ei) in
          if s >= 0 then
            for lt = 0 to Engine.num_tiles e - 1 do
              tbl.(s + lt) <- phase_of arch e lt
            done)
        t.engines;
      t.phases <- Some (arch, tbl);
      tbl

let emit_phase ev p =
  ev.bv_phases.(ev.n_phases) <- p;
  ev.n_phases <- ev.n_phases + 1;
  if p.p_stall > ev.stall then ev.stall <- p.p_stall

(* Count engine [ei] at its record, or at its idle share when [idle],
   in place of what it counted: new minus held on each tile whose piece
   moved and on the array totals, and the BV-phase slots that moved. *)
let recount t ei ~idle =
  let r = Engine.events t.engines.(ei) and pc = t.pieces.(ei) in
  let tiles = t.ev.tiles and held = t.held and h0 = t.first_piece.(ei) in
  for k = 0 to (Array.length pc / 3) - 1 do
    let lt = pc.((3 * k) + 1) in
    let now =
      if idle then pc.((3 * k) + 2)
      else
        packed ~active:r.Engine.active.(lt) ~enabled:r.Engine.enabled.(lt)
          ~powered:(if r.Engine.powered.(lt) then 1 else 0)
    in
    let was = held.(h0 + k) in
    if now <> was then begin
      held.(h0 + k) <- now;
      let ti = pc.(3 * k) in
      let te = tiles.(ti) in
      te.t_active_states <- te.t_active_states + (now land field_mask) - (was land field_mask);
      te.t_enabled_cols <-
        te.t_enabled_cols + ((now lsr field) land field_mask) - ((was lsr field) land field_mask);
      let d = (now lsr (2 * field)) - (was lsr (2 * field)) in
      if d <> 0 then begin
        t.pow.(ti) <- t.pow.(ti) + d;
        te.t_powered <- t.pow.(ti) > 0
      end
    end
  done;
  let ev = t.ev in
  let cross = if idle then 0 else r.Engine.cross in
  ev.cross <- ev.cross + cross - t.e_cross.(ei);
  t.e_cross.(ei) <- cross;
  let reports = if idle then 0 else r.Engine.reports in
  ev.reports <- ev.reports + reports - t.e_reports.(ei);
  t.e_reports.(ei) <- reports;
  let s0 = t.slot_of.(ei) in
  if s0 >= 0 then begin
    let trig = r.Engine.triggered in
    for lt = 0 to Array.length trig - 1 do
      let on = (not idle) && trig.(lt) in
      if on <> Bitvec.get t.slots (s0 + lt) then
        if on then begin
          Bitvec.set t.slots (s0 + lt);
          t.n_set <- t.n_set + 1
        end
        else begin
          Bitvec.reset t.slots (s0 + lt);
          t.n_set <- t.n_set - 1
        end
    done
  end

(* The fast path's engine step.  The engine's awake bit is set before
   it is stepped, so a step that raises (a corrupted plan index) leaves
   the engine awake: the rollback's [restore] redoes it.  An engine
   that goes idle was counted at its record, except on the first step
   after a reset, where the recount changes nothing. *)
let step_engine t ei c =
  match Engine.step_live t.engines.(ei) c with
  | Engine.Idle ->
      Bitvec.reset t.owner.Engine.awake ei;
      recount t ei ~idle:true
  | Engine.Unchanged -> ()
  | Engine.Projected -> recount t ei ~idle:false

(* The phases of the set slots, in slot order, which is engine order. *)
let emit_slots (arch : Arch.t) t =
  let ev = t.ev in
  ev.stall <- 0;
  ev.n_phases <- 0;
  if arch.Arch.supports_nbva && t.n_set > 0 then begin
    let tbl = phases_for arch t in
    for w = 0 to Bitvec.words_for (Bitvec.width t.slots) - 1 do
      let m = ref (Bitvec.get_word t.slots w) in
      while !m <> 0 do
        emit_phase ev tbl.((w * Bitvec.bits_per_word) + Bitvec.lsb_index !m);
        m := !m land (!m - 1)
      done
    done
  end

(* A [Reference] step rebuilt the record from scratch, so the fast path
   starts over: every engine stale, awake and at its idle share. *)
let resync t =
  Array.iter Engine.invalidate t.engines;
  Bitvec.fill_ones t.owner.Engine.awake;
  reset_counts t

(* The fast path steps the awake set and the byte's wake row, in
   ascending engine order, and counts each engine whose share moved.
   The engines it leaves out are idle: no phase, cross signal or
   report, and their tiles already count them at their idle share.
   The reference kernel takes none of these shortcuts: it steps and
   projects every engine ([Engine.step]) and sums the record from all
   of the engines' records, so a [Reference] run checks the fast path's
   selection, its kept records, its deltas and its baselines as well as
   its kernel. *)
let step (arch : Arch.t) t ~sym c =
  let ev = t.ev and awake = t.owner.Engine.awake in
  let nw = Bitvec.words_for (Array.length t.engines) in
  (match !Nbva.kernel with
  | Nbva.Reference ->
      t.resync <- true;
      ev.stall <- 0;
      ev.cross <- 0;
      ev.reports <- 0;
      ev.n_phases <- 0;
      let tbl = if arch.Arch.supports_nbva then phases_for arch t else [||] in
      Bitvec.fill_ones awake;
      Array.iter
        (fun te ->
          te.t_powered <- false;
          te.t_enabled_cols <- 0;
          te.t_active_states <- 0)
        ev.tiles;
      for ei = 0 to Array.length t.engines - 1 do
        let e = t.engines.(ei) in
        let r = Engine.step e c in
        if Engine.idle e then Bitvec.reset awake ei
        else begin
          let s0 = t.slot_of.(ei) in
          if arch.Arch.supports_nbva && s0 >= 0 then
            for lt = 0 to Array.length r.Engine.triggered - 1 do
              if r.Engine.triggered.(lt) then emit_phase ev tbl.(s0 + lt)
            done;
          ev.cross <- ev.cross + r.Engine.cross;
          ev.reports <- ev.reports + r.Engine.reports
        end;
        let pc = t.pieces.(ei) in
        for k = 0 to (Array.length pc / 3) - 1 do
          let te = ev.tiles.(pc.(3 * k)) and lt = pc.((3 * k) + 1) in
          if r.Engine.powered.(lt) then te.t_powered <- true;
          te.t_enabled_cols <- te.t_enabled_cols + r.Engine.enabled.(lt);
          te.t_active_states <- te.t_active_states + r.Engine.active.(lt)
        done
      done
  | Nbva.Bit_parallel ->
      if t.resync then resync t;
      let row = Char.code c * nw in
      for w = 0 to nw - 1 do
        (* [set_word] drops bits past the last engine: a flipped padding
           bit of the table names no engine *)
        Bitvec.set_word awake w (Bitvec.get_word awake w lor Array.unsafe_get t.wake (row + w));
        let m = ref (Bitvec.get_word awake w) in
        while !m <> 0 do
          step_engine t ((w * Bitvec.bits_per_word) + Bitvec.lsb_index !m) c;
          m := !m land (!m - 1)
        done
      done;
      emit_slots arch t);
  ev.sym <- sym;
  ev.symbol <- c;
  ev

(* A fresh-state clone: all compiled structure (engines' automata and
   masks, the pieces, baselines and slots, the wake table) is shared
   with the template; run state, the awake set, the counted shares,
   event records and the phase cache are per-clone, so clones stepped
   on different domains share nothing mutable. *)
let clone_fresh t =
  of_parts (Array.map Engine.clone_fresh t.engines) ~pieces:t.pieces ~first_piece:t.first_piece
    ~base_enabled:t.base_enabled ~base_powered:t.base_powered t.tile_modes ~slot_of:t.slot_of
    ~wake:t.wake
