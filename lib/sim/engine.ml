type mode = M_nfa | M_nbva | M_lnfa

(* Per-symbol event record, indexed by unit-local tile.  One record per
   engine, reused across steps: [step] refreshes it in place and returns
   it, so sinks read concrete data without poking accessor functions and
   the hot loop allocates nothing.  The projections below are plain
   loops for the same reason: a closure over the record would allocate
   on every symbol. *)
type events = {
  tile : int array;
  triggered : bool array;
  mutable cross : int;
  mutable reports : int;
}

(* Tile words (see engine.mli): active states in bits 0-23, enabled
   columns in bits 24-47, powering pieces from bit 48 to below the sign
   bit, so a word is never negative. *)
let tile_bits = 24
let tile_mask = (1 lsl tile_bits) - 1
let powering_bits = Sys.int_size - 1 - (2 * tile_bits)

(* Unchecked, for the projections: their fields stay within the tiles'
   [tile_bound]s, which [Exec.build] checks. *)
let word ~active ~enabled ~powering =
  active lor (enabled lsl tile_bits) lor (powering lsl (2 * tile_bits))

(* [lsr] sends a negative field far past its limit too. *)
let tile_word ~active ~enabled ~powering =
  if (active lor enabled) lsr tile_bits <> 0 || powering lsr powering_bits <> 0 then
    invalid_arg "Engine.tile_word: a field is past its limit";
  word ~active ~enabled ~powering

let tile_active w = w land tile_mask
let tile_enabled w = (w lsr tile_bits) land tile_mask

let tile_add a b =
  tile_word
    ~active:(tile_active a + tile_active b)
    ~enabled:(tile_enabled a + tile_enabled b)
    ~powering:((a lsr (2 * tile_bits)) + (b lsr (2 * tile_bits)))

(* ------------------------------------------------------------------ *)
(* NFA and NBVA units: one engine over an NBVA plan.  An NBVA unit steps
   its own automaton.  An NFA unit steps its compressed executor: the
   same regex as an NBVA in which every bounded-repetition chain is one
   BV state, so unfolded chain state [s_k] is vector bit [k-1].  Both
   step through [Nbva.step] and project the same run state onto tiles;
   the modes differ only in the maps below, which are data. *)

type plan = {
  plan_mode : mode;  (* M_nfa or M_nbva *)
  exec : Nbva.t;  (* the unit's own automaton or executor, shared, never copied *)
  tile_masks : Bitvec.t array;
      (* per tile: the states whose output is an active STE there — every
         state in NBVA mode, only Plain states in NFA mode, where a BV
         state stands for a whole unfolded chain *)
  bit_tiles : (int * int array) array;
      (* NFA mode: per BV state, the tile of each vector bit (one unfolded
         STE per bit); empty in NBVA mode *)
  trigger_tiles : int array;
      (* NBVA mode: flat (BV state, tile) pairs — a non-zero vector sends
         its tile into the BV phase; empty in NFA mode *)
  cross_sources : int array;
      (* flat (state, vector bit or -1) pairs, one per cross-tile edge:
         -1 reads the state's output, a bit one unfolded chain position *)
  tile_words : int array;
      (* per tile: its word with no state active — the columns searched
         every symbol, powered *)
  bv_cols : int array;  (* NBVA mode: per tile BV storage columns; empty in NFA mode *)
  max_bv : int;
  depth : int;  (* NBVA mode: BV depth; 0 in NFA mode *)
}

(* A plan tile is always powered and always enables the same columns. *)
let static_word enabled = tile_word ~active:0 ~enabled ~powering:1

(* Unfolded width of one executor state. *)
let exec_width ste = match ste with Nbva.Plain _ -> 1 | Nbva.Bv { size; _ } -> size

let nfa_plan (u : Program.nfa_unit) =
  (* the executor was compiled with the unit; its rewriting preserves the
     left-to-right order of unfolded positions, so prefix sums of widths
     recover each state's position range *)
  let exec = u.Program.exec in
  let n = Nbva.num_states exec in
  let offsets = Array.make (n + 1) 0 in
  for q = 0 to n - 1 do
    offsets.(q + 1) <- offsets.(q) + exec_width exec.Nbva.stes.(q)
  done;
  if offsets.(n) <> Nfa.num_states u.Program.nfa then
    invalid_arg "Engine: compressed executor disagrees with the unfolded NFA size";
  (* the executor state holding an unfolded position, by binary search *)
  let rec state_of pos lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if offsets.(mid + 1) <= pos then state_of pos (mid + 1) hi else state_of pos lo mid
  in
  let cross_sources = Array.make (2 * List.length u.Program.cross_edges) 0 in
  List.iteri
    (fun k (pos, _) ->
      let q = state_of pos 0 (n - 1) in
      cross_sources.(2 * k) <- q;
      cross_sources.((2 * k) + 1) <-
        (match exec.Nbva.stes.(q) with Nbva.Plain _ -> -1 | Nbva.Bv _ -> pos - offsets.(q)))
    u.Program.cross_edges;
  let tile_of = u.Program.tile_of_state in
  let tile_masks = Array.init (Array.length u.Program.tile_states) (fun _ -> Bitvec.create n) in
  let bit_tiles = Array.make (Nbva.num_bv_stes exec) (0, [||]) in
  let k = ref 0 in
  Array.iteri
    (fun q ste ->
      match ste with
      | Nbva.Plain _ -> Bitvec.set tile_masks.(tile_of.(offsets.(q))) q
      | Nbva.Bv { size; _ } ->
          bit_tiles.(!k) <- (q, Array.init size (fun bit -> tile_of.(offsets.(q) + bit)));
          incr k)
    exec.Nbva.stes;
  {
    plan_mode = M_nfa;
    exec;
    tile_masks;
    bit_tiles;
    trigger_tiles = [||];
    cross_sources;
    (* an NFA tile enables all its programmed columns *)
    tile_words = Array.map static_word u.Program.tile_cols;
    bv_cols = [||];
    max_bv = 0;
    depth = 0;
  }

let nbva_plan (nu : Program.nbva_unit) =
  let exec = nu.Program.nbva and tiles = nu.Program.ntiles in
  let n = Nbva.num_states exec and tile_of = nu.Program.tile_of_state in
  let tile_masks = Array.init (Array.length tiles) (fun _ -> Bitvec.create n) in
  Array.iteri (fun q t -> Bitvec.set tile_masks.(t) q) tile_of;
  (* a BV state's vector is allocated in its own tile *)
  let trigger_tiles = Array.make (2 * Nbva.num_bv_stes exec) 0 in
  let k = ref 0 in
  Array.iteri
    (fun q ste ->
      match ste with
      | Nbva.Bv _ ->
          trigger_tiles.(2 * !k) <- q;
          trigger_tiles.((2 * !k) + 1) <- tile_of.(q);
          incr k
      | Nbva.Plain _ -> ())
    exec.Nbva.stes;
  let cross_sources = Array.make (2 * List.length nu.Program.cross_edges) (-1) in
  List.iteri (fun k (q, _) -> cross_sources.(2 * k) <- q) nu.Program.cross_edges;
  let allocs (t : Program.nbva_tile) f = List.fold_left f 0 t.Program.bvs in
  {
    plan_mode = M_nbva;
    exec;
    tile_masks;
    bit_tiles = [||];
    trigger_tiles;
    cross_sources;
    (* only CC columns are searched every symbol; BV columns activate in
       the processing phase *)
    tile_words = Array.map (fun (t : Program.nbva_tile) -> static_word t.Program.cc_cols) tiles;
    (* BV storage columns: sum of allocation widths (equals [bv_cols] on
       RAP; covers BVAP, whose BVM columns are not CAM columns) *)
    bv_cols = Array.map (fun t -> allocs t (fun acc a -> acc + a.Program.width)) tiles;
    max_bv =
      Array.fold_left
        (fun m t -> Int.max m (allocs t (fun acc a -> Int.max acc a.Program.size)))
        0 tiles;
    depth = nu.Program.depth;
  }

(* The vector of a BV state named by a plan map. *)
let vector vecs q =
  match vecs.(q) with
  | Some v -> v
  | None -> invalid_arg "Nbva: corrupt plan table (index out of range)"

(* Projection: refresh the stats record from the post-step run state.
   Split from the automaton advance so [step_kernel] can advance the
   state alone — the projection reads only this engine's state.  A
   tile's word is its static word plus its active states. *)
let plan_project p st s =
  let act = Nbva.outputs st and vecs = Nbva.vectors st in
  for t = 0 to Array.length s.tile - 1 do
    s.tile.(t) <- p.tile_words.(t) + Bitvec.popcount_and act p.tile_masks.(t);
    s.triggered.(t) <- false
  done;
  (* unfolded chain activity per vector bit, walking the set bits word
     by word *)
  for k = 0 to Array.length p.bit_tiles - 1 do
    let q, bit_tiles = p.bit_tiles.(k) in
    let v = vector vecs q in
    for i = 0 to Bitvec.words_for (Bitvec.width v) - 1 do
      let w = ref (Bitvec.get_word v i) in
      while !w <> 0 do
        let t = bit_tiles.((i * Bitvec.bits_per_word) + Bitvec.lsb_index !w) in
        s.tile.(t) <- s.tile.(t) + 1;
        w := !w land (!w - 1)
      done
    done
  done;
  let trig = p.trigger_tiles in
  for k = 0 to (Array.length trig / 2) - 1 do
    if not (Bitvec.is_zero (vector vecs trig.(2 * k))) then s.triggered.(trig.((2 * k) + 1)) <- true
  done;
  let src = p.cross_sources in
  let cross = ref 0 in
  for k = 0 to (Array.length src / 2) - 1 do
    let q = src.(2 * k) and bit = src.((2 * k) + 1) in
    if if bit < 0 then Bitvec.get act q else Bitvec.get (vector vecs q) bit then incr cross
  done;
  s.cross <- !cross;
  s.reports <- Nbva.reports p.exec st

(* ------------------------------------------------------------------ *)
(* LNFA bins: Shift-And over the packed bin, regions mapped to tiles.   *)

type bin_engine = {
  bin : Binning.bin;
  sa : Shift_and.t;
  b_arena : Arena.t;  (* holds the packed state vector; the snapshot surface *)
  sa_st : Shift_and.state;
  bit_tile : int array;  (* packed bit -> bin tile *)
  b_tile_masks : Bitvec.t array;  (* per tile: its packed bits *)
  ring_mask : Bitvec.t;  (* bits whose shift crosses into the next tile *)
  initial_cols_t0 : int;  (* one initial column per member line *)
  b_static_cols : int array;
}

(* Bin arenas are private to the engine, so they carry a trailing guard
   word like the private arenas [Nbva.start] creates — one extra
   capacity word, armed after the state slice is allocated. *)
let make_bin_arena sa =
  let a = Arena.create ~capacity:(Shift_and.state_words sa + 1) in
  let st = Shift_and.start_in a sa in
  Arena.guard a;
  (a, st)

let make_bin_engine (bin : Binning.bin) sa =
  let offsets = Shift_and.pattern_offsets sa in
  let width = Shift_and.width sa in
  let bit_tile = Array.make width 0 in
  List.iteri
    (fun j (_, line) ->
      let base = offsets.(j) in
      Array.iteri
        (fun i _ -> bit_tile.(base + i) <- i / bin.Binning.region_states)
        line.Program.labels)
    bin.Binning.members;
  let per_state = if bin.Binning.single_code then 1 else 2 in
  let static_cols = Array.make bin.Binning.tiles 0 in
  Array.iter (fun t -> static_cols.(t) <- static_cols.(t) + per_state) bit_tile;
  let tile_masks = Array.init bin.Binning.tiles (fun _ -> Bitvec.create width) in
  Array.iteri (fun bit t -> Bitvec.set tile_masks.(t) bit) bit_tile;
  (* Ring mask: a set bit feeds a cross signal into the next tile only when
     its successor position lives one tile over AND it is not the final
     position of a member pattern — a pattern-final bit has no successor;
     its shift leaks into the next member's initial position (re-armed by
     maskInitial anyway) and must not be billed as ring-switch energy when
     the member boundary coincides with a region boundary. *)
  let ring_mask = Bitvec.create width in
  let pattern_last = Array.make (Int.max 1 width) false in
  Array.iteri (fun j off -> if j > 0 then pattern_last.(off - 1) <- true) offsets;
  if width > 0 then pattern_last.(width - 1) <- true;
  for bit = 0 to width - 2 do
    if bit_tile.(bit + 1) = bit_tile.(bit) + 1 && not pattern_last.(bit) then
      Bitvec.set ring_mask bit
  done;
  let b_arena, sa_st = make_bin_arena sa in
  {
    bin;
    sa;
    b_arena;
    sa_st;
    bit_tile;
    b_tile_masks = tile_masks;
    ring_mask;
    initial_cols_t0 = List.length bin.Binning.members;
    b_static_cols = static_cols;
  }

(* Every field but [triggered] (bins have no BV phase) is written. *)
let bin_project (e : bin_engine) s =
  let v = Shift_and.state_vector e.sa_st in
  let per_state = if e.bin.Binning.single_code then 1 else 2 in
  for t = 0 to Array.length s.tile - 1 do
    let active = Bitvec.popcount_and v e.b_tile_masks.(t) in
    (* enabled columns: active states plus, in tile 0, the always-armed
       initial columns *)
    let enabled = per_state * active in
    let enabled = if t = 0 then enabled + (per_state * e.initial_cols_t0) else enabled in
    let cap = e.b_static_cols.(t) in
    (* an int [min] written out, as in [Bitvec.words_for]; power gating:
       a tile without initial states sleeps when idle *)
    s.tile.(t) <-
      word ~active
        ~enabled:(if enabled < cap then enabled else cap)
        ~powering:(if t = 0 || active > 0 then 1 else 0)
  done;
  (* ring signals: bits crossing a region boundary feed the next tile *)
  s.cross <- Bitvec.popcount_and v e.ring_mask;
  s.reports <- Shift_and.final_hits e.sa e.sa_st

(* ------------------------------------------------------------------ *)

(* A plan engine's run state is its own; the plan is shared by clones. *)
type kind = E_plan of plan * Nbva.run_state | E_bin of bin_engine

type region =
  | R_words of string * int array
  | R_bytes of string * Bytes.t
  | R_vecs of string * Bitvec.t array

type owner = { awake : Bitvec.t; tables : region list }

(* What every engine kind shares: its event record and its place in the
   array that steps it ([slot] is its bit in [owner.awake]; -1 until
   [attach]). *)
type t = { kind : kind; stats : events; mutable owner : owner; mutable slot : int }

(* Never written: a detached engine has no bit to set. *)
let detached = { awake = Bitvec.create 0; tables = [] }

(* A fresh record is the projection of the fresh, all-zero state: a
   plan tile's static word, a bin's projected here. *)
let make kind n =
  let stats = { tile = Array.make n 0; triggered = Array.make n false; cross = 0; reports = 0 } in
  (match kind with
  | E_plan (p, _) -> Array.blit p.tile_words 0 stats.tile 0 n
  | E_bin e -> bin_project e stats);
  { kind; stats; owner = detached; slot = -1 }

let attach t owner slot =
  t.owner <- owner;
  t.slot <- slot;
  Bitvec.set owner.awake slot

let wake t = if t.slot >= 0 then Bitvec.set t.owner.awake t.slot
let array_regions t = t.owner.tables

let mode t = match t.kind with E_plan (p, _) -> p.plan_mode | E_bin _ -> M_lnfa
let of_plan p = make (E_plan (p, Nbva.start p.exec)) (Array.length p.tile_masks)
let of_nfa_unit u = of_plan (nfa_plan u)
let of_nbva_unit u = of_plan (nbva_plan u)

let of_bin ?tables b =
  let sa = match tables with Some sa -> sa | None -> Binning.shift_and b in
  make (E_bin (make_bin_engine b sa)) b.Binning.tiles

let stepper_name t = match t.kind with E_plan _ -> "general" | E_bin _ -> "shift-and"
let dfa_stats _ = None
let num_tiles t = Array.length t.stats.tile

(* A plan tile's active count is bounded by its masked states plus every
   unfolded chain bit of the unit, a bin tile's by its bits. *)
let tile_bound t i =
  match t.kind with
  | E_plan (p, _) ->
      let bits = Array.fold_left (fun n (_, tiles) -> n + Array.length tiles) 0 p.bit_tiles in
      let active = Bitvec.popcount p.tile_masks.(i) + bits in
      tile_word ~active ~enabled:(tile_enabled p.tile_words.(i)) ~powering:1
  | E_bin e ->
      let active = Bitvec.popcount e.b_tile_masks.(i) in
      tile_word ~active ~enabled:e.b_static_cols.(i) ~powering:1
let events t = t.stats

let wake_bytes t =
  match t.kind with E_plan (p, _) -> Nbva.wake_bytes p.exec | E_bin e -> Shift_and.wake_bytes e.sa

let advance_state t c =
  match t.kind with
  | E_plan (p, st) -> ignore (Nbva.step_selected p.exec st c)
  | E_bin e -> ignore (Shift_and.step e.sa e.sa_st c)

let project t =
  match t.kind with E_plan (p, st) -> plan_project p st t.stats | E_bin e -> bin_project e t.stats

(* Every step advances and projects, live or idle: skipping engines
   whose state is all-zero is the array's job (see Exec). *)
let step t c =
  advance_state t c;
  project t;
  t.stats

let idle t =
  match t.kind with
  | E_plan (_, st) -> Nbva.idle st
  | E_bin e -> Bitvec.is_zero (Shift_and.state_vector e.sa_st)

(* A plan engine's record is stale while its kernel's change flag is
   set: every kernel step that changes the state sets it, [invalidate]
   sets it for a write from outside a step, and [step_live] clears it
   when it projects.  Bins project on every live step and need no mark. *)
let invalidate t = match t.kind with E_plan (_, st) -> Nbva.set_changed st true | E_bin _ -> ()

type outcome = Idle | Unchanged | Projected

(* The array's step (see Exec): advance, then leave the record alone
   when the state is all-zero (the array counts an idle engine at its
   idle share and never reads its record) or when the record is not
   stale (it already projects the state); otherwise project.  So
   projection always happens here, against the tables as they are
   now.  A plan engine's liveness comes from the kernel's own step
   ([Nbva.live]), not from a second scan of its words. *)
let step_live t c =
  match t.kind with
  | E_plan (p, st) ->
      ignore (Nbva.step_selected p.exec st c);
      if not (Nbva.live st) then Idle
      else if Nbva.changed st then begin
        plan_project p st t.stats;
        Nbva.set_changed st false;
        Projected
      end
      else Unchanged
  | E_bin e ->
      ignore (Shift_and.step e.sa e.sa_st c);
      if Bitvec.is_zero (Shift_and.state_vector e.sa_st) then Idle
      else begin
        bin_project e t.stats;
        Projected
      end

(* [step_kernel] advances only the automaton state — no tile
   projection, no stats, so the record goes stale.  The per-layer
   profile times it against the full [step] to split the kernel from
   the projection; it skips an idle engine whose byte does not wake it,
   whose state the step would leave all-zero. *)
let step_kernel t c =
  if not (idle t && Bytes.unsafe_get (wake_bytes t) (Char.code c) = '\000') then
    advance_state t c

(* ------------------------------------------------------------------ *)
(* Stream clones.  A clone shares every immutable compiled structure
   (automata, plans, tile masks, cross lists — all read-only after
   construction) and gets fresh run state and a fresh stats record, so B
   streams against one placement pay the compilation once.  The clone
   belongs to no array until one attaches it. *)

let clone_fresh t =
  let kind =
    match t.kind with
    | E_plan (p, _) -> E_plan (p, Nbva.start p.exec)
    | E_bin e ->
        let b_arena, sa_st = make_bin_arena e.sa in
        E_bin { e with b_arena; sa_st }
  in
  make kind (num_tiles t)

let tile_bv_cols t i =
  match t.kind with E_plan ({ plan_mode = M_nbva; _ } as p, _) -> p.bv_cols.(i) | _ -> 0

let max_bv_size t = match t.kind with E_plan (p, _) -> p.max_bv | E_bin _ -> 0
let bv_depth t = match t.kind with E_plan (p, _) -> p.depth | E_bin _ -> 0

(* ------------------------------------------------------------------ *)
(* Transient-fault surface: every state bit the hardware stores between
   symbols.  Plan engines expose the active vector (one bit per STE)
   followed by every BV word bit, in state order; LNFA bins expose the
   packed Shift-And state vector.  Flipping an active bit corrupts the
   availability seen by successors at the next symbol; flipping a BV bit
   corrupts the repetition counter — exactly the soft-error modes of the
   8T-SRAM CAM cells and BV words.

   The flippable BV surface is every *materialized* vector: the walk
   below goes over [Nbva.vectors], which holds [Some] only for BV-STEs,
   so counting [Nbva.total_bv_bits] (a static property of the
   automaton) would overcount whenever a vector is not materialized and
   a valid index could then raise [Invalid_argument] mid-campaign.
   Count exactly the words the walk can reach. *)

let state_bits t =
  match t.kind with
  | E_plan (_, st) ->
      Array.fold_left
        (fun acc v -> match v with Some v -> acc + Bitvec.width v | None -> acc)
        (Bitvec.width (Nbva.outputs st)) (Nbva.vectors st)
  | E_bin e -> Bitvec.width (Shift_and.state_vector e.sa_st)

let flip_bit v i = if Bitvec.get v i then Bitvec.reset v i else Bitvec.set v i

let plan_flip st i =
  let act = Nbva.outputs st in
  let rest = ref (i - Bitvec.width act) in
  if !rest < 0 then flip_bit act i
  else
    Array.iter
      (fun v ->
        match v with
        | Some v when !rest >= 0 ->
            if !rest < Bitvec.width v then flip_bit v !rest;
            rest := !rest - Bitvec.width v
        | Some _ | None -> ())
      (Nbva.vectors st)

(* ------------------------------------------------------------------ *)
(* Snapshot / restore.  Each engine's run state lives in one arena (NBVA
   executors allocate theirs in [Nbva.start], bins in [make_bin_arena]):
   the inter-symbol surface above plus scratch the next step overwrites
   and the guard word.  Everything else an engine holds is immutable, so
   one word blit of the arena captures and restores the whole state —
   under both NBVA kernels, which share the same stored state.  Both
   writes below can make an engine live behind its array's back, so
   both wake the engine, and both mark its record stale: the kernel
   sees a change only within its own step. *)

let run_arena t = match t.kind with E_plan (_, st) -> Nbva.run_arena st | E_bin e -> e.b_arena
let snapshot t = Arena.snapshot (run_arena t)

let snapshot_into t dst =
  let a = run_arena t in
  if Array.length dst <> Arena.used a then
    invalid_arg "Engine.snapshot_into: buffer does not match this engine";
  Array.blit (Arena.words a) 0 dst 0 (Arena.used a)

let restore t snap =
  (try Arena.restore (run_arena t) snap
   with Invalid_argument _ -> invalid_arg "Engine.restore: snapshot does not match this engine");
  invalidate t;
  wake t

let flip_state_bit t i =
  if i < 0 || i >= state_bits t then invalid_arg "Engine.flip_state_bit: index out of range";
  (match t.kind with
  | E_plan (_, st) -> plan_flip st i
  | E_bin e -> flip_bit (Shift_and.state_vector e.sa_st) i);
  invalidate t;
  wake t

(* ------------------------------------------------------------------ *)
(* Integrity surface: the immutable compiled regions the kernels read
   (checksum-sealable and repairable), a reference-kernel state advance for
   the shadow-stepping sentinel, and semantic state comparison.

   The shadow step uses [Nbva.step_reference], which probes the
   automaton's [preds]/[initial]/[stes] records and never touches the
   flat plan tables below — so a live-vs-shadow divergence implicates
   either corrupted run state inside the replay window or a corrupted
   plan table, both of which the caller heals by rollback + repair.
   LNFA bins have no second kernel (the Shift-And step *is* the
   reference), so their table corruption is caught by the checksum sweep
   alone; state corruption is still caught by replay-from-clean-state. *)

let region_name = function
  | R_words (n, _) | R_bytes (n, _) | R_vecs (n, _) -> n

let immutable_regions t =
  match t.kind with
  | E_plan (p, _) ->
      List.map (fun (n, a) -> R_words (n, a)) (Nbva.plan_tables p.exec)
      @ List.map (fun (n, b) -> R_bytes (n, b)) (Nbva.plan_bytes p.exec)
  | E_bin e -> List.map (fun (n, vs) -> R_vecs (n, vs)) (Shift_and.tables e.sa)

(* The reference kernel leaves an all-zero state all-zero on a byte
   outside every initial STE's class, so the replay skips that step.
   The test reads the automaton's reference records, not the plan's
   [wake] table that the live path's awake set is built from: a
   corrupted wake table still shows as a divergence. *)
let reference_wakes (exec : Nbva.t) c =
  let init = exec.Nbva.initial_states in
  let hit = ref false and i = ref 0 in
  while (not !hit) && !i < Array.length init do
    (hit :=
       match exec.Nbva.stes.(init.(!i)) with
       | Nbva.Plain cc | Nbva.Bv { cc; _ } -> Charclass.mem cc c);
    incr i
  done;
  !hit

let step_shadow t c =
  match t.kind with
  | E_plan (p, st) ->
      if reference_wakes p.exec c || not (Nbva.idle st) then
        ignore (Nbva.step_reference p.exec st c)
      else Nbva.set_changed st true
  | E_bin e -> ignore (Shift_and.step e.sa e.sa_st c)

(* Rolling digest of the semantic inter-symbol state — the same vectors
   [state_equal] compares, folded word by word through an FNV-style mix:
   xor, an odd multiply and an xorshift, each invertible, so for a fixed
   word the step is a bijection of the running value.
   The sentinel accumulates this after every symbol of its window on both
   the live and the shadow side: corruption that has washed out of the
   state by the window end (a flipped bounded-repetition bit expires in a
   few symbols) still perturbed some intermediate state, so the digests
   diverge even though the end states agree. *)
let digest_mix acc w =
  let h = (acc lxor w) * 0x100000001b3 in
  h lxor (h lsr 31)

let digest_vec acc v =
  let n = Bitvec.words_for (Bitvec.width v) in
  let acc = ref (digest_mix acc n) in
  for i = 0 to n - 1 do
    acc := digest_mix !acc (Bitvec.get_word v i)
  done;
  !acc

(* A plan engine's live vectors lie in one contiguous arena range. *)
let state_digest t acc =
  match t.kind with
  | E_plan (_, st) -> Nbva.fold_live digest_mix acc st
  | E_bin e -> digest_vec acc (Shift_and.state_vector e.sa_st)

let state_equal a b =
  match (a.kind, b.kind) with
  | E_plan (p, x), E_plan (q, y) ->
      p.plan_mode = q.plan_mode
      && Bitvec.equal (Nbva.outputs x) (Nbva.outputs y)
      && Array.for_all2
           (fun v w ->
             match (v, w) with
             | Some v, Some w -> Bitvec.equal v w
             | None, None -> true
             | Some _, None | None, Some _ -> false)
           (Nbva.vectors x) (Nbva.vectors y)
  | E_bin x, E_bin y ->
      Bitvec.equal (Shift_and.state_vector x.sa_st) (Shift_and.state_vector y.sa_st)
  | _ -> false

let guards_ok t = Arena.guards_ok (run_arena t)
let rearm_guards t = Arena.rearm_guards (run_arena t)
