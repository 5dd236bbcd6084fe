type mode = M_nfa | M_nbva | M_lnfa

(* Per-symbol event record, indexed by unit-local tile.  One record per
   engine, reused across steps: [step] refreshes it in place and returns
   it, so sinks read concrete data without poking accessor functions and
   the hot loop allocates nothing.  The projections below are plain
   loops for the same reason: a closure over the record would allocate
   on every symbol. *)
type events = {
  active : int array;
  enabled : int array;
  powered : bool array;
  triggered : bool array;
  mutable cross : int;
  mutable reports : int;
}

let stats_create n =
  {
    active = Array.make n 0;
    enabled = Array.make n 0;
    powered = Array.make n true;
    triggered = Array.make n false;
    cross = 0;
    reports = 0;
  }

(* Idle fast path.  An engine whose live words are all zero stays at
   zero, reporting nothing, on every byte outside its wake set, so
   [step] skips the stepper there; and since the projection of the zero
   state never changes, it also skips the projection while the event
   record still holds it ([holds_idle], cleared by every projection of a
   live state and by [clone_fresh]).  Both tests read live data on every
   symbol.  An array (see Exec) goes further and does not call [step] at
   all on an engine that holds the idle record, unless the byte wakes
   it; so every write that can make such an engine live behind the
   array's back — [restore] and [flip_state_bit] — sets the engine's bit
   in its owner's awake set.  The reference kernel bypasses the whole
   path: a [Reference] run steps and projects every engine on every
   symbol, which is what lets the differential gates check the fast
   path. *)
let fast_path () = match !Nbva.kernel with Nbva.Bit_parallel -> true | Nbva.Reference -> false

(* ------------------------------------------------------------------ *)
(* NFA units: compressed executor over the equivalent NBVA.            *)

type nfa_engine = {
  u : Program.nfa_unit;
  exec : Nbva.t;
  exec_st : Nbva.run_state;
  offsets : int array;  (* exec state -> first unfolded Glushkov position *)
  (* cross-edge sources, pre-resolved to (exec state, bit or -1 for plain) *)
  cross_sources : (int * int) array;
  plain_tile_masks : Bitvec.t array;  (* per tile: Plain exec states mapped there *)
  bv_bit_tiles : (int * int array) array;  (* BV exec state, per-bit tile *)
  static_cols : int array;
}

(* Unfolded width of one exec state. *)
let exec_width ste = match ste with Nbva.Plain _ -> 1 | Nbva.Bv { size; _ } -> size

let make_nfa_engine (u : Program.nfa_unit) =
  (* the executor was compiled with the unit and is shared, never copied;
     its rewriting preserves the left-to-right order of unfolded
     positions, so prefix sums of widths recover each state's position
     range *)
  let exec = u.Program.exec in
  let n = Nbva.num_states exec in
  let offsets = Array.make (n + 1) 0 in
  for q = 0 to n - 1 do
    offsets.(q + 1) <- offsets.(q) + exec_width exec.Nbva.stes.(q)
  done;
  if offsets.(n) <> Nfa.num_states u.Program.nfa then
    invalid_arg "Engine: compressed executor disagrees with the unfolded NFA size";
  (* resolve an unfolded position to (exec state, bit) by binary search *)
  let resolve pos =
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if offsets.(mid + 1) <= pos then search (mid + 1) hi else search lo mid
    in
    let q = search 0 (n - 1) in
    match exec.Nbva.stes.(q) with
    | Nbva.Plain _ -> (q, -1)
    | Nbva.Bv _ -> (q, pos - offsets.(q))
  in
  let cross_sources = Array.of_list (List.map (fun (p, _) -> resolve p) u.Program.cross_edges) in
  let ntiles = Array.length u.Program.tile_states in
  let tile_of = u.Program.tile_of_state in
  (* per-tile masks over exec states (Plain only: a BV exec state stands
     for a whole unfolded chain, attributed per vector bit below) *)
  let plain_tile_masks = Array.init ntiles (fun _ -> Bitvec.create n) in
  let bv_bit_tiles = ref [] in
  Array.iteri
    (fun q ste ->
      match ste with
      | Nbva.Plain _ -> Bitvec.set plain_tile_masks.(tile_of.(offsets.(q))) q
      | Nbva.Bv { size; _ } ->
          bv_bit_tiles := (q, Array.init size (fun bit -> tile_of.(offsets.(q) + bit))) :: !bv_bit_tiles)
    exec.Nbva.stes;
  let exec_st = Nbva.start exec in
  {
    u;
    exec;
    exec_st;
    offsets;
    cross_sources;
    plain_tile_masks;
    bv_bit_tiles = Array.of_list (List.rev !bv_bit_tiles);
    static_cols = u.Program.tile_cols;
  }

(* Projection: refresh the stats record from the executor's post-step
   state.  Split from the automaton advance so [step_kernel] can advance
   the state alone — the projection reads only this engine's state.  It
   writes only the fields that vary: an NFA tile is always powered,
   never triggers a BV phase, and always enables all its programmed
   columns, which [make] writes into the record once. *)
let nfa_project (e : nfa_engine) s =
  let act = Nbva.outputs e.exec_st and vecs = Nbva.vectors e.exec_st in
  (* Plain activity per tile: one mask AND + popcount per tile *)
  for t = 0 to Array.length s.active - 1 do
    s.active.(t) <- Bitvec.popcount_and act e.plain_tile_masks.(t)
  done;
  (* BV activity per vector bit, walking the set bits word by word *)
  for k = 0 to Array.length e.bv_bit_tiles - 1 do
    let q, bit_tiles = e.bv_bit_tiles.(k) in
    match vecs.(q) with
    | Some v ->
        for i = 0 to Bitvec.words_for (Bitvec.width v) - 1 do
          let w = ref (Bitvec.get_word v i) in
          while !w <> 0 do
            let t = bit_tiles.((i * Bitvec.bits_per_word) + Bitvec.lsb_index !w) in
            s.active.(t) <- s.active.(t) + 1;
            w := !w land (!w - 1)
          done
        done
    | None -> assert false
  done;
  let cross = ref 0 in
  for k = 0 to Array.length e.cross_sources - 1 do
    let q, bit = e.cross_sources.(k) in
    let fired =
      if bit < 0 then Bitvec.get act q
      else match vecs.(q) with Some v -> Bitvec.get v bit | None -> false
    in
    if fired then incr cross
  done;
  s.cross <- !cross;
  s.reports <- Nbva.reports e.exec e.exec_st

(* ------------------------------------------------------------------ *)
(* NBVA units: direct execution with tile projection.                  *)

type nbva_engine = {
  nu : Program.nbva_unit;
  nb_st : Nbva.run_state;
  nb_tile_masks : Bitvec.t array;  (* per tile: its STEs as a mask over states *)
  nb_bv_list : (int * int) array;  (* dense (BV state, tile) pairs *)
  nb_cc_cols : int array;  (* per tile: CC columns, searched every symbol *)
  nb_cross_sources : int array;
  nb_static_cols : int array;
  nb_bv_cols : int array;
  nb_max_bv : int;
}

let make_nbva_engine (nu : Program.nbva_unit) =
  let ntiles = Array.length nu.Program.ntiles in
  let n = Nbva.num_states nu.Program.nbva in
  let bv_tile = Array.make n (-1) in
  Array.iteri
    (fun t (tile : Program.nbva_tile) ->
      List.iter (fun (a : Program.bv_alloc) -> bv_tile.(a.Program.ste) <- t) tile.Program.bvs)
    nu.Program.ntiles;
  let static_cols =
    Array.map
      (fun (t : Program.nbva_tile) -> t.Program.cc_cols + t.Program.set1_cols + t.Program.bv_cols)
      nu.Program.ntiles
  in
  (* BV storage columns: sum of allocation widths (equals [bv_cols] on
     RAP; covers BVAP, whose BVM columns are not CAM columns) *)
  let bv_cols =
    Array.map
      (fun (t : Program.nbva_tile) ->
        List.fold_left (fun acc (a : Program.bv_alloc) -> acc + a.Program.width) 0 t.Program.bvs)
      nu.Program.ntiles
  in
  let max_bv =
    Array.fold_left
      (fun acc (t : Program.nbva_tile) ->
        List.fold_left (fun acc (a : Program.bv_alloc) -> max acc a.Program.size) acc t.Program.bvs)
      0 nu.Program.ntiles
  in
  let tile_masks = Array.init ntiles (fun _ -> Bitvec.create n) in
  Array.iteri (fun q t -> Bitvec.set tile_masks.(t) q) nu.Program.tile_of_state;
  let cc_cols = Array.map (fun (t : Program.nbva_tile) -> t.Program.cc_cols) nu.Program.ntiles in
  let bv_list = ref [] in
  Array.iteri
    (fun q ste ->
      match ste with
      | Nbva.Bv _ -> bv_list := (q, bv_tile.(q)) :: !bv_list
      | Nbva.Plain _ -> ())
    nu.Program.nbva.Nbva.stes;
  let nb_st = Nbva.start nu.Program.nbva in
  {
    nu;
    nb_st;
    nb_tile_masks = tile_masks;
    nb_bv_list = Array.of_list (List.rev !bv_list);
    nb_cc_cols = cc_cols;
    nb_cross_sources = Array.of_list (List.map fst nu.Program.cross_edges);
    nb_static_cols = static_cols;
    nb_bv_cols = bv_cols;
    nb_max_bv = max_bv;
  }

(* Only CC columns are searched every symbol (BV columns activate in the
   processing phase), and an NBVA tile is always powered: [make] writes
   both into the record once. *)
let nbva_project (e : nbva_engine) s =
  let nbva = e.nu.Program.nbva in
  let act = Nbva.outputs e.nb_st and vecs = Nbva.vectors e.nb_st in
  for t = 0 to Array.length s.active - 1 do
    s.active.(t) <- Bitvec.popcount_and act e.nb_tile_masks.(t);
    s.triggered.(t) <- false
  done;
  for k = 0 to Array.length e.nb_bv_list - 1 do
    let q, t = e.nb_bv_list.(k) in
    match vecs.(q) with
    | Some v when not (Bitvec.is_zero v) -> s.triggered.(t) <- true
    | Some _ | None -> ()
  done;
  let cross = ref 0 in
  for k = 0 to Array.length e.nb_cross_sources - 1 do
    if Bitvec.get act e.nb_cross_sources.(k) then incr cross
  done;
  s.cross <- !cross;
  s.reports <- Nbva.reports nbva e.nb_st

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
  let pattern_last = Array.make (max 1 width) false in
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
  for t = 0 to Array.length s.active - 1 do
    s.active.(t) <- Bitvec.popcount_and v e.b_tile_masks.(t)
  done;
  let per_state = if e.bin.Binning.single_code then 1 else 2 in
  for t = 0 to e.bin.Binning.tiles - 1 do
    (* enabled columns: active states plus, in tile 0, the always-armed
       initial columns *)
    let enabled = per_state * s.active.(t) in
    let enabled = if t = 0 then enabled + (per_state * e.initial_cols_t0) else enabled in
    s.enabled.(t) <- min enabled e.b_static_cols.(t);
    (* power gating: a tile without initial states sleeps when idle *)
    s.powered.(t) <- t = 0 || s.active.(t) > 0
  done;
  (* ring signals: bits crossing a region boundary feed the next tile *)
  s.cross <- Bitvec.popcount_and v e.ring_mask;
  s.reports <- Shift_and.final_hits e.sa e.sa_st

(* ------------------------------------------------------------------ *)

type kind = E_nfa of nfa_engine | E_nbva of nbva_engine | E_bin of bin_engine

type region =
  | R_words of string * int array
  | R_bytes of string * Bytes.t
  | R_vecs of string * Bitvec.t array

type owner = { awake : Bitvec.t; tables : region list }

(* What every engine kind shares: its event record, the idle-record bit,
   and its place in the array that steps it ([slot] is its bit in
   [owner.awake]; -1 until [attach]). *)
type t = {
  kind : kind;
  stats : events;
  mutable holds_idle : bool;  (* [stats] holds the zero state's projection *)
  mutable owner : owner;
  mutable slot : int;
}

(* Never written: a detached engine has no bit to set. *)
let detached = { awake = Bitvec.create 0; tables = [] }

(* The fresh record carries the columns NFA/NBVA projections never
   rewrite (see the projections above). *)
let make kind ntiles =
  let stats = stats_create ntiles in
  (match kind with
  | E_nfa e -> Array.blit e.static_cols 0 stats.enabled 0 (Array.length e.static_cols)
  | E_nbva e -> Array.blit e.nb_cc_cols 0 stats.enabled 0 (Array.length e.nb_cc_cols)
  | E_bin _ -> ());
  { kind; stats; holds_idle = false; owner = detached; slot = -1 }

let attach t owner slot =
  t.owner <- owner;
  t.slot <- slot;
  Bitvec.set owner.awake slot

let wake t = if t.slot >= 0 then Bitvec.set t.owner.awake t.slot
let array_regions t = t.owner.tables

let mode t = match t.kind with E_nfa _ -> M_nfa | E_nbva _ -> M_nbva | E_bin _ -> M_lnfa

let of_nfa_unit u =
  let e = make_nfa_engine u in
  make (E_nfa e) (Array.length u.Program.tile_states)

let of_nbva_unit u =
  let e = make_nbva_engine u in
  make (E_nbva e) (Array.length u.Program.ntiles)

let of_bin ?tables b =
  let sa = match tables with Some sa -> sa | None -> Binning.shift_and b in
  make (E_bin (make_bin_engine b sa)) b.Binning.tiles

let stepper_name t = match t.kind with E_nfa _ | E_nbva _ -> "general" | E_bin _ -> "shift-and"
let dfa_stats _ = None
let num_tiles t = Array.length t.stats.active
let events t = t.stats
let holds_idle t = t.holds_idle

let wake_bytes t =
  match t.kind with
  | E_nfa e -> Nbva.wake_bytes e.exec
  | E_nbva e -> Nbva.wake_bytes e.nu.Program.nbva
  | E_bin e -> Shift_and.wake_bytes e.sa

(* Stepping [c] would leave the all-zero state all-zero (see the idle
   fast path above). *)
let asleep t c =
  fast_path ()
  &&
  match t.kind with
  | E_nfa e -> Nbva.asleep e.exec e.exec_st c
  | E_nbva e -> Nbva.asleep e.nu.Program.nbva e.nb_st c
  | E_bin e -> Shift_and.asleep e.sa e.sa_st c

let advance_state t c =
  match t.kind with
  | E_nfa e -> ignore (Nbva.step_selected e.exec e.exec_st c)
  | E_nbva e -> ignore (Nbva.step_selected e.nu.Program.nbva e.nb_st c)
  | E_bin e -> ignore (Shift_and.step e.sa e.sa_st c)

let project t =
  match t.kind with
  | E_nfa e -> nfa_project e t.stats
  | E_nbva e -> nbva_project e t.stats
  | E_bin e -> bin_project e t.stats

let step t c =
  if not (asleep t c) then begin
    advance_state t c;
    project t;
    t.holds_idle <- false
  end
  else if not t.holds_idle then begin
    project t;
    t.holds_idle <- true
  end;
  t.stats

(* ------------------------------------------------------------------ *)
(* [step_kernel] advances only the automaton state — no tile
   projection, no stats.  The per-layer profile times it against the
   full [step] to split the kernel from the projection, so it takes the
   same idle skip as [step]. *)

let step_kernel t c = if not (asleep t c) then advance_state t c

let idle t =
  match t.kind with
  | E_nfa e -> Nbva.idle e.exec_st
  | E_nbva e -> Nbva.idle e.nb_st
  | E_bin e -> Bitvec.is_zero (Shift_and.state_vector e.sa_st)

(* ------------------------------------------------------------------ *)
(* Stream clones.  A clone shares every immutable compiled structure
   (automata, exec plans, tile masks, cross lists — all read-only after
   construction) and gets fresh run state and a fresh stats record, so B
   streams against one placement pay the compilation once.  The fresh
   record has not been projected, so the idle bit starts clear; the
   clone belongs to no array until one attaches it. *)

let clone_fresh t =
  let kind =
    match t.kind with
    | E_nfa e -> E_nfa { e with exec_st = Nbva.start e.exec }
    | E_nbva e -> E_nbva { e with nb_st = Nbva.start e.nu.Program.nbva }
    | E_bin e ->
        let b_arena, sa_st = make_bin_arena e.sa in
        E_bin { e with b_arena; sa_st }
  in
  make kind (num_tiles t)

let tile_static_cols t i =
  match t.kind with
  | E_nfa e -> e.static_cols.(i)
  | E_nbva e -> e.nb_static_cols.(i)
  | E_bin e -> e.b_static_cols.(i)

let tile_bv_cols t i = match t.kind with E_nfa _ | E_bin _ -> 0 | E_nbva e -> e.nb_bv_cols.(i)
let max_bv_size t = match t.kind with E_nfa _ | E_bin _ -> 0 | E_nbva e -> e.nb_max_bv
let bv_depth t = match t.kind with E_nfa _ | E_bin _ -> 0 | E_nbva e -> e.nu.Program.depth

(* ------------------------------------------------------------------ *)
(* Transient-fault surface: every state bit the hardware stores between
   symbols.  NFA/NBVA engines expose the active vector (one bit per STE)
   followed by every BV word bit, in state order; LNFA bins expose the
   packed Shift-And state vector.  Flipping an active bit corrupts the
   availability seen by successors at the next symbol; flipping a BV bit
   corrupts the repetition counter — exactly the soft-error modes of the
   8T-SRAM CAM cells and BV words. *)

(* The flippable surface is the active vector plus every *materialized*
   BV word: [nbva_flip] walks [Nbva.vectors], which holds [Some] only for
   BV-STEs, so counting [Nbva.total_bv_bits] (a static property of the
   automaton) would overcount whenever a vector is not materialized and a
   valid index could then raise [Invalid_argument] mid-campaign.  Count
   exactly the words the walk can reach. *)
let nbva_bits nbva st =
  Array.fold_left
    (fun acc v -> match v with Some v -> acc + Bitvec.width v | None -> acc)
    (Nbva.num_states nbva) (Nbva.vectors st)

let nbva_flip nbva st i =
  let n = Nbva.num_states nbva in
  if i < n then begin
    let act = Nbva.outputs st in
    if Bitvec.get act i then Bitvec.reset act i else Bitvec.set act i
  end
  else begin
    let rest = ref (i - n) in
    let flipped = ref false in
    Array.iter
      (fun v ->
        match v with
        | Some v when not !flipped ->
            let w = Bitvec.width v in
            if !rest < w then begin
              (if Bitvec.get v !rest then Bitvec.reset v !rest else Bitvec.set v !rest);
              flipped := true
            end
            else rest := !rest - w
        | Some _ | None -> ())
      (Nbva.vectors st);
    if not !flipped then invalid_arg "Engine.flip_state_bit: index out of range"
  end

let state_bits t =
  match t.kind with
  | E_nfa e -> nbva_bits e.exec e.exec_st
  | E_nbva e -> nbva_bits e.nu.Program.nbva e.nb_st
  | E_bin e -> Bitvec.width (Shift_and.state_vector e.sa_st)

(* ------------------------------------------------------------------ *)
(* Snapshot / restore.  Each engine's run state lives in one arena (NBVA
   executors allocate theirs in [Nbva.start], bins in [make_bin_arena]):
   the inter-symbol surface above plus scratch the next step overwrites
   and the guard word.  Everything else an engine holds is immutable, so
   one word blit of the arena captures and restores the whole state —
   under both NBVA kernels, which share the same stored state.  Both
   writes below can make an engine live behind its array's back, so
   both wake it. *)

let run_arena t =
  match t.kind with
  | E_nfa e -> Nbva.run_arena e.exec_st
  | E_nbva e -> Nbva.run_arena e.nb_st
  | E_bin e -> e.b_arena

let snapshot t = Arena.snapshot (run_arena t)

let restore t snap =
  (try Arena.restore (run_arena t) snap
   with Invalid_argument _ -> invalid_arg "Engine.restore: snapshot does not match this engine");
  wake t

let flip_state_bit t i =
  if i < 0 || i >= state_bits t then invalid_arg "Engine.flip_state_bit: index out of range";
  (match t.kind with
  | E_nfa e -> nbva_flip e.exec e.exec_st i
  | E_nbva e -> nbva_flip e.nu.Program.nbva e.nb_st i
  | E_bin e ->
      let v = Shift_and.state_vector e.sa_st in
      if Bitvec.get v i then Bitvec.reset v i else Bitvec.set v i);
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

let nbva_regions nbva =
  List.map (fun (n, a) -> R_words (n, a)) (Nbva.plan_tables nbva)
  @ List.map (fun (n, b) -> R_bytes (n, b)) (Nbva.plan_bytes nbva)

let immutable_regions t =
  match t.kind with
  | E_nfa e -> nbva_regions e.exec
  | E_nbva e -> nbva_regions e.nu.Program.nbva
  | E_bin e -> List.map (fun (n, vs) -> R_vecs (n, vs)) (Shift_and.tables e.sa)

let step_shadow t c =
  match t.kind with
  | E_nfa e -> ignore (Nbva.step_reference e.exec e.exec_st c)
  | E_nbva e -> ignore (Nbva.step_reference e.nu.Program.nbva e.nb_st c)
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

(* An NFA/NBVA state's vectors lie in one contiguous arena range. *)
let state_digest t acc =
  match t.kind with
  | E_nfa e -> Nbva.fold_live digest_mix acc e.exec_st
  | E_nbva e -> Nbva.fold_live digest_mix acc e.nb_st
  | E_bin e -> digest_vec acc (Shift_and.state_vector e.sa_st)

let nbva_state_equal a b =
  Bitvec.equal (Nbva.outputs a) (Nbva.outputs b)
  && Array.for_all2
       (fun v w ->
         match (v, w) with
         | Some v, Some w -> Bitvec.equal v w
         | None, None -> true
         | Some _, None | None, Some _ -> false)
       (Nbva.vectors a) (Nbva.vectors b)

let state_equal a b =
  match (a.kind, b.kind) with
  | E_nfa x, E_nfa y -> nbva_state_equal x.exec_st y.exec_st
  | E_nbva x, E_nbva y -> nbva_state_equal x.nb_st y.nb_st
  | E_bin x, E_bin y ->
      Bitvec.equal (Shift_and.state_vector x.sa_st) (Shift_and.state_vector y.sa_st)
  | _ -> false

let guards_ok t = Arena.guards_ok (run_arena t)
let rearm_guards t = Arena.rearm_guards (run_arena t)
