(* See cost.mli. *)

let num_modes = 3
let mode_index = function Engine.M_nfa -> 0 | Engine.M_nbva -> 1 | Engine.M_lnfa -> 2

let num_categories = List.length Energy.all_categories

(* State-matching energy of one powered tile at one symbol. *)
let matching_pj (arch : Arch.t) ~enabled_cols =
  match arch.Arch.kind with
  | Arch.Ca ->
      (* row-indexed matching: one wordline of the 256x256 SRAM fires and
         only the enabled bitlines swing - a fraction of a full access *)
      Circuit.access_energy_pj Circuit.sram_256x256
        ~activity:(0.1 *. float_of_int enabled_cols /. float_of_int arch.Arch.tile_stes)
  | Arch.Rap | Arch.Cama | Arch.Bvap -> Cam.search_pj ~enabled_cols

(* Energy of one word of a tile's bit-vector-processing phase. *)
let bv_word_pj (arch : Arch.t) ~bv_cols =
  match arch.Arch.kind with
  | Arch.Bvap ->
      (* dedicated BVM: one 128-bit word read + MFCB route + write back *)
      (2. *. Circuit.access_energy_pj Circuit.sram_128x128 ~activity:0.5)
      +. Switch.local_traverse_pj ~active_rows:64
  | Arch.Rap | Arch.Cama | Arch.Ca ->
      Cam.bv_word_read_pj ~bv_cols
      +. Switch.local_traverse_pj ~active_rows:bv_cols
      +. Cam.bv_word_write_pj ~bv_cols

(* Energy of one tile's bit-vector-processing phase at one symbol. *)
let bv_phase_pj (arch : Arch.t) ~bv_cols ~iterations =
  (float_of_int iterations *. bv_word_pj arch ~bv_cols) +. arch.Arch.controller_pj

let global_pj ~cross =
  Switch.global_traverse_pj ~active_rows:cross +. Switch.wire_pj ~hops:cross

type symbol_cost = { cycles : int; cat_pj : float array; mode_pj : float array }

(* Lookup tables.  A float returned by a function in another module is
   boxed, so [charge] reads every Table-1 term from a float array filled
   by the same functions, indexed by the small integer the term depends
   on; the floats are the same ones.  An index past a table (never seen
   on the shipped architectures) takes the direct call instead. *)
type tables = {
  arch : Arch.t;
  match_tbl : float array;  (* by enabled columns: [matching_pj] *)
  local_tbl : float array;  (* by active rows: [Switch.local_traverse_pj] *)
  bv_word_tbl : float array;  (* by BV columns: [bv_word_pj] *)
  global_tbl : float array;  (* by cross signals: [global_pj] *)
  k : float array;  (* per-symbol constants, indexed by the [k_*] names *)
}

let k_ctrl = 0 (* a tile's local controller *)
let k_ctrl_tax = 1 (* local controller plus the reconfiguration tax *)
let k_tile_leak = 2
let k_tile_leak_gated = 3
let k_array_leak = 4
let k_global_ctrl = 5
let k_io = 6

let make_tables (arch : Arch.t) =
  let n = (2 * arch.Arch.tile_stes) + 1 in
  {
    arch;
    match_tbl = Array.init n (fun i -> matching_pj arch ~enabled_cols:i);
    local_tbl = Array.init n (fun i -> Switch.local_traverse_pj ~active_rows:i);
    bv_word_tbl = Array.init n (fun i -> bv_word_pj arch ~bv_cols:i);
    global_tbl = Array.init 1024 (fun i -> global_pj ~cross:i);
    k =
      [|
        arch.Arch.controller_pj;
        arch.Arch.controller_pj +. arch.Arch.reconfig_tax_pj;
        Arch.tile_leakage_pj_per_cycle arch ~powered:true;
        Arch.tile_leakage_pj_per_cycle arch ~powered:false;
        Arch.array_leakage_pj_per_cycle arch;
        Circuit.global_controller.Circuit.energy_min_pj;
        2. *. (Buffers.push_pj +. Buffers.pop_pj);
      |];
  }

(* The tables are immutable, so one copy serves every caller; the cache
   keeps the last architecture's. *)
let last_tables = Atomic.make None

let tables arch =
  match Atomic.get last_tables with
  | Some tb when tb.arch == arch -> tb
  | _ ->
      let tb = make_tables arch in
      Atomic.set last_tables (Some tb);
      tb

let c_matching = Energy.index Energy.State_matching
let c_transition = Energy.index Energy.State_transition
let c_bv = Energy.index Energy.Bv_processing
let c_routing = Energy.index Energy.Global_routing
let c_controller = Energy.index Energy.Controller
let c_leakage = Energy.index Energy.Leakage
let c_io = Energy.index Energy.Io

(* Out-of-table terms only: the float argument is boxed. *)
let add_slow cat ci mode mi pj =
  cat.(ci) <- cat.(ci) +. pj;
  if mi >= 0 then mode.(mi) <- mode.(mi) +. pj

(* Every category and mode receives its terms in the order the model
   states them (BV phases, then tile by tile: matching, transition,
   controller, leakage; then the array-level terms), so the sums are the
   same floats whichever caller charges.  [charge] runs once per array
   per symbol, so it zeroes its scratch arrays with loops: [Array.fill]
   is a C call, which costs more than the few words it writes. *)
let charge tb (ev : Exec.array_events) ~cat_pj:cat ~mode_pj:mode =
  for i = 0 to Array.length cat - 1 do
    Array.unsafe_set cat i 0.
  done;
  for i = 0 to Array.length mode - 1 do
    Array.unsafe_set mode i 0.
  done;
  let k = tb.k in
  (* BV-processing phases, attributed to the triggering engine's mode *)
  for i = 0 to ev.Exec.n_phases - 1 do
    let p = ev.Exec.bv_phases.(i) in
    let mi = mode_index p.Exec.p_mode in
    let cols = p.Exec.p_bv_cols in
    if cols < Array.length tb.bv_word_tbl then begin
      let pj = (float_of_int p.Exec.p_iterations *. tb.bv_word_tbl.(cols)) +. k.(k_ctrl) in
      cat.(c_bv) <- cat.(c_bv) +. pj;
      mode.(mi) <- mode.(mi) +. pj
    end
    else
      add_slow cat c_bv mode mi
        (bv_phase_pj tb.arch ~bv_cols:cols ~iterations:p.Exec.p_iterations)
  done;
  (* per physical tile: matching, transition, controller, leakage *)
  let cyc = 1 + ev.Exec.stall in
  let fcyc = float_of_int cyc in
  let leak = ref (fcyc *. k.(k_array_leak)) in
  let tiles = ev.Exec.tiles in
  for ti = 0 to Array.length tiles - 1 do
    let t = tiles.(ti) in
    let mi = mode_index t.Exec.t_mode in
    let active = t.Exec.t_active_states in
    if t.Exec.t_powered then begin
      let cols = t.Exec.t_enabled_cols in
      if cols < Array.length tb.match_tbl then begin
        let pj = tb.match_tbl.(cols) in
        cat.(c_matching) <- cat.(c_matching) +. pj;
        mode.(mi) <- mode.(mi) +. pj
      end
      else add_slow cat c_matching mode mi (matching_pj tb.arch ~enabled_cols:cols);
      (* LNFA transitions ride the active-vector shift: no switch
         traversal, and the local controller only engages when the
         shift datapath carries live states *)
      let lnfa =
        match t.Exec.t_mode with Engine.M_lnfa -> true | Engine.M_nfa | Engine.M_nbva -> false
      in
      if (not lnfa) && active > 0 then begin
        if active < Array.length tb.local_tbl then begin
          let pj = tb.local_tbl.(active) in
          cat.(c_transition) <- cat.(c_transition) +. pj;
          mode.(mi) <- mode.(mi) +. pj
        end
        else
          add_slow cat c_transition mode mi (Switch.local_traverse_pj ~active_rows:active)
      end;
      if (not lnfa) || active > 0 then begin
        let pj = k.(k_ctrl_tax) in
        cat.(c_controller) <- cat.(c_controller) +. pj;
        mode.(mi) <- mode.(mi) +. pj
      end
    end;
    let pj = fcyc *. if t.Exec.t_powered then k.(k_tile_leak) else k.(k_tile_leak_gated) in
    leak := !leak +. pj;
    mode.(mi) <- mode.(mi) +. pj
  done;
  let cross = ev.Exec.cross in
  if cross > 0 then begin
    if cross < Array.length tb.global_tbl then
      cat.(c_routing) <- cat.(c_routing) +. tb.global_tbl.(cross)
    else add_slow cat c_routing mode (-1) (global_pj ~cross)
  end;
  cat.(c_controller) <- cat.(c_controller) +. k.(k_global_ctrl);
  cat.(c_io) <- cat.(c_io) +. k.(k_io);
  cat.(c_leakage) <- cat.(c_leakage) +. !leak;
  cyc

let of_events (arch : Arch.t) (ev : Exec.array_events) =
  let cat = Array.make num_categories 0. and mode = Array.make num_modes 0. in
  let cycles = charge (tables arch) ev ~cat_pj:cat ~mode_pj:mode in
  { cycles; cat_pj = cat; mode_pj = mode }

(* ------------------------------------------------------------------ *)
(* Counted energy.  A tile's price for one symbol depends only on its
   state (powered, enabled columns, active states, mode) and, for its
   leakage, on the symbol's cycles.  So the counter keeps, per tile, the
   state its current interval opened with and the symbol and cycle
   totals at that moment; when the state changes, the interval closes
   into integer counts keyed by the Table-1 term they price.  BV phases
   are keyed by what prices them and cross signals by value, both
   counted over intervals of an equal phase list or value.  [price]
   turns the counts into picojoules once, in a fixed order.  Integer
   sums do not depend on how the stream was cut, so a counter flushed
   at any symbol and restored later prices bit-identically. *)

(* Keyed counts live in one open-addressing table: key = payload * 16 +
   mode * 4 + family.  Matching is keyed by enabled columns,
   transition by active states, a BV phase by (iterations lsl 24) lor
   BV columns, and cross signals by their value. *)
let f_matching = 0
let f_transition = 1
let f_phase = 2
let f_cross = 3
let key ~family ~mode payload = (payload lsl 4) lor (mode lsl 2) lor family
let phase_cols_bits = 24

(* Each tile keeps two intervals.  The first covers its (powered,
   enabled columns) state, which prices matching, leakage and, outside
   LNFA mode, the controller; on a plan tile it never changes.  The
   second covers its active states, which price transition and, in LNFA
   mode, the controller; both also depend on [powered], so a change of
   the first closes the second too.  The phase list is counted over
   intervals as well, compared by record identity: [Exec] hands out the
   same records for as long as a slot stays set. *)
type counter = {
  mutable modes : int array;  (* per tile: [mode_index] of its mode *)
  mutable o_state : int array;  (* per tile: [packed] state of its intervals; -1 none open *)
  mutable o_pc_syms : int array;  (* [syms] when the first interval opened *)
  mutable o_pc_cycles : int array;  (* [cycles] when it opened *)
  mutable o_active_syms : int array;  (* [syms] when the second interval opened *)
  mutable o_phases : Exec.bv_phase array;  (* the open interval's phase list *)
  mutable o_n_phases : int;  (* -1 none open *)
  mutable o_phases_syms : int;
  mutable o_cross : int;  (* cross signals of the open interval; -1 none open *)
  mutable o_cross_syms : int;
  mutable syms : int;
  mutable cycles : int;
  ctrl : int array;  (* per mode: tile-symbols with the local controller engaged *)
  leak : int array;  (* per (mode, powered): tile-cycles *)
  mutable keys : int array;  (* -1 marks a free slot *)
  mutable vals : int array;
  mutable used : int;
}

let counter () =
  {
    modes = [||];
    o_state = [||];
    o_pc_syms = [||];
    o_pc_cycles = [||];
    o_active_syms = [||];
    o_phases = [||];
    o_n_phases = -1;
    o_phases_syms = 0;
    o_cross = -1;
    o_cross_syms = 0;
    syms = 0;
    cycles = 0;
    ctrl = Array.make num_modes 0;
    leak = Array.make (2 * num_modes) 0;
    keys = Array.make 64 (-1);
    vals = Array.make 64 0;
    used = 0;
  }

(* Fibonacci hashing into a power-of-two table, then linear probing. *)
let slot keys key =
  let mask = Array.length keys - 1 in
  let i = ref (((key * 0x2545F4914F6CDD1D) lsr 24) land mask) in
  while
    let k = Array.unsafe_get keys !i in
    k <> key && k >= 0
  do
    i := (!i + 1) land mask
  done;
  !i

let rec add_key c key n =
  let i = slot c.keys key in
  if c.keys.(i) = key then c.vals.(i) <- c.vals.(i) + n
  else if 2 * (c.used + 1) > Array.length c.keys then begin
    (* grow: only on a key not seen before, once the table is half full *)
    let keys = c.keys and vals = c.vals in
    c.keys <- Array.make (2 * Array.length keys) (-1);
    c.vals <- Array.make (2 * Array.length keys) 0;
    c.used <- 0;
    Array.iteri (fun j k -> if k >= 0 then add_key c k vals.(j)) keys;
    add_key c key n
  end
  else begin
    c.keys.(i) <- key;
    c.vals.(i) <- n;
    c.used <- c.used + 1
  end

let lnfa = mode_index Engine.M_lnfa

(* A tile's state in one word: active states, then enabled columns
   and powered, in 24-bit fields; [lsr field] is the first interval's
   part, (enabled columns) * 2 + powered. *)
let field = 24
let field_mask = (1 lsl field) - 1

(* Close tile [ti]'s active-states interval at the current totals. *)
let close_active c ti =
  let st = c.o_state.(ti) and n = c.syms - c.o_active_syms.(ti) in
  let active = st land field_mask and pc = st lsr field in
  if st >= 0 && pc land 1 = 1 && active > 0 && n > 0 then begin
    let mi = c.modes.(ti) in
    if mi <> lnfa then add_key c (key ~family:f_transition ~mode:mi active) n
    else c.ctrl.(mi) <- c.ctrl.(mi) + n
  end

(* Close tile [ti]'s (powered, enabled columns) interval. *)
let close_pc c ti =
  let st = c.o_state.(ti) and n = c.syms - c.o_pc_syms.(ti) in
  let pc = st lsr field in
  if st >= 0 && n > 0 then begin
    let mi = c.modes.(ti) and p = pc land 1 in
    let l = (2 * mi) + p in
    c.leak.(l) <- c.leak.(l) + (c.cycles - c.o_pc_cycles.(ti));
    if p = 1 then begin
      add_key c (key ~family:f_matching ~mode:mi (pc lsr 1)) n;
      if mi <> lnfa then c.ctrl.(mi) <- c.ctrl.(mi) + n
    end
  end

let phase_key (ph : Exec.bv_phase) =
  let cols = ph.Exec.p_bv_cols and it = ph.Exec.p_iterations in
  if cols < 0 || cols lsr phase_cols_bits <> 0 || it < 0 then
    invalid_arg "Cost.count: BV phase outside the counter's key range";
  key ~family:f_phase ~mode:(mode_index ph.Exec.p_mode) ((it lsl phase_cols_bits) lor cols)

let close_phases c =
  let n = c.syms - c.o_phases_syms in
  if n > 0 then
    for i = 0 to c.o_n_phases - 1 do
      add_key c (phase_key c.o_phases.(i)) n
    done

let close_cross c =
  let n = c.syms - c.o_cross_syms in
  if c.o_cross > 0 && n > 0 then add_key c (key ~family:f_cross ~mode:0 c.o_cross) n

(* Close every open interval into the counts and reopen it, same state,
   at the current totals: exact, since the counts are integers. *)
let flush c =
  for ti = 0 to Array.length c.o_state - 1 do
    close_active c ti;
    close_pc c ti;
    c.o_pc_syms.(ti) <- c.syms;
    c.o_pc_cycles.(ti) <- c.cycles;
    c.o_active_syms.(ti) <- c.syms
  done;
  close_phases c;
  c.o_phases_syms <- c.syms;
  close_cross c;
  c.o_cross_syms <- c.syms

(* Fit the per-tile state to the array's events (on its first symbol);
   whatever was open is closed first. *)
let size c (ev : Exec.array_events) =
  flush c;
  let tiles = ev.Exec.tiles in
  let n = Array.length tiles in
  c.modes <- Array.map (fun (t : Exec.tile_events) -> mode_index t.Exec.t_mode) tiles;
  c.o_state <- Array.make n (-1);
  c.o_pc_syms <- Array.make n 0;
  c.o_pc_cycles <- Array.make n 0;
  c.o_active_syms <- Array.make n 0;
  c.o_phases <- Array.copy ev.Exec.bv_phases;
  c.o_n_phases <- -1

(* A tile whose state moved closes the intervals that changed and
   opens new ones. *)
let retile c ti st =
  if st lsr field <> c.o_state.(ti) lsr field || c.o_state.(ti) < 0 then begin
    close_active c ti;
    close_pc c ti;
    c.o_pc_syms.(ti) <- c.syms;
    c.o_pc_cycles.(ti) <- c.cycles
  end
  else close_active c ti;
  c.o_state.(ti) <- st;
  c.o_active_syms.(ti) <- c.syms

(* One symbol: every tile whose state differs from its intervals'
   closes the ones that changed and opens new ones; then the phase
   list, the cross interval and the totals.  An unchanged tile costs
   one compare of its packed state.  Int compares and adds only; no
   allocation once the table holds every key the stream uses. *)
let count c (ev : Exec.array_events) =
  let tiles = ev.Exec.tiles in
  if Array.length c.o_state <> Array.length tiles
     || Array.length c.o_phases < Array.length ev.Exec.bv_phases
  then size c ev;
  let held = c.o_state in
  for ti = 0 to Array.length tiles - 1 do
    let t = Array.unsafe_get tiles ti in
    let cols = t.Exec.t_enabled_cols and active = t.Exec.t_active_states in
    let st =
      active lor (cols lsl (field + 1)) lor if t.Exec.t_powered then 1 lsl field else 0
    in
    if st <> Array.unsafe_get held ti then begin
      if (active lor cols) lsr field <> 0 then
        invalid_arg "Cost.count: tile state outside the counter's range";
      retile c ti st
    end
  done;
  let n = ev.Exec.n_phases and phases = ev.Exec.bv_phases in
  let same = ref (n = c.o_n_phases) and i = ref 0 in
  while !same && !i < n do
    if phases.(!i) != c.o_phases.(!i) then same := false;
    incr i
  done;
  if not !same then begin
    close_phases c;
    for i = 0 to n - 1 do
      c.o_phases.(i) <- phases.(i)
    done;
    c.o_n_phases <- n;
    c.o_phases_syms <- c.syms
  end;
  if ev.Exec.cross <> c.o_cross then begin
    close_cross c;
    c.o_cross <- ev.Exec.cross;
    c.o_cross_syms <- c.syms
  end;
  c.syms <- c.syms + 1;
  c.cycles <- c.cycles + 1 + ev.Exec.stall

(* Every count times its Table-1 term, keyed counts in ascending key
   order, then the per-mode and per-array counts: the same floats for
   the same counts, however the stream was cut.  A term past its lookup
   table takes the direct call, as in [charge].  The sums are written
   out, so that no float is boxed on the way. *)
let price tb c ~cat_pj:cat ~mode_pj:mode =
  flush c;
  for i = 0 to Array.length cat - 1 do
    cat.(i) <- 0.
  done;
  for i = 0 to Array.length mode - 1 do
    mode.(i) <- 0.
  done;
  let keys = Array.make c.used 0 and j = ref 0 in
  for i = 0 to Array.length c.keys - 1 do
    if c.keys.(i) >= 0 then begin
      keys.(!j) <- c.keys.(i);
      incr j
    end
  done;
  (* an insertion sort: a few dozen keys, and [Array.sort] allocates *)
  for i = 1 to Array.length keys - 1 do
    let x = keys.(i) and j = ref (i - 1) in
    while !j >= 0 && keys.(!j) > x do
      keys.(!j + 1) <- keys.(!j);
      decr j
    done;
    keys.(!j + 1) <- x
  done;
  let k = tb.k in
  for j = 0 to Array.length keys - 1 do
    let key = keys.(j) in
    let n = float_of_int c.vals.(slot c.keys key) in
    let family = key land 3 and mi = (key lsr 2) land 3 and v = key lsr 4 in
    let cols = v land ((1 lsl phase_cols_bits) - 1) and iterations = v lsr phase_cols_bits in
    let ci =
      if family = f_matching then c_matching
      else if family = f_transition then c_transition
      else if family = f_phase then c_bv
      else c_routing
    in
    let pj =
      if family = f_matching then
        if v < Array.length tb.match_tbl then tb.match_tbl.(v)
        else matching_pj tb.arch ~enabled_cols:v
      else if family = f_transition then
        if v < Array.length tb.local_tbl then tb.local_tbl.(v)
        else Switch.local_traverse_pj ~active_rows:v
      else if family = f_phase then
        if cols < Array.length tb.bv_word_tbl then
          (float_of_int iterations *. tb.bv_word_tbl.(cols)) +. k.(k_ctrl)
        else bv_phase_pj tb.arch ~bv_cols:cols ~iterations
      else if v < Array.length tb.global_tbl then tb.global_tbl.(v)
      else global_pj ~cross:v
    in
    let pj = n *. pj in
    cat.(ci) <- cat.(ci) +. pj;
    (* cross signals are array-level, not mode-attributable *)
    if family <> f_cross then mode.(mi) <- mode.(mi) +. pj
  done;
  for mi = 0 to num_modes - 1 do
    let ctrl = float_of_int c.ctrl.(mi) *. k.(k_ctrl_tax) in
    cat.(c_controller) <- cat.(c_controller) +. ctrl;
    mode.(mi) <- mode.(mi) +. ctrl;
    let gated = float_of_int c.leak.(2 * mi) *. k.(k_tile_leak_gated) in
    let powered = float_of_int c.leak.((2 * mi) + 1) *. k.(k_tile_leak) in
    cat.(c_leakage) <- cat.(c_leakage) +. gated +. powered;
    mode.(mi) <- mode.(mi) +. gated +. powered
  done;
  let syms = float_of_int c.syms in
  cat.(c_controller) <- cat.(c_controller) +. (syms *. k.(k_global_ctrl));
  cat.(c_io) <- cat.(c_io) +. (syms *. k.(k_io));
  cat.(c_leakage) <- cat.(c_leakage) +. (float_of_int c.cycles *. k.(k_array_leak))

(* Saved form: symbols, cycles, the per-mode controller counts, the
   per-(mode, powered) leakage counts, then (key, count) pairs. *)
let fixed_words = 2 + num_modes + (2 * num_modes)

let save c =
  flush c;
  let w = Array.make (fixed_words + (2 * c.used)) 0 in
  w.(0) <- c.syms;
  w.(1) <- c.cycles;
  Array.blit c.ctrl 0 w 2 num_modes;
  Array.blit c.leak 0 w (2 + num_modes) (2 * num_modes);
  let j = ref fixed_words in
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        w.(!j) <- k;
        w.(!j + 1) <- c.vals.(i);
        j := !j + 2
      end)
    c.keys;
  w

(* Every tile's interval, and the cross interval, reopen afresh at the
   next symbol. *)
let reopen c =
  Array.fill c.o_state 0 (Array.length c.o_state) (-1);
  c.o_n_phases <- -1;
  c.o_cross <- -1

let copy ~src ~dst =
  flush src;
  dst.syms <- src.syms;
  dst.cycles <- src.cycles;
  Array.blit src.ctrl 0 dst.ctrl 0 num_modes;
  Array.blit src.leak 0 dst.leak 0 (2 * num_modes);
  if Array.length dst.keys <> Array.length src.keys then begin
    dst.keys <- Array.make (Array.length src.keys) (-1);
    dst.vals <- Array.make (Array.length src.keys) 0
  end;
  Array.blit src.keys 0 dst.keys 0 (Array.length src.keys);
  Array.blit src.vals 0 dst.vals 0 (Array.length src.vals);
  dst.used <- src.used;
  reopen dst

let restore c w =
  let n = Array.length w in
  if n < fixed_words || (n - fixed_words) mod 2 <> 0 then
    invalid_arg "energy counters do not match this build";
  c.syms <- w.(0);
  c.cycles <- w.(1);
  Array.blit w 2 c.ctrl 0 num_modes;
  Array.blit w (2 + num_modes) c.leak 0 (2 * num_modes);
  Array.fill c.keys 0 (Array.length c.keys) (-1);
  c.used <- 0;
  for j = 0 to ((n - fixed_words) / 2) - 1 do
    let k = w.(fixed_words + (2 * j)) in
    if k < 0 then invalid_arg "energy counters do not match this build";
    add_key c k w.(fixed_words + (2 * j) + 1)
  done;
  reopen c
