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
