type array_detail = { a_cycles : int; a_tiles : int; a_has_nbva : bool }

type report = {
  arch : Arch.kind;
  chars : int;
  cycles : int;
  arrays_detail : array_detail array;
  match_reports : int;
  energy : Energy.t;
  area_mm2 : float;
  throughput_gchs : float;
  power_w : float;
  num_arrays : int;
  num_tiles : int;
  num_states : int;
  mode_energy_pj : (Engine.mode * float) list;
  mode_area_um2 : (Engine.mode * float) list;
  mode_states : (Engine.mode * int) list;
  mapper_stats : Mapper.stats;
  degraded : Sim_error.t list;
}

let energy_efficiency_gchs_per_w r =
  if r.power_w <= 0. then 0. else r.throughput_gchs /. r.power_w

let compute_density_gchs_per_mm2 r =
  if r.area_mm2 <= 0. then 0. else r.throughput_gchs /. r.area_mm2

let compile_for (arch : Arch.t) ~params regexes =
  let compiled = ref [] and errors = ref [] in
  let push c = compiled := c :: !compiled in
  let fail source reason = errors := Compile_error.v source reason :: !errors in
  let unsupported source msg = fail source (Compile_error.Unsupported msg) in
  List.iter
    (fun (source, ast) ->
      let unit kind = { Program.source; kind } in
      match arch.Arch.kind with
      | Arch.Rap -> (
          match Mode_select.compile_result ~params ~source ast with
          | Ok c -> push c
          | Error e -> errors := e :: !errors)
      | Arch.Cama -> (
          match Nfa_compile.compile ast with
          | u ->
              if Nfa_compile.fits_array u then push (unit (Program.U_nfa u))
              else
                fail source
                  (Compile_error.Oversize
                     {
                       tiles_needed = Array.length u.Program.tile_states;
                       tiles_cap = Circuit.tiles_per_array;
                     })
          | exception Invalid_argument msg -> unsupported source msg)
      | Arch.Ca -> (
          match
            Nfa_compile.compile ~tile_capacity_cols:Circuit.ca_tile_stes
              ~col_demand:(fun _ -> 1)
              ast
          with
          | u -> push (unit (Program.U_nfa u))
          | exception Invalid_argument msg -> unsupported source msg)
      | Arch.Bvap -> (
          let wants_bv =
            Ast.has_bounded_repetition
              (Rewrite.unfold_for_nbva ~threshold:params.Program.unfold_threshold ast)
          in
          match
            if wants_bv then Program.U_nbva (Nbva_compile.compile_bvap ~params ast)
            else Program.U_nfa (Nfa_compile.compile ast)
          with
          | kind -> push (unit kind)
          | exception Invalid_argument msg -> unsupported source msg))
    regexes;
  (List.rev !compiled, List.rev !errors)

let place_result ?defects (arch : Arch.t) ~params compiled =
  let tile_cols = arch.Arch.tile_stes in
  Mapper.map_units_result ?defects ~tile_cols ~params (Array.of_list compiled)

let place arch ~params compiled =
  match place_result arch ~params compiled with
  | placement, [], _ -> placement
  | _, e :: _, _ -> invalid_arg (Format.asprintf "Runner.place: %a" Compile_error.pp e)

let prepare arch ~params regexes =
  let compiled, errors = compile_for arch ~params regexes in
  let placement, drops, _ = place_result ~defects:Defect.none arch ~params compiled in
  (placement, errors @ drops)

(* A checkpoint must refuse to restore into a different placement: the
   engine-state vectors would silently mean different automata.  The
   fingerprint digests everything the run state depends on — the unit
   sources, their compiled sizes, and the exact tile floorplan. *)
let fingerprint (p : Mapper.placement) =
  let b = Buffer.create 1024 in
  Array.iter
    (fun (c : Program.compiled) ->
      Buffer.add_string b c.Program.source;
      Buffer.add_char b '\000';
      Buffer.add_string b (string_of_int (Program.num_states c.Program.kind));
      Buffer.add_char b '\001')
    p.Mapper.units;
  let add_int i = Buffer.add_string b (string_of_int i) in
  (* [tag][x].[y], as a piece reads *)
  let add_pair tag x y =
    Buffer.add_char b tag;
    add_int x;
    Buffer.add_char b '.';
    add_int y
  in
  Array.iteri
    (fun ai tiles ->
      Buffer.add_char b 'A';
      add_int ai;
      Buffer.add_char b ':';
      Array.iter
        (fun (t : Mapper.placed_tile) ->
          Buffer.add_char b
            (match t.Mapper.mode with
            | Mapper.T_nfa -> 'n'
            | Mapper.T_nbva -> 'b'
            | Mapper.T_lnfa -> 'l');
          add_int t.Mapper.phys;
          List.iter
            (fun (pc : Mapper.piece) ->
              match pc with
              | Mapper.P_unit { unit_id; local_tile } -> add_pair 'u' unit_id local_tile
              | Mapper.P_bin { bin_id; bin_tile } -> add_pair 'g' bin_id bin_tile)
            t.Mapper.pieces;
          Buffer.add_char b ';')
        tiles)
    p.Mapper.arrays;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* One array's counted energy, priced into fresh category and mode
   arrays. *)
let priced tables counts =
  let cat = Array.make Cost.num_categories 0. and mode = Array.make Cost.num_modes 0. in
  Cost.price tables counts ~cat_pj:cat ~mode_pj:mode;
  (cat, mode)

(* The energy accounting as a sink over the event stream: one
   [Cost.counter] per array, priced into the array's ledger and mode
   slots when the array closes.  The slots are merged in array order
   after the run, so the totals are bit-identical under every
   schedule. *)
let energy_sink arch ~num_arrays =
  let ledgers = Array.init num_arrays (fun _ -> Energy.create ()) in
  let mode_slots = Array.make_matrix num_arrays Cost.num_modes 0. in
  let tables = Cost.tables arch in
  let spec =
    {
      Sink.name = "energy";
      make =
        (fun ~array_id ~chars:_ ->
          let counts = Cost.counter () in
          Sink.events_only (Cost.count counts) ~on_close:(fun ~cycles:_ ->
              let cat, mode = priced tables counts and slot = mode_slots.(array_id) in
              Energy.accumulate ledgers.(array_id) cat;
              Array.iteri (fun m pj -> slot.(m) <- slot.(m) +. pj) mode));
    }
  in
  (spec, ledgers, mode_slots)

(* Final report assembly from the per-array accumulator slots.  Shared
   verbatim by the single-stream driver and the batch layer: a batched
   stream's report is this exact computation over that stream's slots,
   which is half of the bit-identity contract (the other half being the
   bit-identical event stream feeding the slots). *)
let assemble_report (arch : Arch.t) (p : Mapper.placement) ~chars ~cycles_slots ~reports_slots
    ~ledgers ~mode_slots ~execs ~degraded =
  let num_arrays = Array.length p.Mapper.arrays in
  let details =
    Array.init num_arrays (fun i ->
        {
          a_cycles = cycles_slots.(i);
          a_tiles = Array.length p.Mapper.arrays.(i);
          a_has_nbva = Array.exists (fun m -> m = Engine.M_nbva) (Exec.tile_modes execs.(i));
        })
  in
  (* deterministic merge, array-index order *)
  let ledger = Energy.create () in
  Array.iter (fun l -> Energy.merge_into ~dst:ledger l) ledgers;
  let mode_pj = Array.make Cost.num_modes 0. in
  Array.iter
    (fun slot -> Array.iteri (fun m pj -> mode_pj.(m) <- mode_pj.(m) +. pj) slot)
    mode_slots;
  let total_reports = Array.fold_left ( + ) 0 reports_slots in
  let max_cycles = Array.fold_left (fun acc d -> Int.max acc d.a_cycles) 0 details in
  let mstats = Mapper.stats p in
  let tile_area = arch.Arch.tile_area_um2 +. arch.Arch.bvm_area_um2 in
  let area_um2 =
    (float_of_int mstats.Mapper.num_tiles *. tile_area)
    +. (float_of_int mstats.Mapper.num_arrays *. Circuit.array_overhead_um2)
  in
  (* attribute area to modes by tile counts *)
  let mode_tiles = [| 0; 0; 0 |] in
  Array.iter
    (fun tiles ->
      Array.iter
        (fun (t : Mapper.placed_tile) ->
          let m =
            match t.Mapper.mode with
            | Mapper.T_nfa -> 0
            | Mapper.T_nbva -> 1
            | Mapper.T_lnfa -> 2
          in
          mode_tiles.(m) <- mode_tiles.(m) + 1)
        tiles)
    p.Mapper.arrays;
  let mode_area =
    let per_tile =
      if mstats.Mapper.num_tiles = 0 then 0.
      else area_um2 /. float_of_int mstats.Mapper.num_tiles
    in
    [
      (Engine.M_nfa, float_of_int mode_tiles.(0) *. per_tile);
      (Engine.M_nbva, float_of_int mode_tiles.(1) *. per_tile);
      (Engine.M_lnfa, float_of_int mode_tiles.(2) *. per_tile);
    ]
  in
  let mode_states =
    let acc = [| 0; 0; 0 |] in
    Array.iter
      (fun (c : Program.compiled) ->
        let m =
          match c.Program.kind with
          | Program.U_nfa _ -> 0
          | Program.U_nbva _ -> 1
          | Program.U_lnfa _ -> 2
        in
        acc.(m) <- acc.(m) + Program.num_states c.Program.kind)
      p.Mapper.units;
    [ (Engine.M_nfa, acc.(0)); (Engine.M_nbva, acc.(1)); (Engine.M_lnfa, acc.(2)) ]
  in
  let cycles = Int.max 1 max_cycles in
  let throughput = float_of_int chars *. arch.Arch.clock_ghz /. float_of_int cycles in
  let energy_pj = Energy.total_pj ledger in
  let time_ns = float_of_int cycles /. arch.Arch.clock_ghz in
  let power_w = if time_ns > 0. then energy_pj /. time_ns /. 1000. else 0. in
  {
    arch = arch.Arch.kind;
    chars;
    cycles;
    arrays_detail = details;
    match_reports = total_reports;
    energy = ledger;
    area_mm2 = area_um2 /. 1e6;
    throughput_gchs = throughput;
    power_w;
    num_arrays = mstats.Mapper.num_arrays;
    num_tiles = mstats.Mapper.num_tiles;
    num_states =
      Array.fold_left (fun acc c -> acc + Program.num_states c.Program.kind) 0 p.Mapper.units;
    mode_energy_pj =
      [ (Engine.M_nfa, mode_pj.(0)); (Engine.M_nbva, mode_pj.(1)); (Engine.M_lnfa, mode_pj.(2)) ];
    mode_area_um2 = mode_area;
    mode_states;
    mapper_stats = mstats;
    degraded;
  }

(* An array's chunk-start state for the supervision policy's retries
   and the integrity layer's heals, rewritten in place at every chunk
   start (buffers allocated once per run). *)
type rollback = {
  mutable rb_set : bool;  (* false while the array is quarantined *)
  mutable rb_cycles : int;
  mutable rb_reports : int;
  rb_engines : int array array;  (* per engine, its arena words *)
  rb_counts : Cost.counter;
}

(* One [run_stream] call's state, shared by the steps below.  Every
   per-array slot has exactly one writer at a time — the worker stepping
   that array, or the caller between chunks — so none needs a lock. *)
type run = {
  r_arch : Arch.t;
  r_placement : Mapper.placement;
  r_jobs : int;
  r_policy : Scheduler.policy option;
  r_integrity : Integrity.config option;
  r_checkpoint : Checkpoint.config option;
  r_execs : Exec.t array;
  r_sinks : Sink.t list array;
  (* arrays, so the symbol loop walks them without a closure per symbol *)
  r_on_events : (Exec.array_events -> unit) array array;
  r_on_state : (sym:int -> Engine.t array -> unit) array array;
  r_tables : Cost.tables;
  r_counts : Cost.counter array;  (* per array: its energy, counted *)
  r_cycles : int array;
  r_reports : int array;
  r_quarantined : Sim_error.t option array;
  mutable r_degraded : Sim_error.t list;  (* newest first; reversed wherever exposed *)
  r_fingerprint : string;
  r_seals : Integrity.seal array;
  r_shadows : Exec.t array;
  r_rollbacks : rollback array;  (* per array; empty with neither policy nor integrity *)
  r_sweep_due : int array;
  r_sentinel_due : int array;
}

(* One attempt's cycle and report counts, published to the slots only
   when the attempt completes: a crashed or timed-out attempt leaves the
   slots untouched, so only engine state and the energy counters need
   explicit rollback. *)
type tally = { mutable t_cycles : int; mutable t_reports : int }

(* How often a worker polls its cooperative deadline, in symbols.  Must
   be a power of two (tested with [land]). *)
let deadline_stride = 256

let mismatch detail = raise (Sim_error.Error (Sim_error.Checkpoint_mismatch { detail }))

(* A placement's executors, built once, and its seals.  The templates are
   never stepped by a prepared run: each run steps [Exec.clone_fresh]
   copies, which share the compiled tables, the tile maps and the wake
   table with them and nothing mutable.  A seal taken on a template
   covers every clone, because they read the same physical tables. *)
type prepared = {
  pr_placement : Mapper.placement;
  pr_templates : Exec.t array;
  pr_seals : Integrity.seal array;  (* per array; empty when unsealed *)
}

let build ?(sealed = false) (p : Mapper.placement) =
  let templates = Array.map (fun tiles -> Exec.build p tiles) p.Mapper.arrays in
  {
    pr_placement = p;
    pr_templates = templates;
    pr_seals =
      (if sealed then Array.map (fun ex -> Integrity.seal (Exec.engines ex)) templates else [||]);
  }

let repair cfg pr =
  Array.iteri
    (fun i seal -> Integrity.repair cfg seal (Exec.engines pr.pr_templates.(i)))
    pr.pr_seals

(* [execs] are the run's own fresh executors: [pr]'s templates on a
   one-shot run, clones of them on a prepared one.  The seals come from
   [pr], and the sentinel's shadows clone its templates. *)
let start ~jobs ~sinks ~policy ~integrity ~checkpoint (arch : Arch.t) pr ~execs ~stream =
  let p = pr.pr_placement in
  let num_arrays = Array.length p.Mapper.arrays in
  let chars_hint = match Input_stream.length stream with Some n -> n | None -> 0 in
  (* all per-array state is built up front and lives across chunks; sink
     [make] runs in array order here, never inside a worker domain *)
  let insts =
    Array.init num_arrays (fun array_id ->
        List.map (fun (s : Sink.spec) -> s.Sink.make ~array_id ~chars:chars_hint) sinks)
  in
  (* Integrity layer: one shadow clone per array for the sentinel's
     reference replay, and per-array next-due symbols for both
     detectors. *)
  let shadows =
    match integrity with
    | Some cfg when cfg.Integrity.sentinel_every > 0 -> Array.map Exec.clone_fresh pr.pr_templates
    | _ -> [||]
  in
  {
    r_arch = arch;
    r_placement = p;
    r_jobs = jobs;
    r_policy = policy;
    r_integrity = integrity;
    r_checkpoint = checkpoint;
    r_execs = execs;
    r_sinks = insts;
    r_on_events =
      Array.map (fun il -> Array.of_list (List.map (fun (i : Sink.t) -> i.Sink.on_events) il)) insts;
    r_on_state =
      Array.map
        (fun il -> Array.of_list (List.filter_map (fun (i : Sink.t) -> i.Sink.on_state) il))
        insts;
    r_tables = Cost.tables arch;
    r_counts = Array.init num_arrays (fun _ -> Cost.counter ());
    r_cycles = Array.make num_arrays 0;
    r_reports = Array.make num_arrays 0;
    r_quarantined = Array.make num_arrays None;
    r_degraded = [];
    (* only the checkpoint paths read the digest: the resume check, the
       pre-save drift check and the saved record *)
    r_fingerprint = (match checkpoint with Some _ -> fingerprint p | None -> "");
    r_seals = pr.pr_seals;
    r_shadows = shadows;
    r_rollbacks =
      (match (policy, integrity) with
      | None, None -> [||]
      | _ ->
          Array.map
            (fun ex ->
              {
                rb_set = false;
                rb_cycles = 0;
                rb_reports = 0;
                rb_engines = Exec.snapshot ex;
                rb_counts = Cost.counter ();
              })
            execs);
    r_sweep_due = Array.make num_arrays 0;
    r_sentinel_due = Array.make num_arrays 0;
  }

(* Array [i]'s whole restorable state, as a checkpoint stores it: its
   cycle and report slots, its engines' arenas and, as one trailing row
   after them, its energy counters, with the counters priced beside
   them for the checkpoint's reader.  Checkpoints and resume go through
   this one capture and the one restore below. *)
let capture_array st i =
  let engines = Exec.engines st.r_execs.(i) in
  let n = Array.length engines in
  let counts = Cost.save st.r_counts.(i) in
  let cat, mode = priced st.r_tables st.r_counts.(i) in
  {
    Checkpoint.cs_cycles = st.r_cycles.(i);
    cs_reports = st.r_reports.(i);
    cs_energy_pj = cat;
    cs_mode_pj = mode;
    cs_engines =
      Array.init (n + 1) (fun k -> if k < n then Engine.snapshot engines.(k) else counts);
  }

(* Raises [Invalid_argument] when [a] was captured from another placement. *)
let restore_array st i (a : Checkpoint.array_state) =
  let rows = a.Checkpoint.cs_engines in
  let n = Array.length rows - 1 in
  if n < 0 then invalid_arg "checkpoint array holds no energy counters";
  Exec.restore st.r_execs.(i) (Array.sub rows 0 n);
  Cost.restore st.r_counts.(i) rows.(n);
  st.r_cycles.(i) <- a.Checkpoint.cs_cycles;
  st.r_reports.(i) <- a.Checkpoint.cs_reports

(* Restore the saved arrays and quarantines, and seek the stream to the
   saved offset.  No checkpoint yet is a fresh run. *)
let resume st ~dir stream =
  match Checkpoint.load ~dir with
  | Error e -> raise (Sim_error.Error e)
  | Ok None -> ()
  | Ok (Some ck) ->
      let num_arrays = Array.length st.r_execs in
      if ck.Checkpoint.ck_fingerprint <> st.r_fingerprint then
        mismatch "checkpoint was taken from a different regex set or placement";
      if Array.length ck.Checkpoint.ck_arrays <> num_arrays then
        mismatch "checkpoint array count differs from this placement";
      Array.iteri
        (fun i a -> try restore_array st i a with Invalid_argument msg -> mismatch msg)
        ck.Checkpoint.ck_arrays;
      List.iter
        (fun e ->
          st.r_degraded <- e :: st.r_degraded;
          match Sim_error.array_id e with
          | Some i when i >= 0 && i < num_arrays -> st.r_quarantined.(i) <- Some e
          | _ -> ())
        ck.Checkpoint.ck_degraded;
      Input_stream.seek stream ck.Checkpoint.ck_symbols;
      Checkpoint.journal ~dir
        (Printf.sprintf "resume symbols=%d degraded=%d" ck.Checkpoint.ck_symbols
           (List.length ck.Checkpoint.ck_degraded))

(* Step symbols [lo, hi) of [chunk] through array [i], in the fixed
   per-symbol order: [Exec.step], cycles and reports, event sinks, then
   state sinks.  The state sinks are the fault-injection surface: they
   run after the symbol's events are banked, so corruption lands in the
   stored state and is first seen at the next symbol. *)
let step_span st tally ~deadline ~base chunk i ~lo ~hi =
  let ex = st.r_execs.(i) and counts = st.r_counts.(i) in
  let el = st.r_on_events.(i) and sl = st.r_on_state.(i) in
  for off = lo to hi - 1 do
    if off land (deadline_stride - 1) = 0 then Scheduler.check_deadline deadline;
    let sym = base + off in
    let ev = Exec.step st.r_arch ex ~sym (String.unsafe_get chunk off) in
    tally.t_cycles <- tally.t_cycles + 1 + ev.Exec.stall;
    tally.t_reports <- tally.t_reports + ev.Exec.reports;
    Cost.count counts ev;
    for k = 0 to Array.length el - 1 do
      el.(k) ev
    done;
    for k = 0 to Array.length sl - 1 do
      sl.(k) ~sym (Exec.engines ex)
    done
  done

(* One sentinel window over symbols [lo, hi): capture the state the
   window's first symbol is applied to, step symbol by symbol folding
   each post-symbol state into the window digest (after the sinks, so
   corruption landing at this very symbol is visible), then replay the
   window on the shadow through the reference kernel. *)
let step_window st cfg tally ~deadline ~base chunk i ~lo ~hi =
  let ex = st.r_execs.(i) in
  let pre = Exec.snapshot ex in
  let digest = ref 0 in
  for off = lo to hi - 1 do
    step_span st tally ~deadline ~base chunk i ~lo:off ~hi:(off + 1);
    digest := Array.fold_left (fun acc e -> Engine.state_digest e acc) !digest (Exec.engines ex)
  done;
  Integrity.sentinel_replay cfg ~array_id:i ~sym:(base + hi - 1) ~shadow:st.r_shadows.(i) ~live:ex
    ~pre ~chunk ~start:lo ~len:(hi - lo) ~live_digest:!digest

(* Array [i]'s attempt at one chunk.  Sentinel windows are laid out as
   spans before stepping them: a window opens at the first symbol at or
   after the array's due symbol and runs [sentinel_window] symbols or to
   the chunk end — windows never span a chunk boundary, since a rollback
   restores chunk-start state and a cross-chunk window could not be
   re-verified after a heal.  The due symbol only advances after a
   window passes, so a heal retry re-verifies the same span. *)
let step_chunk st ~deadline ~base chunk i =
  let len = String.length chunk in
  let tally = { t_cycles = st.r_cycles.(i); t_reports = st.r_reports.(i) } in
  (match st.r_integrity with
  | Some cfg when cfg.Integrity.sentinel_every > 0 ->
      let rec spans lo =
        let w = Int.max lo (st.r_sentinel_due.(i) - base) in
        if w >= len then step_span st tally ~deadline ~base chunk i ~lo ~hi:len
        else begin
          step_span st tally ~deadline ~base chunk i ~lo ~hi:w;
          let hi = Int.min len (w + Int.max 1 cfg.Integrity.sentinel_window) in
          step_window st cfg tally ~deadline ~base chunk i ~lo:w ~hi;
          st.r_sentinel_due.(i) <- base + w + cfg.Integrity.sentinel_every;
          spans hi
        end
      in
      spans 0
  | _ -> step_span st tally ~deadline ~base chunk i ~lo:0 ~hi:len);
  (* Checksum/guard sweep at the chunk boundary, before the slots publish: a
     trip here aborts the attempt with slots untouched, so the heal
     wrapper can roll back and re-execute the chunk *)
  (match st.r_integrity with
  | Some cfg when cfg.Integrity.sweep_every > 0 && base + len >= st.r_sweep_due.(i) ->
      Integrity.check cfg ~array_id:i ~sym:(base + len - 1) st.r_seals.(i)
        (Exec.engines st.r_execs.(i));
      (* only after a clean pass, so retries re-sweep *)
      st.r_sweep_due.(i) <- base + len + cfg.Integrity.sweep_every
  | _ -> ());
  st.r_cycles.(i) <- tally.t_cycles;
  st.r_reports.(i) <- tally.t_reports

(* Every live array's chunk-start state, written into its rollback
   buffers; a quarantined array has none. *)
let mark_rollbacks st =
  Array.iteri
    (fun i rb ->
      match st.r_quarantined.(i) with
      | Some _ -> rb.rb_set <- false
      | None ->
          rb.rb_set <- true;
          rb.rb_cycles <- st.r_cycles.(i);
          rb.rb_reports <- st.r_reports.(i);
          Exec.snapshot_into st.r_execs.(i) rb.rb_engines;
          Cost.copy ~src:st.r_counts.(i) ~dst:rb.rb_counts)
    st.r_rollbacks

(* The one place an array's run state goes back to its chunk start, after
   a failed attempt, a heal or a quarantine.  A failed attempt never
   published its slots, so restoring them is a no-op; the engines and
   energy counters are what actually roll back. *)
let restore_rollback st i =
  if Array.length st.r_rollbacks > 0 then begin
    let rb = st.r_rollbacks.(i) in
    if rb.rb_set then begin
      Exec.restore st.r_execs.(i) rb.rb_engines;
      Cost.copy ~src:rb.rb_counts ~dst:st.r_counts.(i);
      st.r_cycles.(i) <- rb.rb_cycles;
      st.r_reports.(i) <- rb.rb_reports
    end
  end

let quarantine st i err =
  if st.r_quarantined.(i) = None then begin
    st.r_quarantined.(i) <- Some err;
    st.r_degraded <- err :: st.r_degraded
  end

(* Integrity heal: a violation raised inside the attempt (sweep or
   sentinel) is caught HERE, before the supervision policy can fold it
   into a generic Array_crashed — roll back to the chunk start, repair
   tables and guards from the pristine seals, and re-execute.  The chunk
   publishes its slots by assignment at the end, so a retried attempt
   never double-counts.  After [max_repairs] failed heals the typed error
   lands in [trips] (one writer per slot — no lock) for quarantine at the
   chunk barrier. *)
let max_repairs = 2

let heal_chunk st cfg trips ~deadline ~base chunk i =
  let rec go ~healed n =
    let heal err =
      restore_rollback st i;
      Integrity.repair cfg st.r_seals.(i) (Exec.engines st.r_execs.(i));
      if n >= max_repairs then begin
        Integrity.note_quarantine cfg.Integrity.stats;
        trips.(i) <- Some err
      end
      else go ~healed:true (n + 1)
    in
    match step_chunk st ~deadline ~base chunk i with
    | () -> if healed then Integrity.note_heal cfg.Integrity.stats
    | exception Sim_error.Error (Sim_error.Integrity_violation _ as err) -> heal err
    | exception e -> (
        (* A corrupted plan table can hold an index, so the kernel may
           crash out of bounds before any sweep fires.  Check the seals:
           if they trip, this crash IS the detection — heal it.  Clean
           seals mean a genuine bug: re-raise. *)
        match
          Integrity.check cfg ~array_id:i
            ~sym:(base + String.length chunk - 1)
            st.r_seals.(i)
            (Exec.engines st.r_execs.(i))
        with
        | () -> raise e
        | exception Sim_error.Error (Sim_error.Integrity_violation _ as err) -> heal err)
  in
  go ~healed:false 0

(* Every live array's attempt at one chunk, then the chunk barrier.  An
   array that exhausts the supervision policy's retries, or keeps
   tripping the integrity checks, is rolled back and quarantined: frozen
   at the last chunk boundary it completed while the others run on. *)
let run_chunk st ~base chunk =
  let num_arrays = Array.length st.r_execs in
  (* chunk-start snapshots, needed by the supervision policy's retries
     AND by the integrity layer's heal re-execution *)
  mark_rollbacks st;
  let trips = if st.r_integrity = None then [||] else Array.make num_arrays None in
  let attempt ~deadline i =
    match st.r_integrity with
    | None -> step_chunk st ~deadline ~base chunk i
    | Some cfg -> heal_chunk st cfg trips ~deadline ~base chunk i
  in
  let work_per_index = String.length chunk in
  (match st.r_policy with
  | None ->
      Scheduler.parallel_for ~work_per_index ~jobs:st.r_jobs num_arrays (fun i ->
          if st.r_quarantined.(i) = None then attempt ~deadline:Scheduler.no_deadline i)
  | Some policy ->
      Scheduler.supervised_for ~work_per_index ~jobs:st.r_jobs ~policy num_arrays
        (fun ~deadline ~attempt:k i ->
          if st.r_quarantined.(i) = None && (Array.length trips = 0 || trips.(i) = None) then begin
            if k > 1 then restore_rollback st i;
            attempt ~deadline i
          end)
      |> Array.iteri (fun i outcome ->
             Option.iter
               (fun err ->
                 restore_rollback st i;
                 quarantine st i err)
               outcome));
  (* integrity quarantines, folded single-threaded after the barrier (the
     heal wrapper already rolled the array back) *)
  Array.iteri (fun i trip -> Option.iter (quarantine st i) trip) trips

(* A checkpoint must never persist corruption: re-verify every live
   array's seals and guards (and that the placement fingerprint still
   digests to what we sealed) immediately before the write.  On a trip
   the write is skipped — the previous checkpoint stays the durable
   recovery point — tables are repaired, and the journal records why;
   the next chunk's sweep/sentinel then heals the state itself. *)
let verified_for_checkpoint st ~dir symbols =
  match st.r_integrity with
  | None -> true
  | Some cfg -> (
      try
        Array.iteri
          (fun i ex ->
            if st.r_quarantined.(i) = None then
              Integrity.check cfg ~array_id:i ~sym:(Int.max 0 (symbols - 1)) st.r_seals.(i)
                (Exec.engines ex))
          st.r_execs;
        fingerprint st.r_placement = st.r_fingerprint
        ||
        (Checkpoint.journal ~dir
           (Printf.sprintf "integrity checkpoint-skip symbols=%d placement fingerprint drifted"
              symbols);
         false)
      with Sim_error.Error (Sim_error.Integrity_violation _ as err) ->
        Array.iteri (fun i ex -> Integrity.repair cfg st.r_seals.(i) (Exec.engines ex)) st.r_execs;
        Checkpoint.journal ~dir
          (Printf.sprintf "integrity checkpoint-skip symbols=%d %s" symbols
             (Sim_error.message err));
        false)

let save_checkpoint st ~dir symbols =
  if verified_for_checkpoint st ~dir symbols then begin
    Checkpoint.save ~dir
      {
        Checkpoint.ck_fingerprint = st.r_fingerprint;
        ck_symbols = symbols;
        ck_degraded = List.rev st.r_degraded;
        ck_arrays = Array.init (Array.length st.r_execs) (capture_array st);
      };
    Checkpoint.journal ~dir
      (Printf.sprintf "checkpoint symbols=%d degraded=%d" symbols (List.length st.r_degraded))
  end

(* End of input.  A final checkpoint makes completion itself crash-safe:
   killed after the last symbol but before the report, a resume replays
   nothing and reproduces the report from the saved accumulators. *)
let finish st ~last_ckpt ~chars =
  (match st.r_checkpoint with
  | Some { Checkpoint.dir; _ } when last_ckpt <> chars -> save_checkpoint st ~dir chars
  | _ -> ());
  Array.iteri
    (fun i il -> List.iter (fun (s : Sink.t) -> s.Sink.on_close ~cycles:st.r_cycles.(i)) il)
    st.r_sinks;
  let priced = Array.map (priced st.r_tables) st.r_counts in
  let ledgers =
    Array.map
      (fun (cat, _) ->
        let l = Energy.create () in
        Energy.accumulate l cat;
        l)
      priced
  in
  assemble_report st.r_arch st.r_placement ~chars ~cycles_slots:st.r_cycles
    ~reports_slots:st.r_reports ~ledgers ~mode_slots:(Array.map snd priced) ~execs:st.r_execs
    ~degraded:(List.rev st.r_degraded)

(* The one run loop, over executors [start] is handed. *)
let drive ~jobs ~sinks ~policy ~integrity ~checkpoint ~resuming arch pr ~execs ~stream =
  let st = start ~jobs ~sinks ~policy ~integrity ~checkpoint arch pr ~execs ~stream in
  (match checkpoint with
  | Some { Checkpoint.dir; _ } when resuming -> resume st ~dir stream
  | _ -> ());
  let last_ckpt = ref (Input_stream.pos stream) in
  let rec loop () =
    let base = Input_stream.pos stream in
    match Input_stream.next stream with
    | None -> ()
    | Some chunk ->
        run_chunk st ~base chunk;
        let now = base + String.length chunk in
        (match checkpoint with
        | Some { Checkpoint.dir; every } when now - !last_ckpt >= every ->
            save_checkpoint st ~dir now;
            last_ckpt := now
        | _ -> ());
        loop ()
  in
  loop ();
  finish st ~last_ckpt:!last_ckpt ~chars:(Input_stream.pos stream)

(* A one-shot run steps the executors it builds, sealed when armed: no
   clone and no second seal. *)
let run_stream ?(jobs = 1) ?(sinks = []) ?policy ?integrity ?checkpoint ?resume:(resuming = false)
    (arch : Arch.t) ~params (p : Mapper.placement) ~stream =
  ignore params;
  let pr = build ~sealed:(Option.is_some integrity) p in
  drive ~jobs ~sinks ~policy ~integrity ~checkpoint ~resuming arch pr ~execs:pr.pr_templates
    ~stream

let run_prepared ?(jobs = 1) ?(sinks = []) ?policy ?integrity (arch : Arch.t) pr ~stream =
  if Option.is_some integrity && Array.length pr.pr_seals <> Array.length pr.pr_templates then
    invalid_arg "Runner.run_prepared: integrity armed on an unsealed placement";
  drive ~jobs ~sinks ~policy ~integrity ~checkpoint:None ~resuming:false arch pr
    ~execs:(Array.map Exec.clone_fresh pr.pr_templates)
    ~stream

(* One chunk spanning the whole string keeps the historical array-major
   symbol order at [jobs = 1], which shared-RNG fault sinks depend on. *)
let run ?jobs ?sinks ?integrity (arch : Arch.t) ~params (p : Mapper.placement) ~input =
  let stream = Input_stream.of_string ~chunk:(Int.max 1 (String.length input)) input in
  run_stream ?jobs ?sinks ?integrity arch ~params p ~stream

(* Single pass: the stall tracer rides the same event stream as the
   energy accounting, so the engines run exactly once. *)
let run_with_stall_traces arch ~params (p : Mapper.placement) ~input =
  let spec, traces = Sink.stall_trace ~num_arrays:(Array.length p.Mapper.arrays) in
  let r = run ~sinks:[ spec ] arch ~params p ~input in
  (r, traces ())

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>%s: %d chars in %d cycles, %.2f Gch/s, %.3f uJ, %.3f mm^2, %.3f W, %d reports, %d \
     arrays / %d tiles@]"
    (Arch.kind_name r.arch) r.chars r.cycles r.throughput_gchs (Energy.total_uj r.energy)
    r.area_mm2 r.power_w r.match_reports r.num_arrays r.num_tiles;
  if r.degraded <> [] then
    Format.fprintf fmt "@,@[<v>degraded: %d array(s) quarantined%a@]" (List.length r.degraded)
      (fun fmt l ->
        List.iter (fun e -> Format.fprintf fmt "@,  %a" Sim_error.pp e) l)
      r.degraded

(* The one canonical rendering, shared by the CLI, the batch
   --report-dir files and the match service's Report replies: byte-for-
   byte agreement between `rap simulate` output and a served report is
   part of the service's correctness contract, so there must be exactly
   one formatter. *)
let render_report r =
  Format.asprintf "%a@.energy breakdown:@.%a@." pp_report r Energy.pp r.energy
