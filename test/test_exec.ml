(* Layered execution core: event stream (Exec), sinks, and the parallel
   per-array scheduler.  The load-bearing property is bit-identity: every
   jobs value must produce exactly the same report — same floats, not
   merely close ones. *)

open Alcotest

let params = Program.default_params
let parse = Parser.parse_exn
let rap = Arch.rap ~bv_depth:params.Program.bv_depth

(* A rule set exercising all three modes, mapped onto several arrays. *)
let mixed_rules () = (Benchmarks.by_name "Yara").Benchmarks.regexes

let mixed_placement () =
  let units, errs = Runner.compile_for rap ~params (mixed_rules ()) in
  check int "mixed rules compile" 0 (List.length errs);
  let p = Runner.place rap ~params units in
  let modes = Hashtbl.create 3 in
  Array.iter
    (Array.iter (fun (t : Mapper.placed_tile) -> Hashtbl.replace modes t.Mapper.mode ()))
    p.Mapper.arrays;
  check bool "rule set is mixed-mode" true (Hashtbl.length modes >= 2);
  p

let mixed_input () = (Benchmarks.by_name "Yara").Benchmarks.make_input ~chars:2_000

let check_reports_equal label (a : Runner.report) (b : Runner.report) =
  check int (label ^ ": cycles") a.Runner.cycles b.Runner.cycles;
  check int (label ^ ": reports") a.Runner.match_reports b.Runner.match_reports;
  List.iter
    (fun cat ->
      check (float 0.) (* exact: bit-identity, not approximation *)
        (label ^ ": " ^ Energy.category_name cat)
        (Energy.get_pj a.Runner.energy cat)
        (Energy.get_pj b.Runner.energy cat))
    Energy.all_categories;
  List.iter2
    (fun (_, pa) (_, pb) -> check (float 0.) (label ^ ": mode energy") pa pb)
    a.Runner.mode_energy_pj b.Runner.mode_energy_pj;
  check bool (label ^ ": array details") true (a.Runner.arrays_detail = b.Runner.arrays_detail)

let test_seq_parallel_bit_identical () =
  let p = mixed_placement () in
  check bool "several arrays" true (Array.length p.Mapper.arrays > 1);
  let input = mixed_input () in
  let run jobs = Runner.run ~jobs rap ~params p ~input in
  let seq = run 1 in
  check bool "simulation does work" true (Energy.total_pj seq.Runner.energy > 0.);
  List.iter
    (fun jobs -> check_reports_equal (Printf.sprintf "jobs=%d" jobs) seq (run jobs))
    [ 2; 4; 7 ]

let test_scheduler_covers_and_propagates () =
  (* every index runs exactly once, on any worker *)
  List.iter
    (fun (jobs, n) ->
      let hits = Array.make n 0 in
      Scheduler.parallel_for ~jobs n (fun i -> hits.(i) <- hits.(i) + 1);
      Array.iteri (fun i h -> check int (Printf.sprintf "index %d once" i) 1 h) hits)
    [ (1, 5); (4, 1); (4, 17); (8, 8) ];
  (* zero-length loop is a no-op *)
  Scheduler.parallel_for ~jobs:4 0 (fun _ -> fail "no work expected");
  (* a worker exception reaches the caller *)
  check_raises "exception propagates" (Invalid_argument "boom") (fun () ->
      Scheduler.parallel_for ~jobs:4 8 (fun i -> if i = 5 then invalid_arg "boom"))

(* The single-pass stall trace must equal an independent re-simulation —
   the exact schedule the deleted two-pass implementation produced. *)
let test_stall_trace_single_pass_matches_reference () =
  let regexes = [ ("t", parse "t[a-z]{4,40}"); ("u", parse "u{8}v") ] in
  let units, _ = Runner.compile_for rap ~params regexes in
  let p = Runner.place rap ~params units in
  let input = String.concat "" (List.init 40 (fun _ -> "tabcdefgh uuuuuuuuv ")) in
  let r, traces = Runner.run_with_stall_traces rap ~params p ~input in
  let reference =
    Array.map
      (fun tiles ->
        let ex = Exec.build p tiles in
        Array.init (String.length input) (fun sym ->
            (Exec.step rap ex ~sym input.[sym]).Exec.stall))
      p.Mapper.arrays
  in
  check int "one trace per array" (Array.length p.Mapper.arrays) (Array.length traces);
  Array.iteri
    (fun a trace ->
      check (array int) (Printf.sprintf "array %d stall schedule" a) reference.(a) trace)
    traces;
  (* and the report still accounts the stalls *)
  check bool "stalls happened" true (Array.exists (Array.exists (fun s -> s > 0)) traces);
  check bool "cycles include stalls" true (r.Runner.cycles > r.Runner.chars)

(* Trace sink: rows must reproduce, field by field, an independent replay
   of the event stream through the same cost model. *)
let test_trace_sink_csv_golden () =
  let regexes = [ ("a", parse "ab{3,10}c"); ("w", parse "wget") ] in
  let units, _ = Runner.compile_for rap ~params regexes in
  let p = Runner.place rap ~params units in
  let input = "abbbc wget abbbbbbc xx" in
  let num_arrays = Array.length p.Mapper.arrays in
  let spec, dump = Sink.trace rap ~format:Sink.Csv ~num_arrays in
  ignore (Runner.run ~sinks:[ spec ] rap ~params p ~input);
  let path = Filename.temp_file "rap_trace" ".csv" in
  let oc = open_out path in
  dump oc;
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let lines = List.rev !lines in
  let header = List.hd lines and rows = List.tl lines in
  check string "header"
    ("array,sym,byte,active,stall,reports,cross,state_matching_pj,state_transition_pj,"
    ^ "bv_processing_pj,global_routing_pj,controller_pj,leakage_pj,io_pj")
    header;
  check int "one row per array per symbol" (num_arrays * String.length input)
    (List.length rows);
  (* independent replay: expected row text from a fresh Exec + Cost *)
  let expected =
    List.concat
      (List.init num_arrays (fun a ->
           let ex = Exec.build p p.Mapper.arrays.(a) in
           List.init (String.length input) (fun sym ->
               let ev = Exec.step rap ex ~sym input.[sym] in
               let cost = Cost.of_events rap ev in
               let active =
                 Array.fold_left (fun acc t -> acc + t.Exec.t_active_states) 0 ev.Exec.tiles
               in
               Printf.sprintf "%d,%d,%d,%d,%d,%d,%d" a sym (Char.code input.[sym]) active
                 ev.Exec.stall ev.Exec.reports ev.Exec.cross
               ^ String.concat ""
                   (List.map (Printf.sprintf ",%.6f") (Array.to_list cost.Cost.cat_pj)))))
  in
  List.iteri
    (fun i (want, got) -> check string (Printf.sprintf "row %d" i) want got)
    (List.combine expected rows)

let test_trace_sink_json_well_formed () =
  let regexes = [ ("a", parse "abc") ] in
  let units, _ = Runner.compile_for rap ~params regexes in
  let p = Runner.place rap ~params units in
  let input = "xabcx" in
  let spec, dump = Sink.trace rap ~format:Sink.Json ~num_arrays:(Array.length p.Mapper.arrays) in
  ignore (Runner.run ~sinks:[ spec ] rap ~params p ~input);
  let buf = Buffer.create 256 in
  let path = Filename.temp_file "rap_trace" ".json" in
  let oc = open_out path in
  dump oc;
  close_out oc;
  let ic = open_in path in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let s = Buffer.contents buf in
  check bool "array brackets" true (String.length s > 2 && s.[0] = '[');
  let count c = String.fold_left (fun acc ch -> if ch = c then acc + 1 else acc) 0 s in
  check int "one object per symbol" (String.length input) (count '{');
  check int "objects closed" (count '{') (count '}');
  check bool "format from path" true (Sink.trace_format_of_path "x/y.JSON" = Sink.Json);
  check bool "csv otherwise" true (Sink.trace_format_of_path "t.csv" = Sink.Csv)

(* The Table-1 cost model as plain function calls, in the model's
   order: [Cost.charge]'s lookup tables must reproduce it bit for bit,
   inside the tables and past them. *)
let reference_cost (arch : Arch.t) (ev : Exec.array_events) =
  let cat = Array.make Cost.num_categories 0. and mode = Array.make Cost.num_modes 0. in
  let add c pj = cat.(Energy.index c) <- cat.(Energy.index c) +. pj in
  let addm mi c pj =
    add c pj;
    mode.(mi) <- mode.(mi) +. pj
  in
  for i = 0 to ev.Exec.n_phases - 1 do
    let p = ev.Exec.bv_phases.(i) in
    addm (Cost.mode_index p.Exec.p_mode) Energy.Bv_processing
      (Cost.bv_phase_pj arch ~bv_cols:p.Exec.p_bv_cols ~iterations:p.Exec.p_iterations)
  done;
  let cyc = 1 + ev.Exec.stall in
  let leak = ref (float_of_int cyc *. Arch.array_leakage_pj_per_cycle arch) in
  let ctrl = arch.Arch.controller_pj +. arch.Arch.reconfig_tax_pj in
  Array.iter
    (fun (t : Exec.tile_events) ->
      let mi = Cost.mode_index t.Exec.t_mode and active = t.Exec.t_active_states in
      if t.Exec.t_powered then begin
        addm mi Energy.State_matching (Cost.matching_pj arch ~enabled_cols:t.Exec.t_enabled_cols);
        if t.Exec.t_mode <> Engine.M_lnfa then begin
          if active > 0 then
            addm mi Energy.State_transition (Switch.local_traverse_pj ~active_rows:active);
          addm mi Energy.Controller ctrl
        end
        else if active > 0 then addm mi Energy.Controller ctrl
      end;
      let pj =
        float_of_int cyc *. Arch.tile_leakage_pj_per_cycle arch ~powered:t.Exec.t_powered
      in
      leak := !leak +. pj;
      mode.(mi) <- mode.(mi) +. pj)
    ev.Exec.tiles;
  let cross = ev.Exec.cross in
  if cross > 0 then
    add Energy.Global_routing
      (Switch.global_traverse_pj ~active_rows:cross +. Switch.wire_pj ~hops:cross);
  add Energy.Controller Circuit.global_controller.Circuit.energy_min_pj;
  add Energy.Io (2. *. (Buffers.push_pj +. Buffers.pop_pj));
  add Energy.Leakage !leak;
  (cyc, cat, mode)

let gen_cost_case =
  let open QCheck2.Gen in
  let mode = oneofl [ Engine.M_nfa; Engine.M_nbva; Engine.M_lnfa ] in
  (* mostly inside the lookup tables, sometimes far past them *)
  let count = frequency [ (4, int_bound 300); (1, int_bound 5000) ] in
  let tile =
    map4
      (fun m p e a -> { Exec.t_mode = m; t_powered = p; t_enabled_cols = e; t_active_states = a })
      mode bool count count
  in
  let phase =
    map3
      (fun m c i -> { Exec.p_mode = m; p_bv_cols = c; p_iterations = i; p_stall = 0 })
      mode count (int_bound 9)
  in
  let* arch = oneofl [ rap; Arch.cama; Arch.ca; Arch.bvap ] in
  let* tiles = array_size (int_range 1 6) tile in
  let* bv_phases = array_size (int_bound 4) phase in
  let* n_phases = int_bound (Array.length bv_phases) in
  let* stall = int_bound 12 in
  let* cross = count in
  return
    ( arch,
      { Exec.sym = 0; symbol = 'a'; stall; cross; reports = 0; tiles; bv_phases; n_phases } )

let prop_cost_tables_exact =
  QCheck2.Test.make ~name:"Cost.of_events = Table-1 function calls, bit for bit" ~count:500
    ~print:(fun ((arch : Arch.t), (ev : Exec.array_events)) ->
      Printf.sprintf "%s: %d tiles, %d phases, stall %d, cross %d" (Arch.kind_name arch.Arch.kind)
        (Array.length ev.Exec.tiles) ev.Exec.n_phases ev.Exec.stall ev.Exec.cross)
    gen_cost_case
    (fun (arch, ev) ->
      let c = Cost.of_events arch ev in
      let cycles, cat, mode = reference_cost arch ev in
      let bits_equal a b =
        Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b
      in
      c.Cost.cycles = cycles && bits_equal c.Cost.cat_pj cat && bits_equal c.Cost.mode_pj mode)

(* The NBVA kernel swap must be invisible to the whole stack: reports,
   energy and stall traces are bit-identical whether the engines step with
   the bit-parallel kernel or the scalar reference kernel, at --jobs 1 and
   --jobs 4.  Engines are built inside Runner.run, so flipping the selector
   between runs really swaps the hot-path kernel. *)
let test_kernel_swap_bit_identical () =
  let p = mixed_placement () in
  let input = mixed_input () in
  let with_kernel k f =
    Nbva.kernel := k;
    Fun.protect ~finally:(fun () -> Nbva.kernel := Nbva.Bit_parallel) f
  in
  let run jobs () = Runner.run ~jobs rap ~params p ~input in
  let ref1 = with_kernel Nbva.Reference (run 1) in
  let ref4 = with_kernel Nbva.Reference (run 4) in
  let new1 = with_kernel Nbva.Bit_parallel (run 1) in
  let new4 = with_kernel Nbva.Bit_parallel (run 4) in
  check bool "simulation does work" true (Energy.total_pj ref1.Runner.energy > 0.);
  check_reports_equal "kernel swap, jobs=1" ref1 new1;
  check_reports_equal "kernel swap, jobs=4" ref4 new4;
  check_reports_equal "bit-parallel, jobs=1 vs 4" new1 new4;
  (* and the per-symbol stall schedule is identical across the swap *)
  let traces () = snd (Runner.run_with_stall_traces rap ~params p ~input) in
  let tref = with_kernel Nbva.Reference traces in
  let tnew = with_kernel Nbva.Bit_parallel traces in
  check int "trace count" (Array.length tref) (Array.length tnew);
  Array.iteri
    (fun a trace -> check (array int) (Printf.sprintf "array %d stalls across swap" a) trace tnew.(a))
    tref

let reference f =
  Nbva.kernel := Nbva.Reference;
  Fun.protect ~finally:(fun () -> Nbva.kernel := Nbva.Bit_parallel) f

(* The idle fast path and the awake set, full stack.  Two contexts of
   one array step the same input, one on the bit-parallel kernel (fast
   path on) and one on the reference kernel (every engine stepped); every
   [array_events] field must agree at every symbol.  [event] runs before
   each symbol and hosts the writes that land behind the contexts' backs;
   each must show from the next symbol on: a stale idle record, a stale
   live one, an engine missing from the awake set (its state then
   differs) or a tile left unassembled fails the comparison.  After
   every fast step the awake set holds exactly the live engines, and at
   the end the two event streams' counted energy is the same.  Returns
   the engine-steps that start and end all-zero. *)
let lockstep p tiles input ~event =
  let same sym (a : Exec.array_events) (b : Exec.array_events) =
    let differs what = failf "%s differs from the reference path at symbol %d" what sym in
    if (a.Exec.sym, a.Exec.symbol) <> (b.Exec.sym, b.Exec.symbol) then differs "position";
    if a.Exec.stall <> b.Exec.stall then differs "stall";
    if a.Exec.cross <> b.Exec.cross then differs "cross";
    if a.Exec.reports <> b.Exec.reports then differs "reports";
    if a.Exec.n_phases <> b.Exec.n_phases then differs "BV phase count";
    for i = 0 to a.Exec.n_phases - 1 do
      if a.Exec.bv_phases.(i) <> b.Exec.bv_phases.(i) then differs "a BV phase"
    done;
    Array.iteri
      (fun ti t -> if t <> b.Exec.tiles.(ti) then differs (Printf.sprintf "tile %d" ti))
      a.Exec.tiles;
    if (Cost.of_events rap a).Cost.cat_pj <> (Cost.of_events rap b).Cost.cat_pj then
      differs "energy"
  in
  let fast = ref (Exec.build p tiles) and slow = ref (Exec.build p tiles) in
  let skipped = ref 0 in
  let counted_fast = Cost.counter () and counted_slow = Cost.counter () in
  String.iteri
    (fun sym c ->
      event ~sym fast slow;
      let before = Array.map Engine.idle (Exec.engines !fast) in
      let a = Exec.step rap !fast ~sym c in
      Cost.count counted_fast a;
      (* the leave rule: a step that leaves an engine all-zero drops it *)
      let live =
        Array.fold_left (fun n e -> if Engine.idle e then n else n + 1) 0 (Exec.engines !fast)
      in
      if Exec.awake_count !fast <> live then
        failf "%d engines awake for %d live ones at symbol %d" (Exec.awake_count !fast) live sym;
      let b = reference (fun () -> Exec.step rap !slow ~sym c) in
      same sym a b;
      Cost.count counted_slow b;
      Array.iteri
        (fun j e ->
          (* an engine left out of a step keeps a stale state that no
             event shows until a byte wakes it *)
          if not (Engine.state_equal e (Exec.engines !slow).(j)) then
            failf "engine %d's state differs from the reference path at symbol %d" j sym;
          if before.(j) && Engine.idle e then incr skipped)
        (Exec.engines !fast))
    input;
  (* and the counted energy of the two event streams is the same *)
  let priced counts =
    let cat = Array.make Cost.num_categories 0. and mode = Array.make Cost.num_modes 0. in
    Cost.price (Cost.tables rap) counts ~cat_pj:cat ~mode_pj:mode;
    (cat, mode)
  in
  if priced counted_fast <> priced counted_slow then
    fail "the fast path's counted energy differs from the reference path's";
  !skipped

(* Input 1 alternates long runs of a byte no rule wakes on with bursts of
   activity.  Its writes: a state flip into every idle engine, a restore
   of a live snapshot into the idle array and of an idle snapshot into
   the live array, a fresh clone of the idle array, and a step that
   raises mid-array on a corrupted [succ_row] index, rolled back with
   [Exec.restore] and healed with [Integrity.repair].  Input 2 is Snort,
   whose second array has more engines than a word has bits, so its
   awake set spans two words; it takes a flip into every engine, a
   restore, a clone and one symbol through the reference kernel (after
   which the fast context rebuilds its counts) at fixed symbols.  Input 3 pins the kept
   records: [ab*c] and [xy*z] over two blocks of [abbbbbbbbbc], a run of
   [q] and a run of [b].  Before the first [b] run a snapshot taken after
   [abb] is restored, and before the second the [b] state (bit 1) of
   every idle NFA engine is flipped.  Each write leaves [ab*c] live in a
   state the [b]s do not change, while its record still projects the
   [c] it last saw, so only the write's own projection shows the new
   state.  Input 4 makes the same writes into a live engine whose last
   step kept its state, so no change the kernel saw is pending: [b*] of
   [a[bc]*d|b*e] holds a run of [b]s after a [q], and a restore of the
   state after [abb] (where [[bc]] is active too), then a flip of the
   [[bc]] bit, each add a state the [b]s keep. *)
let test_idle_fast_path_lockstep () =
  let rules =
    [ "ab*c"; "x[yz]d"; "a{30}b"; "bc{5,12}d"; "evilsig"; "badstring"; "cdacdacda" ]
  in
  let units, errs = Runner.compile_for rap ~params (List.map (fun r -> (r, parse r)) rules) in
  check int "rules compile" 0 (List.length errs);
  let p = Runner.place rap ~params units in
  let quiet = String.make 200 'q' in
  let burst = "abbbc xyd " ^ String.make 31 'a' ^ "b bcccccd evilsig badstring cdacdacda " in
  let block = String.length quiet + String.length burst in
  let input = String.concat "" (List.init 8 (fun _ -> quiet ^ burst)) in
  let flipped = Hashtbl.create 3 and skipped = ref 0 in
  let into_idle = ref 0 and into_live = ref 0 and clones = ref 0 and raised = ref 0 in
  Array.iter
    (fun tiles ->
      let live_snap = ref None and idle_snap = ref None in
      let event ~sym fast slow =
        let snap () = (Exec.snapshot !fast, Exec.snapshot !slow) in
        let restore count (f, s) =
          Exec.restore !fast f;
          Exec.restore !slow s;
          incr count
        in
        let idle = Array.for_all Engine.idle (Exec.engines !fast) in
        let phase = sym mod block and kind = sym / block mod 3 in
        (* in a burst: keep a live snapshot, or put an idle one back
           just before a byte that wakes none of the live engines
           (inside "abbbc", "bcccccd" and "evilsig") *)
        let off = phase - String.length quiet in
        if not idle then begin
          if kind = 2 && List.mem off [ 3; 46; 53 ] then
            Option.iter (restore into_live) !idle_snap
          else if off = 20 then live_snap := Some (snap ())
        end;
        (* mid-quiet, once the idle records are in place *)
        if phase = 100 && idle then begin
          idle_snap := Some (snap ());
          match (kind, !live_snap) with
          | 0, _ ->
              Array.iter2
                (fun f s ->
                  Hashtbl.replace flipped (Engine.mode f) ();
                  let bit = Engine.state_bits f - 1 in
                  Engine.flip_state_bit f bit;
                  Engine.flip_state_bit s bit)
                (Exec.engines !fast) (Exec.engines !slow)
          | 1, Some s -> restore into_idle s
          | _ ->
              fast := Exec.clone_fresh !fast;
              slow := Exec.clone_fresh !slow;
              incr clones
        end;
        (* late in one burst: the highest live NFA/NBVA engine with a
           live engine below it gets its successor rows pointed out of
           range, so the array's step raises after stepping some engines
           and before stepping others; roll back and repair, then the
           symbol runs again *)
        if sym / block = 5 && off = 12 then begin
          let es = Exec.engines !fast in
          let live j = not (Engine.idle es.(j)) in
          let target = ref (-1) in
          Array.iteri
            (fun j e ->
              if j > 0 && live j && Engine.mode e <> Engine.M_lnfa
                 && List.exists live (List.init j Fun.id)
              then target := j)
            es;
          if !target >= 0 then begin
            let cfg = Integrity.continuous_config () in
            let seal = Integrity.seal es and pre = Exec.snapshot !fast in
            List.iter
              (function
                | Engine.R_words ("succ_row", rows) -> Array.fill rows 0 (Array.length rows) (-1)
                | _ -> ())
              (Engine.immutable_regions es.(!target));
            (match Exec.step rap !fast ~sym (String.get input sym) with
            | exception Invalid_argument _ -> incr raised
            | _ -> fail "a step over a corrupted succ_row did not raise");
            Exec.restore !fast pre;
            Integrity.repair cfg seal es;
            check bool "the repair found the corruption" true
              (cfg.Integrity.stats.Integrity.repairs >= 1)
          end
        end
      in
      skipped := !skipped + lockstep p tiles input ~event)
    p.Mapper.arrays;
  let arrays = Array.length p.Mapper.arrays in
  check bool "NFA, NBVA and bin engines all took a flip while idle" true
    (List.for_all (Hashtbl.mem flipped) [ Engine.M_nfa; Engine.M_nbva; Engine.M_lnfa ]);
  check bool "live snapshots restored into idle arrays" true (!into_idle >= arrays);
  check bool "idle snapshots restored into live arrays" true (!into_live >= arrays);
  check bool "idle arrays cloned" true (!clones >= arrays);
  check bool "a step raised mid-array" true (!raised >= 1);
  check bool "the fast path was taken" true (!skipped > String.length input);
  (* input 2 *)
  let snort = Benchmarks.by_name "Snort" in
  let units, _ = Runner.compile_for rap ~params snort.Benchmarks.regexes in
  let p = Runner.place rap ~params units in
  let input = snort.Benchmarks.make_input ~chars:3_000 in
  let wide = ref 0 and high_live = ref 0 and resyncs = ref 0 in
  Array.iter
    (fun tiles ->
      let engines = Array.length (Exec.engines (Exec.build p tiles)) in
      if engines > Bitvec.bits_per_word then incr wide;
      let saved = ref None in
      let event ~sym fast slow =
        (match sym with
        | 700 -> saved := Some (Exec.snapshot !fast, Exec.snapshot !slow)
        | 1_200 ->
            Array.iter2
              (fun f s ->
                let bit = Engine.state_bits f - 1 in
                Engine.flip_state_bit f bit;
                Engine.flip_state_bit s bit)
              (Exec.engines !fast) (Exec.engines !slow)
        | 1_800 ->
            Option.iter
              (fun (f, s) ->
                Exec.restore !fast f;
                Exec.restore !slow s)
              !saved
        | 2_400 ->
            fast := Exec.clone_fresh !fast;
            slow := Exec.clone_fresh !slow
        | 2_700 ->
            (* one extra symbol through the reference kernel on both
               sides: the fast context's next step starts over *)
            reference (fun () ->
                ignore (Exec.step rap !fast ~sym 'a');
                ignore (Exec.step rap !slow ~sym 'a'));
            incr resyncs
        | _ -> ());
        Array.iteri
          (fun j e -> if j >= Bitvec.bits_per_word && not (Engine.idle e) then incr high_live)
          (Exec.engines !fast)
      in
      ignore (lockstep p tiles input ~event))
    p.Mapper.arrays;
  check bool "Snort has an array whose awake set spans two words" true (!wide >= 1);
  check bool "engines in the second word went live" true (!high_live > 0);
  check bool "the fast path resynced after a reference step" true (!resyncs >= 1);
  (* input 3 *)
  let units, errs =
    Runner.compile_for rap ~params [ ("ab*c", parse "ab*c"); ("xy*z", parse "xy*z") ]
  in
  check int "rules compile" 0 (List.length errs);
  let p = Runner.place rap ~params units in
  let block = "abbbbbbbbbc" ^ String.make 10 'q' ^ String.make 10 'b' in
  let input = block ^ block in
  let run_start = String.length block - 10 in
  let writes = ref 0 and kept = ref 0 in
  Array.iter
    (fun tiles ->
      let saved = ref None and digests = ref None in
      let event ~sym fast slow =
        let es = Exec.engines !fast in
        (* the symbol after a write: some live state came through unchanged *)
        Option.iter
          (fun before ->
            Array.iteri
              (fun j d ->
                if (not (Engine.idle es.(j))) && Engine.state_digest es.(j) 0 = d then incr kept)
              before;
            digests := None)
          !digests;
        let wrote () =
          incr writes;
          digests := Some (Array.map (fun e -> Engine.state_digest e 0) es)
        in
        if sym = 3 then saved := Some (Exec.snapshot !fast, Exec.snapshot !slow)
        else if sym = run_start then
          Option.iter
            (fun (f, s) ->
              Exec.restore !fast f;
              Exec.restore !slow s;
              wrote ())
            !saved
        else if sym = String.length block + run_start then begin
          Array.iter2
            (fun f s ->
              if Engine.mode f = Engine.M_nfa && Engine.idle f then begin
                Engine.flip_state_bit f 1;
                Engine.flip_state_bit s 1
              end)
            es (Exec.engines !slow);
          wrote ()
        end
      in
      ignore (lockstep p tiles input ~event))
    p.Mapper.arrays;
  check int "a restore and a flip landed" 2 !writes;
  check bool "each left a live state the next byte kept" true (!kept >= 2);
  (* input 4 *)
  let units, errs = Runner.compile_for rap ~params [ ("a[bc]*d|b*e", parse "a[bc]*d|b*e") ] in
  check int "rules compile" 0 (List.length errs);
  let p = Runner.place rap ~params units in
  let run lead = lead ^ String.make 10 'b' in
  let input = run "a" ^ run "q" ^ run "q" in
  let second = String.length (run "a") in
  let writes = ref 0 and kept = ref 0 in
  Array.iter
    (fun tiles ->
      let saved = ref None and written = ref None in
      let event ~sym fast slow =
        let e = (Exec.engines !fast).(0) in
        let digest () = Engine.state_digest e 0 in
        Option.iter
          (fun d ->
            if digest () = d then incr kept;
            written := None)
          !written;
        let write f =
          let live = not (Engine.idle e) and d = digest () in
          f ();
          if live && digest () <> d then begin
            incr writes;
            written := Some (digest ())
          end
        in
        if sym = 3 then saved := Some (Exec.snapshot !fast, Exec.snapshot !slow)
        else if sym = second + 4 then
          Option.iter
            (fun (f, s) ->
              write (fun () ->
                  Exec.restore !fast f;
                  Exec.restore !slow s))
            !saved
        else if sym = (2 * second) + 4 then
          write (fun () ->
              Engine.flip_state_bit e 1;
              Engine.flip_state_bit (Exec.engines !slow).(0) 1)
      in
      ignore (lockstep p tiles input ~event))
    p.Mapper.arrays;
  check int "a restore and a flip changed a live state" 2 !writes;
  check int "the next byte kept each new state" 2 !kept

(* Satellite: state_bits counts exactly the flippable surface — every
   index below it flips (and flips back) without raising. *)
let test_state_bits_flip_coverage () =
  let engines =
    [
      ("NFA", Engine.of_nfa_unit (Nfa_compile.compile (parse "ab|cd")));
      ("NBVA", Engine.of_nbva_unit (Nbva_compile.compile ~params (parse "x[ab]{5,30}y")));
      ( "LNFA",
        let mk s =
          { Program.labels = Array.init (String.length s) (fun i -> Charclass.singleton s.[i]);
            single_code = true }
        in
        Engine.of_bin (List.hd (Binning.pack ~max_bin_size:4 [ (0, mk "abc"); (1, mk "def") ]))
      );
    ]
  in
  List.iter
    (fun (name, e) ->
      let n = Engine.state_bits e in
      check bool (name ^ " has state bits") true (n > 0);
      for i = 0 to n - 1 do
        Engine.flip_state_bit e i;
        Engine.flip_state_bit e i
      done;
      check_raises (name ^ " rejects out-of-range")
        (Invalid_argument "Engine.flip_state_bit: index out of range") (fun () ->
          Engine.flip_state_bit e n))
    engines

(* Building an array compiles nothing: every [Exec.build] of one
   placement, and every clone of a build, steps the executor tables the
   compiler put in the units and the Shift-And tables the mapper put in
   the placement — physically the same arrays, so one seal covers them
   all. *)
let test_build_shares_executors () =
  let rules = [ "(wget|curl).*http"; "ab{3,10}c"; "user=root" ] in
  let units, errs = Runner.compile_for rap ~params (List.map (fun s -> (s, parse s)) rules) in
  check int "rules compile" 0 (List.length errs);
  let p = Runner.place rap ~params units in
  let engines = Hashtbl.create 3 in
  let same_tables label a b =
    Array.iter2
      (fun ea eb ->
        Hashtbl.replace engines (Engine.mode ea) ();
        List.iter2
          (fun ra rb ->
            let name = label ^ ": " ^ Engine.region_name ra in
            match (ra, rb) with
            | Engine.R_words (_, x), Engine.R_words (_, y) -> check bool name true (x == y)
            | Engine.R_bytes (_, x), Engine.R_bytes (_, y) -> check bool name true (x == y)
            | Engine.R_vecs (_, x), Engine.R_vecs (_, y) ->
                check bool name true
                  (Array.length x = Array.length y && Array.for_all2 ( == ) x y)
            | _ -> fail (name ^ ": region kinds differ"))
          (Engine.immutable_regions ea) (Engine.immutable_regions eb))
      (Exec.engines a) (Exec.engines b)
  in
  Array.iter
    (fun tiles ->
      let a = Exec.build p tiles in
      same_tables "two builds" a (Exec.build p tiles);
      same_tables "build and clone" a (Exec.clone_fresh a))
    p.Mapper.arrays;
  check bool "the placement has NFA-mode engines and bins" true
    (Hashtbl.mem engines Engine.M_nfa && Hashtbl.mem engines Engine.M_lnfa)

(* [Engine.step] allocates nothing from the very first symbol: a freshly
   built array's engines step with no warm-up pass and no cache to fill.
   Minor words are baseline-subtracted (a 0-symbol pass measures the
   probe itself), as [bench sim]'s exec_path probe counts them. *)
let test_engine_step_allocation_free () =
  List.iter
    (fun name ->
      let s = Benchmarks.by_name name in
      let units, _ = Runner.compile_for rap ~params s.Benchmarks.regexes in
      let p = Runner.place rap ~params units in
      let input = s.Benchmarks.make_input ~chars:2_000 in
      let build tiles = Exec.engines (Exec.build p tiles) in
      let engines = Array.concat (Array.to_list (Array.map build p.Mapper.arrays)) in
      let pass len =
        for sym = 0 to len - 1 do
          let c = String.unsafe_get input sym in
          for i = 0 to Array.length engines - 1 do
            ignore (Engine.step engines.(i) c)
          done
        done
      in
      let measure len =
        let w0 = Gc.minor_words () in
        pass len;
        Gc.minor_words () -. w0
      in
      let base = measure 0 in
      let words = measure (String.length input) -. base in
      check (float 0.) (name ^ ": minor words over the first 2k symbols") 0. words)
    [ "Snort"; "Yara"; "ClamAV"; "Suricata" ]

(* The whole per-symbol path, [Exec.step] and the energy counter,
   allocates nothing once a first pass has filled the counter's keys:
   a second pass over the same input, continuing the state, is measured
   against a 0-symbol pass, as [bench sim]'s exec_path probe counts it. *)
let test_exec_step_and_counter_allocation_free () =
  List.iter
    (fun name ->
      let s = Benchmarks.by_name name in
      let units, _ = Runner.compile_for rap ~params s.Benchmarks.regexes in
      let p = Runner.place rap ~params units in
      let input = s.Benchmarks.make_input ~chars:4_000 in
      let execs = Array.map (Exec.build p) p.Mapper.arrays in
      let counts = Array.map (fun _ -> Cost.counter ()) execs in
      let pass len =
        for i = 0 to Array.length execs - 1 do
          let ex = execs.(i) and c = counts.(i) in
          for sym = 0 to len - 1 do
            Cost.count c (Exec.step rap ex ~sym (String.unsafe_get input sym))
          done
        done
      in
      pass (String.length input);
      let measure len =
        let w0 = Gc.minor_words () in
        pass len;
        Gc.minor_words () -. w0
      in
      let base = measure 0 in
      let words = measure (String.length input) -. base in
      check (float 0.) (name ^ ": minor words over a second 4k-symbol pass") 0. words)
    [ "Snort"; "Yara"; "ClamAV"; "Suricata" ]

(* The stream driver allocates per chunk, not per symbol: chunk copies
   and per-chunk closures come to a fraction of a word per symbol at
   1 KiB chunks, while one boxed value per symbol would add at least 2.
   Fixed per-run costs (building the arrays, the report) cancel in the
   difference between a 64 KiB and a 32 KiB run. *)
let test_driver_allocation_per_chunk () =
  List.iter
    (fun name ->
      let s = Benchmarks.by_name name in
      let units, _ = Runner.compile_for rap ~params s.Benchmarks.regexes in
      let p = Runner.place rap ~params units in
      let input = s.Benchmarks.make_input ~chars:65_536 in
      let run len =
        let stream = Input_stream.of_string ~chunk:1024 (String.sub input 0 len) in
        let w0 = Gc.minor_words () in
        ignore (Runner.run_stream ~jobs:1 rap ~params p ~stream);
        Gc.minor_words () -. w0
      in
      ignore (run 4096);
      let short = run 32_768 in
      let per_sym = (run 65_536 -. short) /. 32_768. in
      check bool
        (Printf.sprintf "%s: %.3f minor words per symbol <= 0.5" name per_sym)
        true (per_sym <= 0.5))
    [ "Snort"; "ClamAV"; "Yara" ]

(* Counted energy is the per-symbol model summed.  On four suites and
   the four architectures, every category and every mode of a run's
   report is within 1e-9, relative, of the sum of [Cost.of_events] over
   its symbols, array by array, as the per-symbol accounting summed it
   before energy was counted.  Returns the largest relative gap. *)
let counted_vs_per_symbol ~chars =
  let worst = ref 0. in
  List.iter
    (fun name ->
      let s = Benchmarks.by_name name in
      let input = s.Benchmarks.make_input ~chars in
      List.iter
        (fun (arch : Arch.t) ->
          let units, _ = Runner.compile_for arch ~params s.Benchmarks.regexes in
          let p = Runner.place arch ~params units in
          let n = Array.length p.Mapper.arrays in
          let cat = Array.make_matrix n Cost.num_categories 0. in
          let mode = Array.make_matrix n Cost.num_modes 0. in
          let add row pjs = Array.iteri (fun k pj -> row.(k) <- row.(k) +. pj) pjs in
          let spec =
            {
              Sink.name = "per-symbol";
              make =
                (fun ~array_id ~chars:_ ->
                  Sink.events_only (fun ev ->
                      let c = Cost.of_events arch ev in
                      add cat.(array_id) c.Cost.cat_pj;
                      add mode.(array_id) c.Cost.mode_pj));
            }
          in
          let r = Runner.run ~sinks:[ spec ] arch ~params p ~input in
          let sum rows k = Array.fold_left (fun acc row -> acc +. row.(k)) 0. rows in
          let close what want got =
            let gap = Float.abs (want -. got) in
            if gap > 1e-9 *. Float.abs want then
              failf "%s on %s, %s: counted %.17g, per-symbol %.17g" name
                (Arch.kind_name arch.Arch.kind) what got want;
            if want <> 0. then worst := Float.max !worst (gap /. Float.abs want)
          in
          check bool (name ^ ": energy spent") true (Energy.total_pj r.Runner.energy > 0.);
          List.iter
            (fun c ->
              close (Energy.category_name c) (sum cat (Energy.index c)) (Energy.get_pj r.Runner.energy c))
            Energy.all_categories;
          List.iter
            (fun (m, pj) -> close "a mode" (sum mode (Cost.mode_index m)) pj)
            r.Runner.mode_energy_pj)
        [ rap; Arch.cama; Arch.ca; Arch.bvap ])
    [ "Snort"; "ClamAV"; "Yara"; "Suricata" ];
  !worst

let test_counted_energy_equals_per_symbol () = ignore (counted_vs_per_symbol ~chars:3_000)

(* Satellite: run_regexes surfaces what the architecture rejects. *)
let test_run_regexes_surfaces_errors () =
  let big = String.concat "|" (List.init 400 (fun i -> Printf.sprintf "verylongword%06d" i)) in
  let regexes = [ ("ok", parse "abc"); (big, parse big) ] in
  let r, errors = Runner.run_regexes Arch.cama ~params regexes ~input:"xxabcxx" in
  check bool "surviving rule still matches" true (r.Runner.match_reports > 0);
  check int "oversize rule surfaced" 1 (List.length errors);
  check string "error names the rule" big (List.hd errors).Compile_error.source;
  (* a fully valid set reports none *)
  let _, none = Runner.run_regexes rap ~params [ ("ok", parse "abc") ] ~input:"abc" in
  check int "no spurious errors" 0 (List.length none)

let suite =
  [
    test_case "sequential = parallel, bit for bit" `Quick test_seq_parallel_bit_identical;
    test_case "scheduler coverage and exceptions" `Quick test_scheduler_covers_and_propagates;
    test_case "single-pass stall trace = reference" `Quick
      test_stall_trace_single_pass_matches_reference;
    test_case "trace sink CSV golden" `Quick test_trace_sink_csv_golden;
    test_case "trace sink JSON well-formed" `Quick test_trace_sink_json_well_formed;
    test_case "NBVA kernel swap bit-identity (jobs 1 and 4)" `Quick test_kernel_swap_bit_identical;
    test_case "idle fast path = reference path, event by event" `Quick
      test_idle_fast_path_lockstep;
    QCheck_alcotest.to_alcotest prop_cost_tables_exact;
    test_case "state_bits flip coverage" `Quick test_state_bits_flip_coverage;
    test_case "building an array compiles nothing" `Quick test_build_shares_executors;
    test_case "Engine.step allocates nothing from the first symbol" `Quick
      test_engine_step_allocation_free;
    test_case "Exec.step and the energy counter allocate nothing per symbol" `Quick
      test_exec_step_and_counter_allocation_free;
    test_case "stream driver allocates per chunk, not per symbol" `Slow
      test_driver_allocation_per_chunk;
    test_case "run_regexes surfaces compile errors" `Quick test_run_regexes_surfaces_errors;
    test_case "counted energy = per-symbol energy, four suites x four architectures" `Quick
      test_counted_energy_equals_per_symbol;
  ]
