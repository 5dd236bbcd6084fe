(* Online integrity layer: seals over compiled tables, the per-symbol
   digest sentinel, rollback re-execution, quarantine, checkpoint-skip,
   and the chaos harness gates.  The load-bearing properties: a clean
   armed run is bit-identical to an unarmed one with zero trips, and an
   injected flip is either healed back to the bit-identical report or
   surfaced as a typed degradation — never a silent wrong answer. *)

open Alcotest

let params = Program.default_params
let rap = Arch.rap ~bv_depth:params.Program.bv_depth
let rules = [ "ab{3,10}c"; "evil.{0,8}sig"; "x[yz]{3,9}w" ]
let parsed rules = List.map (fun src -> (src, Parser.parse_exn src)) rules

let placement rules =
  let units, errs = Runner.compile_for rap ~params (parsed rules) in
  check int "rules compile" 0 (List.length errs);
  Runner.place rap ~params units

(* 'a'-heavy printable noise: keeps the bounded-repetition counters of
   [ab{3,10}c] churning, which is exactly the state whose corruption is
   transient (it expires within a few symbols). *)
let noise ?(seed = 11) n =
  let r = Fault.make_rng seed in
  String.init n (fun _ ->
      if Fault.rand_float r < 0.85 then 'a' else Char.chr (32 + Fault.rand_int r 95))

let input = noise 6_000

let quiet_config () =
  {
    (Integrity.continuous_config ()) with
    Integrity.sweep_every = 0;
    sentinel_every = 0;
    stats = Integrity.stats_create ();
  }

(* ------------------------------------------------------------------ *)

let test_clean_run_identical () =
  let p = placement rules in
  let plain = Runner.run rap ~params p ~input in
  let cfg = Integrity.continuous_config () in
  let armed = Runner.run ~integrity:cfg rap ~params p ~input in
  check string "armed report bit-identical" (Runner.render_report plain)
    (Runner.render_report armed);
  check int "no degraded arrays" 0 (List.length armed.Runner.degraded);
  let s = cfg.Integrity.stats in
  check int "no detections" 0 (Integrity.detections s);
  check int "no heals" 0 s.Integrity.heals;
  check int "no quarantines" 0 s.Integrity.quarantines;
  check bool "sweeps actually ran" true (s.Integrity.sweeps > 0);
  check bool "sentinel windows actually ran" true (s.Integrity.sentinel_checks > 0)

(* The detector cadence, pinned.  A window opens at the first symbol at
   or after the array's due symbol, runs [sentinel_window] symbols or to
   the chunk end, and the next one is due [sentinel_every] after the
   window start; a sweep runs at the first chunk end past its due symbol.
   Each row is (chunk, sentinel_every, sentinel_window, sweep_every,
   windows, sweeps); the counts are recorded runs, not derived here, so
   a change to the rule fails.  The grid has many windows per 4096-symbol
   chunk, windows cut short by 333-symbol chunk ends (at 100/64:
   300..332), windows longer than their cadence, sweeps every chunk and
   sweeps off.  A moved, dropped or doubled window changes a count; a
   window that steps differently changes the report.  The Yara rows run
   three arrays on two domains, each keeping its own due symbols. *)
let test_cadence_pinned () =
  let pinned ~jobs p input rows =
    let plain = Runner.render_report (Runner.run rap ~params p ~input) in
    List.iter
      (fun (chunk, sentinel_every, sentinel_window, sweep_every, windows, sweeps) ->
        let label =
          Printf.sprintf "%d arrays, chunk %d, sentinel %d/%d, sweep %d"
            (Array.length p.Mapper.arrays) chunk sentinel_every sentinel_window sweep_every
        in
        let cfg =
          {
            (Integrity.default_config ()) with
            Integrity.sweep_every;
            sentinel_every;
            sentinel_window;
          }
        in
        let stream = Input_stream.of_string ~chunk input in
        let armed = Runner.run_stream ~jobs ~integrity:cfg rap ~params p ~stream in
        check string (label ^ ": report") plain (Runner.render_report armed);
        check int (label ^ ": sentinel windows") windows
          cfg.Integrity.stats.Integrity.sentinel_checks;
        check int (label ^ ": sweeps") sweeps cfg.Integrity.stats.Integrity.sweeps)
      rows
  in
  let yara = Benchmarks.by_name "Yara" in
  let units, _ = Runner.compile_for rap ~params yara.Benchmarks.regexes in
  pinned ~jobs:2 (Runner.place rap ~params units)
    (yara.Benchmarks.make_input ~chars:4000)
    [ (333, 100, 64, 1, 120, 39); (4096, 50, 80, 0, 150, 0); (333, 1000, 200, 700, 12, 12) ];
  pinned ~jobs:1 (placement rules) input
    [
      (333, 100, 64, 1, 60, 19);
      (333, 100, 64, 0, 60, 0);
      (333, 100, 64, 700, 60, 6);
      (333, 64, 64, 1, 94, 19);
      (333, 64, 64, 0, 94, 0);
      (333, 64, 64, 700, 94, 6);
      (333, 50, 80, 1, 82, 19);
      (333, 50, 80, 0, 82, 0);
      (333, 50, 80, 700, 82, 6);
      (333, 1000, 200, 1, 6, 19);
      (333, 1000, 200, 0, 6, 0);
      (333, 1000, 200, 700, 6, 6);
      (4096, 100, 64, 1, 60, 2);
      (4096, 100, 64, 0, 60, 0);
      (4096, 100, 64, 700, 60, 2);
      (4096, 64, 64, 1, 94, 2);
      (4096, 64, 64, 0, 94, 0);
      (4096, 64, 64, 700, 94, 2);
      (4096, 50, 80, 1, 76, 2);
      (4096, 50, 80, 0, 76, 0);
      (4096, 50, 80, 700, 76, 2);
      (4096, 1000, 200, 1, 6, 2);
      (4096, 1000, 200, 0, 6, 0);
      (4096, 1000, 200, 700, 6, 2);
    ]

let test_state_digest_sensitivity () =
  let p = placement rules in
  let ex = Exec.build p p.Mapper.arrays.(0) in
  let e =
    match Array.find_opt (fun e -> Engine.state_bits e > 0) (Exec.engines ex) with
    | Some e -> e
    | None -> fail "no engine with flippable state"
  in
  for _ = 1 to 40 do
    ignore (Engine.step e 'a')
  done;
  let d0 = Engine.state_digest e 0 in
  check int "digest is deterministic" d0 (Engine.state_digest e 0);
  let bit = Engine.state_bits e / 2 in
  Engine.flip_state_bit e bit;
  let d1 = Engine.state_digest e 0 in
  check bool "any flipped state bit changes the digest" true (d0 <> d1);
  Engine.flip_state_bit e bit;
  check int "flip is an involution on the digest" d0 (Engine.state_digest e 0)

let test_seal_check_repair_roundtrip () =
  let p = placement rules in
  let ex = Exec.build p p.Mapper.arrays.(0) in
  let engines = Exec.engines ex in
  let seal = Integrity.seal engines in
  let cfg = quiet_config () in
  Integrity.check cfg ~array_id:0 ~sym:0 seal engines;
  check int "pristine tables pass" 0 (Integrity.detections cfg.Integrity.stats);
  let region =
    match Array.to_list engines |> List.concat_map Engine.immutable_regions with
    | r :: _ -> r
    | [] -> fail "no sealed regions"
  in
  check bool "flip lands" true (Fault.flip_region_bit (Fault.make_rng 3) region);
  (try
     Integrity.check cfg ~array_id:0 ~sym:7 seal engines;
     fail "corrupted table passed the seal check"
   with Sim_error.Error (Sim_error.Integrity_violation { region = r; _ }) ->
     check string "names the region" (Engine.region_name region) r);
  check int "trip counted" 1 cfg.Integrity.stats.Integrity.crc_trips;
  check int "detection symbol recorded" 7 cfg.Integrity.stats.Integrity.last_detect_sym;
  Integrity.repair cfg seal engines;
  check bool "repair counted" true (cfg.Integrity.stats.Integrity.repairs > 0);
  Integrity.check cfg ~array_id:0 ~sym:8 seal engines;
  check int "repaired tables pass again" 1 (Integrity.detections cfg.Integrity.stats)

(* A one-shot transient state flip mid-window: the sentinel digest must
   catch it even after the corrupted counter has expired, and the heal
   must reproduce the fault-free report bit for bit. *)
let test_transient_flip_healed () =
  let p = placement rules in
  let baseline = Runner.run rap ~params p ~input in
  let fired = ref false in
  let spec =
    {
      Sink.name = "flip-once";
      make =
        (fun ~array_id:_ ~chars:_ ->
          {
            Sink.on_events = ignore;
            on_close = (fun ~cycles:_ -> ());
            on_state =
              Some
                (fun ~sym engines ->
                  if (not !fired) && sym = 300 then
                    match
                      Array.find_opt (fun e -> Engine.state_bits e > 0) engines
                    with
                    | Some e ->
                        fired := true;
                        Engine.flip_state_bit e (Engine.state_bits e - 1)
                    | None -> ());
          });
    }
  in
  let cfg = Integrity.continuous_config () in
  let healed = Runner.run ~sinks:[ spec ] ~integrity:cfg rap ~params p ~input in
  check bool "flip fired" true !fired;
  check bool "sentinel tripped" true (cfg.Integrity.stats.Integrity.sentinel_trips >= 1);
  check bool "healed" true (cfg.Integrity.stats.Integrity.heals >= 1);
  check int "no quarantine" 0 cfg.Integrity.stats.Integrity.quarantines;
  check string "healed report bit-identical to fault-free baseline"
    (Runner.render_report baseline)
    (Runner.render_report healed);
  (* to the last float bit: the heal rolled the energy counters back *)
  List.iter
    (fun c ->
      check (float 0.) ("healed " ^ Energy.category_name c)
        (Energy.get_pj baseline.Runner.energy c)
        (Energy.get_pj healed.Runner.energy c))
    Energy.all_categories;
  check bool "healed mode energy bit-identical" true
    (baseline.Runner.mode_energy_pj = healed.Runner.mode_energy_pj)

(* Persistent corruption the heal cannot outrun: the sink re-flips on
   every attempt, so after [max_repairs] heals the array is quarantined
   with a typed violation — degraded, never silently wrong. *)
let test_persistent_corruption_quarantines () =
  let p = placement rules in
  let spec =
    {
      Sink.name = "flip-always";
      make =
        (fun ~array_id:_ ~chars:_ ->
          {
            Sink.on_events = ignore;
            on_close = (fun ~cycles:_ -> ());
            on_state =
              Some
                (fun ~sym engines ->
                  if sym land 63 = 0 then
                    Array.iter
                      (fun e ->
                        if Engine.state_bits e > 0 then Engine.flip_state_bit e 0)
                      engines);
          });
    }
  in
  let cfg = Integrity.continuous_config () in
  let r = Runner.run ~sinks:[ spec ] ~integrity:cfg rap ~params p ~input in
  check bool "quarantined" true (cfg.Integrity.stats.Integrity.quarantines >= 1);
  check bool "degraded surfaced" true (List.length r.Runner.degraded >= 1);
  check bool "degradation is typed as an integrity violation" true
    (List.exists
       (function Sim_error.Integrity_violation _ -> true | _ -> false)
       r.Runner.degraded)

(* A corrupted table must never be persisted: with sweeps and sentinel
   off, only the pre-checkpoint verification stands between the flip and
   the disk — the write is skipped, journalled, and tables repaired. *)
let test_checkpoint_skip_on_corruption () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rap-integrity-test-%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let p = placement rules in
  let fired = ref false in
  let spec =
    {
      Sink.name = "table-flip-once";
      make =
        (fun ~array_id ~chars:_ ->
          {
            Sink.on_events = ignore;
            on_close = (fun ~cycles:_ -> ());
            on_state =
              Some
                (fun ~sym engines ->
                  if (not !fired) && array_id = 0 && sym = 1_100 then
                    match Engine.immutable_regions engines.(0) with
                    | r :: _ -> fired := Fault.flip_region_bit (Fault.make_rng 5) r
                    | [] -> ());
          });
    }
  in
  let cfg = quiet_config () in
  let r =
    Runner.run_stream ~sinks:[ spec ] ~integrity:cfg rap ~params p
      ~checkpoint:{ Checkpoint.dir; every = 2_048 }
      ~stream:(Input_stream.of_string ~chunk:1_024 input)
  in
  check bool "flip fired" true !fired;
  check bool "pre-checkpoint verification tripped" true
    (cfg.Integrity.stats.Integrity.crc_trips >= 1);
  check bool "tables repaired for the rest of the run" true
    (cfg.Integrity.stats.Integrity.repairs >= 1);
  let journal =
    In_channel.with_open_text (Checkpoint.journal_path ~dir) In_channel.input_all
  in
  check bool "skip journalled" true
    (Astring_contains.contains journal "integrity checkpoint-skip");
  check bool "a later clean checkpoint still landed" true
    (Astring_contains.contains journal "checkpoint symbols=");
  (match Checkpoint.load ~dir with
  | Ok (Some ck) ->
      check bool "persisted checkpoint is from a clean barrier" true
        (ck.Checkpoint.ck_symbols > 0)
  | Ok None -> fail "no checkpoint persisted"
  | Error e -> fail (Sim_error.message e));
  check int "run completed all input" (String.length input) r.Runner.chars

(* A plan's [wake] bytes are read only when an array is built, to
   derive its wake table, so clearing them mid-run does not change that
   run.  The sink clears, once, every [wake] entry for 'x' well before
   the input's "xyzzzw" bursts: without integrity the report is the
   fault-free one; a continuous-config run must still detect the
   corruption of the sealed table, heal it and keep the fault-free
   report.  The array wake-table test below covers a wake corruption
   that loses matches. *)
let test_wake_corruption_healed () =
  let input = String.concat "" (List.init 8 (fun i -> noise ~seed:(40 + i) 700 ^ "xyzzzw")) in
  let clear_wake fired =
    {
      Sink.name = "wake-clear-once";
      make =
        (fun ~array_id:_ ~chars:_ ->
          {
            Sink.on_events = ignore;
            on_close = (fun ~cycles:_ -> ());
            on_state =
              Some
                (fun ~sym engines ->
                  if (not !fired) && sym = 1_000 then
                    Array.iter
                      (fun e ->
                        List.iter
                          (function
                            | Engine.R_bytes ("wake", b) when Bytes.get b (Char.code 'x') <> '\000'
                              ->
                                Bytes.set b (Char.code 'x') '\000';
                                fired := true
                            | _ -> ())
                          (Engine.immutable_regions e))
                      engines);
          });
    }
  in
  (* each run compiles its own placement: the corruption outlives the
     unchecked run in the tables it hit *)
  let baseline = Runner.run rap ~params (placement rules) ~input in
  let fired = ref false in
  let unchecked = Runner.run ~sinks:[ clear_wake fired ] rap ~params (placement rules) ~input in
  check bool "the flip landed" true !fired;
  check string "unchecked, the report is byte-identical to the baseline"
    (Runner.render_report baseline) (Runner.render_report unchecked);
  let fired = ref false in
  let cfg = Integrity.continuous_config () in
  let healed =
    Runner.run ~sinks:[ clear_wake fired ] ~integrity:cfg rap ~params (placement rules) ~input
  in
  check bool "the flip landed again" true !fired;
  let st = cfg.Integrity.stats in
  check bool "detected" true (Integrity.detections st >= 1);
  check bool "healed" true (st.Integrity.heals >= 1);
  check int "no quarantine" 0 st.Integrity.quarantines;
  check string "healed report bit-identical to fault-free baseline"
    (Runner.render_report baseline) (Runner.render_report healed)

(* The array's byte-to-engines wake table decides which asleep engines
   see a byte at all.  The sink clears, once, the bit of the engine that
   'x' wakes, well before the input's "xyzzzw" bursts: unchecked, that
   engine sleeps through them and the run loses matches.  Under the
   continuous config the heal must give the fault-free report; with the
   sentinel off as well, only the seal over the table can see the
   corruption, so the sweep must be what trips. *)
let test_array_wake_table_healed () =
  let input = String.concat "" (List.init 8 (fun i -> noise ~seed:(40 + i) 700 ^ "xyzzzw")) in
  let clear_x fired =
    {
      Sink.name = "array-wake-clear-once";
      make =
        (fun ~array_id:_ ~chars:_ ->
          {
            Sink.on_events = ignore;
            on_close = (fun ~cycles:_ -> ());
            on_state =
              Some
                (fun ~sym engines ->
                  if (not !fired) && sym = 1_000 && Array.length engines > 0 then
                    List.iter
                      (function
                        | Engine.R_words ("array_wake", tbl) ->
                            let nw = Array.length tbl / 256 in
                            let row = Char.code 'x' * nw in
                            let w = ref 0 in
                            while (not !fired) && !w < nw do
                              let bits = tbl.(row + !w) in
                              if bits <> 0 then begin
                                tbl.(row + !w) <- bits land (bits - 1);
                                fired := true
                              end;
                              incr w
                            done
                        | _ -> ())
                      (Engine.array_regions engines.(0)));
          });
    }
  in
  let p = placement rules in
  let baseline = Runner.run rap ~params p ~input in
  let fired = ref false in
  let unchecked = Runner.run ~sinks:[ clear_x fired ] rap ~params p ~input in
  check bool "the bit was cleared" true !fired;
  check bool "unchecked, the engine 'x' wakes loses matches" true
    (unchecked.Runner.match_reports < baseline.Runner.match_reports);
  List.iter
    (fun (label, cfg) ->
      let fired = ref false in
      let healed = Runner.run ~sinks:[ clear_x fired ] ~integrity:cfg rap ~params p ~input in
      check bool (label ^ ": the bit was cleared again") true !fired;
      let st = cfg.Integrity.stats in
      check bool (label ^ ": detected") true (Integrity.detections st >= 1);
      check bool (label ^ ": healed") true (st.Integrity.heals >= 1);
      check int (label ^ ": no quarantine") 0 st.Integrity.quarantines;
      if cfg.Integrity.sentinel_every = 0 then
        check bool (label ^ ": the seal over the table trips") true (st.Integrity.crc_trips >= 1);
      check string
        (label ^ ": healed report bit-identical to fault-free baseline")
        (Runner.render_report baseline) (Runner.render_report healed))
    [
      ("continuous", Integrity.continuous_config ());
      ("sweeps only", { (Integrity.continuous_config ()) with Integrity.sentinel_every = 0 });
    ]

(* A record the fast path keeps across steps must not outlive a table
   repair.  On lowercase input the star state of [[a-z]*X] is active on
   every symbol and never changes, so its engine keeps one event record
   from step to step.  [final_flip] sets that state's bit in the final
   row of [masks] once, at symbol 1500: the row is the one word equal to
   the X state's bit, shared with the X label, and the input holds no X.
   The '.' at symbol 1600 puts the engine to sleep, and the next letter
   wakes it with a fresh projection, so from there on the flip shows in
   the report even without integrity checks. *)
let star_rules = [ "[a-z]*X" ]

let star_input =
  let r = Fault.make_rng 3 in
  String.init 4_000 (fun i -> if i = 1_600 then '.' else Char.chr (97 + Fault.rand_int r 26))

let star_stream () = Input_stream.of_string ~chunk:1_024 star_input

let final_flip fired =
  {
    Sink.name = "final-row-flip-once";
    make =
      (fun ~array_id:_ ~chars:_ ->
        {
          Sink.on_events = ignore;
          on_close = (fun ~cycles:_ -> ());
          on_state =
            Some
              (fun ~sym engines ->
                if (not !fired) && sym = 1_500 then
                  Array.iter
                    (fun e ->
                      List.iter
                        (function
                          | Engine.R_words ("masks", m) ->
                              Array.iteri
                                (fun i w ->
                                  if w = 0b10 then begin
                                    m.(i) <- 0b11;
                                    fired := true
                                  end)
                                m
                          | _ -> ())
                        (Engine.immutable_regions e))
                    engines);
        });
  }

(* The sweep at the end of the flip's chunk trips; the heal rolls back
   to the chunk start, where the star state is already active, repairs
   the tables and re-runs the chunk.  The re-run must project from the
   repaired tables, not keep a record projected from corrupted ones. *)
let test_final_row_flip_healed () =
  let baseline = Runner.run_stream rap ~params (placement star_rules) ~stream:(star_stream ()) in
  check int "the input holds no match" 0 baseline.Runner.match_reports;
  (* each run compiles its own placement: the flip outlives the
     unchecked run in the tables it hit *)
  let fired = ref false in
  let unchecked =
    Runner.run_stream ~sinks:[ final_flip fired ] rap ~params (placement star_rules)
      ~stream:(star_stream ())
  in
  check bool "the flip landed" true !fired;
  check bool "unchecked, the star state reports" true (unchecked.Runner.match_reports > 0);
  let fired = ref false in
  let cfg = Integrity.continuous_config () in
  let healed =
    Runner.run_stream ~sinks:[ final_flip fired ] ~integrity:cfg rap ~params
      (placement star_rules) ~stream:(star_stream ())
  in
  check bool "the flip landed again" true !fired;
  let st = cfg.Integrity.stats in
  check bool "the sweep trips" true (st.Integrity.crc_trips >= 1);
  check bool "healed" true (st.Integrity.heals >= 1);
  check int "no quarantine" 0 st.Integrity.quarantines;
  check string "healed report bit-identical to fault-free baseline"
    (Runner.render_report baseline) (Runner.render_report healed)

(* With sweeps and the sentinel off, only the verification before the
   checkpoint at symbol 2048 sees the flip.  It repairs the tables but
   does not re-run anything, so the reports between the wake at 1601
   and the checkpoint stay; from the checkpoint on, the star state's
   record must come from the repaired tables again. *)
let test_final_row_flip_repaired_at_checkpoint () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rap-integrity-final-row-%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let before = ref 0 and after = ref 0 in
  let tally =
    {
      Sink.name = "reports-around-checkpoint";
      make =
        (fun ~array_id:_ ~chars:_ ->
          {
            Sink.on_events =
              (fun ev ->
                if ev.Exec.sym < 2_048 then before := !before + ev.Exec.reports
                else after := !after + ev.Exec.reports);
            on_close = (fun ~cycles:_ -> ());
            on_state = None;
          });
    }
  in
  let fired = ref false in
  let cfg = quiet_config () in
  let r =
    Runner.run_stream ~sinks:[ final_flip fired; tally ] ~integrity:cfg rap ~params
      (placement star_rules)
      ~checkpoint:{ Checkpoint.dir; every = 2_048 }
      ~stream:(star_stream ())
  in
  check bool "the flip landed" true !fired;
  check bool "pre-checkpoint verification tripped" true
    (cfg.Integrity.stats.Integrity.crc_trips >= 1);
  check bool "tables repaired" true (cfg.Integrity.stats.Integrity.repairs >= 1);
  check bool "before the checkpoint, the flip shows" true (!before > 0);
  check int "from the checkpoint on, no report" 0 !after;
  check int "run completed all input" (String.length star_input) r.Runner.chars

let test_chaos_gates () =
  let config = { Fault.c_seed = 5; c_trials = 6; c_chunk = 1_024; c_table_share = 0.5 } in
  match Fault.chaos ~arch:rap ~params ~config (parsed rules) ~input:(noise 4_000) with
  | Error e -> fail e
  | Ok o ->
      check int "every trial injected" config.Fault.c_trials (Fault.chaos_injected o);
      check int "zero silent wrong" 0 (Fault.chaos_silent_wrong o);
      check bool "detection gate" true (Fault.chaos_detection_ok o);
      check bool "recovery gate" true (Fault.chaos_recovery_ok o);
      check int "no compile errors" 0 (List.length o.Fault.co_compile_errors)

let test_chaos_deterministic () =
  let config = { Fault.c_seed = 9; c_trials = 4; c_chunk = 1_024; c_table_share = 0.5 } in
  let strip (o : Fault.chaos_outcome) =
    List.map
      (fun (t : Fault.chaos_trial) ->
        ( t.Fault.c_target,
          t.Fault.c_inject_sym,
          t.Fault.c_detect_sym,
          t.Fault.c_heals,
          t.Fault.c_recovered,
          t.Fault.c_silent_wrong ))
      o.Fault.co_trials
  in
  let run () =
    match Fault.chaos ~arch:rap ~params ~config (parsed rules) ~input:(noise 3_000) with
    | Error e -> fail e
    | Ok o -> o
  in
  check bool "same seed, same trials" true (strip (run ()) = strip (run ()))

let suite =
  [
    test_case "clean armed run: bit-identical, zero trips" `Quick test_clean_run_identical;
    test_case "sentinel and sweep cadence pinned" `Quick test_cadence_pinned;
    test_case "state digest: sensitive to any flipped bit" `Quick test_state_digest_sensitivity;
    test_case "seal/check/repair round trip" `Quick test_seal_check_repair_roundtrip;
    test_case "transient state flip: detected and healed bit-identically" `Slow
      test_transient_flip_healed;
    test_case "persistent corruption: typed quarantine, not silence" `Slow
      test_persistent_corruption_quarantines;
    test_case "checkpoint write skipped on corrupt tables" `Quick
      test_checkpoint_skip_on_corruption;
    test_case "chaos campaign passes its own gates" `Slow test_chaos_gates;
    test_case "chaos campaign is deterministic in its seed" `Slow test_chaos_deterministic;
    test_case "cleared wake byte: detected and healed bit-identically" `Quick
      test_wake_corruption_healed;
    test_case "cleared array wake-table bit: sealed, detected and healed" `Quick
      test_array_wake_table_healed;
    test_case "final-row flip under a kept record: healed bit-identically" `Quick
      test_final_row_flip_healed;
    test_case "final-row flip under a kept record: repaired at the checkpoint" `Quick
      test_final_row_flip_repaired_at_checkpoint;
  ]
