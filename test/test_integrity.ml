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
    (Runner.render_report healed)

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

(* A cleared [wake] byte makes an idle engine sleep through a byte that
   should start a match.  The sink clears, once, every [wake] entry for
   'x' well before the input's "xyzzzw" bursts: without integrity the
   run silently loses matches; a continuous-config run must detect the
   corruption and heal to the fault-free report. *)
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
  check bool "unchecked, the sleeping engine loses matches" true
    (unchecked.Runner.match_reports < baseline.Runner.match_reports);
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
  ]
