(* Fault model: deterministic PRNG, defect-aware mapping, campaigns. *)

open Alcotest

let params = Program.default_params
let parse = Parser.parse_exn
let arch () = Arch.rap ~bv_depth:params.Program.bv_depth

let rules = [ "ab{3,10}c"; "(wget|curl).*http"; "user=root" ]
let parsed () = List.map (fun s -> (s, parse s)) rules
let input = "abbbbc wget http user=root abbbbbbbbbbbc curl https"

(* The fault-free run a campaign's baseline must reproduce, and the
   rules the architecture rejected. *)
let fault_free () =
  let units, errors = Runner.compile_for (arch ()) ~params (parsed ()) in
  (Runner.run (arch ()) ~params (Runner.place (arch ()) ~params units) ~input, errors)

let run_campaign config =
  match Fault.campaign ~arch:(arch ()) ~params ~config (parsed ()) ~input with
  | Ok o -> o
  | Error e -> fail e

let test_prng_deterministic () =
  let stream seed n =
    let r = Fault.make_rng seed in
    List.init n (fun _ -> Fault.rand_float r)
  in
  check bool "same seed, same stream" true (stream 42 16 = stream 42 16);
  check bool "different seed, different stream" true (stream 42 16 <> stream 43 16);
  List.iter
    (fun x -> check bool "in [0,1)" true (x >= 0. && x < 1.))
    (stream 7 1000);
  let r = Fault.make_rng 5 in
  for _ = 1 to 1000 do
    let k = Fault.rand_int r 10 in
    check bool "rand_int range" true (k >= 0 && k < 10)
  done

let test_zero_rate_bit_identical () =
  (* a zero-rate, zero-defect campaign must reproduce the fault-free run *)
  let baseline, errs = fault_free () in
  check int "compile_for surfaces no errors" 0 (List.length errs);
  let o = run_campaign { Fault.default_config with Fault.trials = 3 } in
  check bool "baseline report identical" true (o.Fault.o_baseline = baseline);
  check bool "degraded = baseline on pristine chip" true (o.Fault.o_degraded = baseline);
  check int "no compile errors" 0 (List.length o.Fault.o_compile_errors);
  check int "no drops" 0 (List.length (o.Fault.o_baseline_drops @ o.Fault.o_drops));
  check int "three trials" 3 (List.length o.Fault.o_trials);
  List.iter
    (fun (t : Fault.trial) ->
      check int "no flips" 0 t.Fault.t_flips;
      check int "no missed" 0 t.Fault.t_missed;
      check int "no false" 0 t.Fault.t_false;
      check int "same cycles" baseline.Runner.cycles t.Fault.t_cycles;
      check int "same reports" baseline.Runner.match_reports t.Fault.t_reports)
    o.Fault.o_trials;
  check (float 1e-9) "correctness 1" 1. (Fault.correctness_rate o);
  check (float 1e-9) "no utilisation loss" 0. (Fault.utilisation_loss o)

let noisy_config =
  {
    Fault.default_config with
    Fault.seed = 9;
    trials = 4;
    transient_rate = 0.005;
    cell_defect_rate = 0.02;
    tile_defect_rate = 0.05;
    switch_defect_rate = 0.005;
    chip_arrays = 4;
  }

let test_campaign_reproducible () =
  let o1 = run_campaign noisy_config and o2 = run_campaign noisy_config in
  check bool "same trials" true (o1.Fault.o_trials = o2.Fault.o_trials);
  check bool "same defect stats" true (o1.Fault.o_defect_stats = o2.Fault.o_defect_stats);
  let show o = Format.asprintf "%a" Fault.pp_outcome o in
  check string "same rendered outcome" (show o1) (show o2);
  let o3 = run_campaign { noisy_config with Fault.seed = 10 } in
  check bool "different seed, different trials" true (o1.Fault.o_trials <> o3.Fault.o_trials)

let compile_units () =
  let compiled, errors = Runner.compile_for (arch ()) ~params (parsed ()) in
  check int "all rules compile" 0 (List.length errors);
  compiled

let test_dead_tile_never_placed () =
  let dead = [ (0, 0); (0, 1); (0, 5); (1, 2) ] in
  let defects = Defect.create ~chip_arrays:4 ~dead_tiles:dead () in
  let placement, drops, stats =
    Runner.place_result ~defects (arch ()) ~params (compile_units ())
  in
  check int "nothing dropped" 0 (List.length drops);
  Array.iteri
    (fun array_id tiles ->
      Array.iter
        (fun (t : Mapper.placed_tile) ->
          check bool
            (Printf.sprintf "tile (%d,%d) not dead" array_id t.Mapper.phys)
            false
            (Defect.is_dead_tile defects ~array_id ~tile:t.Mapper.phys))
        tiles)
    placement.Mapper.arrays;
  check bool "skipped dead tiles counted" true (stats.Mapper.dead_tiles_skipped > 0);
  (* the degraded placement still simulates and matches *)
  let r = Runner.run (arch ()) ~params placement ~input in
  let pristine, _ = fault_free () in
  check int "same reports as pristine" pristine.Runner.match_reports r.Runner.match_reports

let test_spare_column_repair () =
  (* a few stuck CAM columns per tile, all within the spare pool: the
     placement must be exactly the pristine one *)
  let stuck =
    List.concat_map (fun t -> [ (0, t, 3); (0, t, 70); (0, t, 127) ]) (List.init 16 Fun.id)
  in
  let defects = Defect.create ~chip_arrays:4 ~spare_cols:4 ~stuck_cam_cols:stuck () in
  let units = compile_units () in
  let repaired, drops, stats = Runner.place_result ~defects (arch ()) ~params units in
  let pristine, _, _ = Runner.place_result ~defects:Defect.none (arch ()) ~params units in
  check int "nothing dropped" 0 (List.length drops);
  check bool "placement identical to pristine" true
    (repaired.Mapper.arrays = pristine.Mapper.arrays);
  check bool "repairs recorded" true (stats.Mapper.cols_repaired > 0);
  check int "no capacity lost" 0 stats.Mapper.cols_lost

let test_unplaceable_dropped_remainder_runs () =
  (* one surviving array of a 1-array chip is mostly dead: the big NFA rule
     no longer fits, but the small rules still run and match *)
  let dead = List.init 14 (fun t -> (0, t + 2)) in
  let defects = Defect.create ~chip_arrays:1 ~dead_tiles:dead () in
  let big = String.concat "|" (List.init 40 (fun i -> Printf.sprintf "longword%04d" i)) in
  let regexes = List.map (fun s -> (s, parse s)) [ big; "ab{3,10}c"; "user=root" ] in
  let compiled, errors = Runner.compile_for (arch ()) ~params regexes in
  check int "all compile" 0 (List.length errors);
  let placement, drops, _ = Runner.place_result ~defects (arch ()) ~params compiled in
  check bool "big rule dropped" true
    (List.exists
       (fun (e : Compile_error.t) ->
         e.Compile_error.source = big
         &&
         match e.Compile_error.reason with
         | Compile_error.Unplaceable _ | Compile_error.Resource_exhausted _ -> true
         | _ -> false)
       drops);
  check bool "small rules survive" true (Array.length placement.Mapper.units > 0);
  let r = Runner.run (arch ()) ~params placement ~input in
  check bool "remainder still matches" true (r.Runner.match_reports > 0)

let test_transient_flips_counted () =
  let config =
    { Fault.default_config with Fault.seed = 3; trials = 3; transient_rate = 0.01 }
  in
  let o = run_campaign config in
  List.iter
    (fun (t : Fault.trial) -> check bool "flips injected" true (t.Fault.t_flips > 0))
    o.Fault.o_trials;
  (* baseline stays fault-free even when trials flip bits *)
  let baseline, _ = fault_free () in
  check bool "baseline untouched" true (o.Fault.o_baseline = baseline)

let suite =
  [
    test_case "splitmix64 determinism" `Quick test_prng_deterministic;
    test_case "zero-rate campaign = fault-free run" `Quick test_zero_rate_bit_identical;
    test_case "seeded campaigns reproducible" `Quick test_campaign_reproducible;
    test_case "dead tiles never placed" `Quick test_dead_tile_never_placed;
    test_case "spare-column repair is free" `Quick test_spare_column_repair;
    test_case "unplaceable dropped, remainder runs" `Quick test_unplaceable_dropped_remainder_runs;
    test_case "transient flips counted" `Quick test_transient_flips_counted;
  ]
