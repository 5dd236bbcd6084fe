(* See fault.mli. *)

(* splitmix64: tiny, fast, and independent of Stdlib.Random so campaigns
   are reproducible regardless of what else the process randomises. *)
type rng = { mutable s : int64 }

let make_rng seed = { s = Int64.of_int seed }

let next_u64 r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rand_float r =
  (* top 53 bits -> [0,1) *)
  Int64.to_float (Int64.shift_right_logical (next_u64 r) 11) *. (1. /. 9007199254740992.)

let rand_int r n =
  if n <= 0 then invalid_arg "Fault.rand_int";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next_u64 r) 1) (Int64.of_int n))

type config = {
  seed : int;
  trials : int;
  transient_rate : float;
  cell_defect_rate : float;
  tile_defect_rate : float;
  switch_defect_rate : float;
  chip_arrays : int;
  spare_cols : int;
}

let default_config =
  {
    seed = 1;
    trials = 5;
    transient_rate = 0.;
    cell_defect_rate = 0.;
    tile_defect_rate = 0.;
    switch_defect_rate = 0.;
    chip_arrays = 64;
    spare_cols = Defect.default_spare_cols;
  }

(* Bernoulli-sample a chip's permanent defect map.  All-zero defect rates
   yield [Defect.none] (pristine, unbounded chip). *)
let sample_defects ~rng (c : config) =
  if c.cell_defect_rate <= 0. && c.tile_defect_rate <= 0. && c.switch_defect_rate <= 0. then
    Defect.none
  else begin
    let dead = ref [] and cam = ref [] and sw = ref [] in
    for a = 0 to c.chip_arrays - 1 do
      for t = 0 to Circuit.tiles_per_array - 1 do
        if rand_float rng < c.tile_defect_rate then dead := (a, t) :: !dead
        else begin
          for col = 0 to Circuit.tile_cam_cols - 1 do
            if rand_float rng < c.cell_defect_rate then cam := (a, t, col) :: !cam
          done;
          for row = 0 to Circuit.tile_cam_cols - 1 do
            if rand_float rng < c.switch_defect_rate then sw := (a, t, row) :: !sw
          done
        end
      done
    done;
    Defect.create ~chip_arrays:c.chip_arrays ~spare_cols:c.spare_cols ~dead_tiles:!dead
      ~stuck_cam_cols:!cam ~stuck_switch_rows:!sw ()
  end

(* Flip each stored state bit of each engine with probability [rate];
   returns the number of flips. *)
let inject ~rng ~rate engines =
  if rate <= 0. then 0
  else begin
    let flips = ref 0 in
    Array.iter
      (fun e ->
        let n = Engine.state_bits e in
        for i = 0 to n - 1 do
          if rand_float rng < rate then begin
            Engine.flip_state_bit e i;
            incr flips
          end
        done)
      engines;
    !flips
  end

type trial = {
  t_index : int;
  t_flips : int;
  t_missed : int;
  t_false : int;
  t_reports : int;
  t_cycles : int;
  t_throughput_gchs : float;
}

type outcome = {
  o_baseline : Runner.report;
  o_degraded : Runner.report;
  o_compile_errors : Compile_error.t list;
  o_baseline_drops : Compile_error.t list;
  o_drops : Compile_error.t list;
  o_defect_stats : Mapper.defect_stats;
  o_defects : Defect.t;
  o_trials : trial list;
  o_reference_matches : int;
}

let correctness_rate o =
  match o.o_trials with
  | [] -> 1.
  | ts ->
      let ok = List.length (List.filter (fun t -> t.t_missed = 0 && t.t_false = 0) ts) in
      float_of_int ok /. float_of_int (List.length ts)

let favg f o =
  match o.o_trials with
  | [] -> 0.
  | ts -> List.fold_left (fun acc t -> acc +. f t) 0. ts /. float_of_int (List.length ts)

let avg_missed = favg (fun t -> float_of_int t.t_missed)
let avg_false = favg (fun t -> float_of_int t.t_false)
let avg_throughput_gchs = favg (fun t -> t.t_throughput_gchs)

let utilisation_loss o =
  o.o_baseline.Runner.mapper_stats.Mapper.col_utilisation
  -. o.o_degraded.Runner.mapper_stats.Mapper.col_utilisation

(* Per-trial seed derivation: decorrelate trials without consuming the
   campaign stream. *)
let trial_seed seed i = seed lxor ((i + 1) * 0x9E3779B9)

let campaign ~arch ~params ~config regexes ~input =
  let compiled, compile_errors = Runner.compile_for arch ~params regexes in
  if compiled = [] then Error "no regex compiled"
  else begin
    let baseline_p, baseline_drops, _ =
      Runner.place_result ~defects:Defect.none arch ~params compiled
    in
    let baseline = Runner.run arch ~params baseline_p ~input in
    let defects = sample_defects ~rng:(make_rng config.seed) config in
    let degraded_p, drops, defect_stats =
      Runner.place_result ~defects arch ~params compiled
    in
    let degraded =
      if Defect.is_trivial defects then baseline else Runner.run arch ~params degraded_p ~input
    in
    (* software reference over the regexes that actually made it onto the
       (possibly degraded) chip *)
    let dropped_sources =
      List.map (fun (e : Compile_error.t) -> e.Compile_error.source) (baseline_drops @ drops)
    in
    let placed_sources =
      Array.to_list
        (Array.map (fun (c : Program.compiled) -> c.Program.source) degraded_p.Mapper.units)
    in
    let chars = String.length input in
    let reference = Array.make (Int.max 1 chars) false in
    List.iter
      (fun (source, ast) ->
        if List.mem source placed_sources && not (List.mem source dropped_sources) then
          List.iter (fun p -> reference.(p) <- true) (Nfa.match_ends (Glushkov.compile ast) input))
      regexes;
    let reference_matches =
      Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 reference
    in
    let run_trial i =
      let rng = make_rng (trial_seed config.seed i) in
      let hits = Array.make (Int.max 1 chars) false in
      let flips = ref 0 in
      (* one sink instance per array, all sharing the campaign rng and
         hit map: the run must stay sequential (jobs = 1, the default)
         so the rng consumption order is reproducible *)
      let fault_sink =
        {
          Sink.name = "fault";
          make =
            (fun ~array_id:_ ~chars:_ ->
              {
                Sink.on_events =
                  (fun ev -> if ev.Exec.reports > 0 then hits.(ev.Exec.sym) <- true);
                on_state =
                  Some
                    (fun ~sym:_ engines ->
                      flips := !flips + inject ~rng ~rate:config.transient_rate engines);
                on_close = (fun ~cycles:_ -> ());
              });
        }
      in
      let r = Runner.run ~sinks:[ fault_sink ] arch ~params degraded_p ~input in
      let missed = ref 0 and false_pos = ref 0 in
      for p = 0 to chars - 1 do
        if reference.(p) && not hits.(p) then incr missed;
        if hits.(p) && not reference.(p) then incr false_pos
      done;
      {
        t_index = i;
        t_flips = !flips;
        t_missed = !missed;
        t_false = !false_pos;
        t_reports = r.Runner.match_reports;
        t_cycles = r.Runner.cycles;
        t_throughput_gchs = r.Runner.throughput_gchs;
      }
    in
    let trials = List.init (Int.max 0 config.trials) run_trial in
    Ok
      {
        o_baseline = baseline;
        o_degraded = degraded;
        o_compile_errors = compile_errors;
        o_baseline_drops = baseline_drops;
        o_drops = drops;
        o_defect_stats = defect_stats;
        o_defects = defects;
        o_trials = trials;
        o_reference_matches = reference_matches;
      }
  end

(* ---- runtime chaos campaign ----

   Where [campaign] above models the paper's fault classes (permanent
   defects consumed by the mapper, per-cycle transient state flips), the
   chaos campaign attacks the {e runtime} itself and measures whether
   the integrity layer holds the line: one seeded bit flip per trial,
   landed either in an engine's stored run state or in the immutable
   compiled tables, against a run with wall-to-wall integrity checking.
   Every trial is classified from the outside — by byte-comparing the
   rendered report against the fault-free baseline — so the harness
   cannot be fooled by the layer it is testing. *)

type chaos_target = C_state | C_table

let chaos_target_name = function C_state -> "state" | C_table -> "table"

type chaos_config = {
  c_seed : int;
  c_trials : int;
  c_chunk : int;  (** Stream chunk size: the rollback/re-execution grain. *)
  c_table_share : float;  (** Fraction of trials that target compiled tables. *)
}

let default_chaos_config = { c_seed = 1; c_trials = 60; c_chunk = 1024; c_table_share = 0.4 }

let flip_region_bit rng region =
  match region with
  | Engine.R_words (_, a) when Array.length a > 0 ->
      let i = rand_int rng (Array.length a) in
      (* low 62 bits only: OCaml ints carry 63, and no kernel reads the
         sign bit of a mask word *)
      a.(i) <- a.(i) lxor (1 lsl rand_int rng 62);
      true
  | Engine.R_bytes (_, b) when Bytes.length b > 0 ->
      let i = rand_int rng (Bytes.length b) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl rand_int rng 8)));
      true
  | Engine.R_vecs (_, vs) when Array.length vs > 0 -> (
      let v = vs.(rand_int rng (Array.length vs)) in
      match Bitvec.width v with
      | 0 -> false
      | w ->
          let i = rand_int rng w in
          if Bitvec.get v i then Bitvec.reset v i else Bitvec.set v i;
          true)
  | _ -> false

type chaos_trial = {
  c_index : int;
  c_target : chaos_target;
  c_inject_sym : int;  (** Symbol the flip landed at; [-1] if it never fired. *)
  c_detect_sym : int;  (** Symbol of detection; [-1] undetected. *)
  c_heals : int;
  c_quarantined : bool;
  c_recovered : bool;  (** Detected and the report is byte-identical to baseline. *)
  c_degraded_typed : bool;  (** A typed [Integrity_violation] reached the report. *)
  c_silent_wrong : bool;  (** Undetected AND the report differs: the failure mode. *)
  c_wall_s : float;
}

type chaos_outcome = {
  co_baseline : Runner.report;
  co_baseline_wall_s : float;
  co_trials : chaos_trial list;
  co_compile_errors : Compile_error.t list;
}

let chaos_injected o = List.length (List.filter (fun t -> t.c_inject_sym >= 0) o.co_trials)
let chaos_detected o = List.length (List.filter (fun t -> t.c_detect_sym >= 0) o.co_trials)

let chaos_benign o =
  List.length
    (List.filter
       (fun t -> t.c_inject_sym >= 0 && t.c_detect_sym < 0 && not t.c_silent_wrong)
       o.co_trials)

let chaos_silent_wrong o = List.length (List.filter (fun t -> t.c_silent_wrong) o.co_trials)
let chaos_recovered o = List.length (List.filter (fun t -> t.c_recovered) o.co_trials)

let chaos_degraded_typed o =
  List.length (List.filter (fun t -> t.c_degraded_typed) o.co_trials)

let chaos_heals o = List.fold_left (fun acc t -> acc + t.c_heals) 0 o.co_trials
let chaos_quarantines o = List.length (List.filter (fun t -> t.c_quarantined) o.co_trials)

(* Detection rate over {e harmful} flips: a benign flip (undetected, yet
   provably output-identical to the baseline — e.g. killing a state the
   next symbol would have killed anyway) threatens nothing, so it is
   excluded from the denominator rather than counted as a miss. *)
let chaos_detection_rate o =
  let harmful = chaos_detected o + chaos_silent_wrong o in
  if harmful = 0 then 1. else float_of_int (chaos_detected o) /. float_of_int harmful

let chaos_detection_ok o = chaos_silent_wrong o = 0 && chaos_detection_rate o >= 0.99

(* Every detected fault must end recovered-bit-identical or typed-
   degraded; a detected fault with a silently different report would
   mean the heal machinery itself corrupted the run. *)
let chaos_recovery_ok o =
  chaos_silent_wrong o = 0
  && List.for_all
       (fun t -> t.c_detect_sym < 0 || t.c_recovered || t.c_degraded_typed)
       o.co_trials

let chaos_mttd_syms o =
  match List.filter (fun t -> t.c_detect_sym >= 0 && t.c_inject_sym >= 0) o.co_trials with
  | [] -> 0.
  | ts ->
      List.fold_left (fun acc t -> acc +. float_of_int (t.c_detect_sym - t.c_inject_sym)) 0. ts
      /. float_of_int (List.length ts)

let chaos_mttr_s o =
  match List.filter (fun t -> t.c_heals > 0) o.co_trials with
  | [] -> 0.
  | ts ->
      List.fold_left (fun acc t -> acc +. Float.max 0. (t.c_wall_s -. o.co_baseline_wall_s)) 0. ts
      /. float_of_int (List.length ts)

let chaos ~arch ~params ~config regexes ~input =
  let placement, compile_errors = Runner.prepare arch ~params regexes in
  if Array.length placement.Mapper.units = 0 then Error "no regex compiled"
  else if String.length input = 0 then Error "empty input"
  else begin
    let chars = String.length input in
    let num_arrays = Array.length placement.Mapper.arrays in
    (* Prepared and sealed once: every run clones these executors and
       reads the same physical tables, and every trial checks and heals
       against these seals.  An unconditional repair after each trial
       guarantees the next trial (and the baseline comparison) starts
       from clean tables even if a trial's own healing was exhausted. *)
    let prepared = Runner.build ~sealed:true placement in
    let camp_cfg = Integrity.continuous_config () in
    let run_once ?integrity ?sinks () =
      let stream = Input_stream.of_string ~chunk:(Int.max 1 config.c_chunk) input in
      Runner.run_prepared ?sinks ?integrity arch prepared ~stream
    in
    let t0 = Unix.gettimeofday () in
    let baseline = run_once () in
    let baseline_wall = Unix.gettimeofday () -. t0 in
    let baseline_text = Runner.render_report baseline in
    let run_trial i =
      let rng = make_rng (trial_seed config.c_seed i) in
      (* Warm the generator: trial seeds are structured (xor of scaled
         indices), and splitmix64's first outputs from such seeds are
         visibly correlated — biased enough to skew the target draw.
         Two discarded draws decorrelate them; [campaign]'s streams are
         untouched. *)
      ignore (rand_float rng);
      ignore (rand_float rng);
      let target = if rand_float rng < config.c_table_share then C_table else C_state in
      let inject_sym = rand_int rng chars in
      let victim = rand_int rng (Int.max 1 num_arrays) in
      let fired = ref (-1) in
      let sink =
        {
          Sink.name = "chaos";
          make =
            (fun ~array_id ~chars:_ ->
              {
                Sink.on_events = (fun _ -> ());
                on_state =
                  Some
                    (fun ~sym engines ->
                      (* one-shot: a heal re-executes the chunk without
                         the flip, so recovery can be bit-identical *)
                      if array_id = victim && !fired < 0 && sym >= inject_sym then begin
                        let ok =
                          match target with
                          | C_state -> (
                              let cands =
                                Array.to_list engines
                                |> List.filter (fun e -> Engine.state_bits e > 0)
                              in
                              match cands with
                              | [] -> false
                              | l ->
                                  let e = List.nth l (rand_int rng (List.length l)) in
                                  Engine.flip_state_bit e
                                    (rand_int rng (Engine.state_bits e));
                                  true)
                          | C_table -> (
                              match
                                Array.to_list engines
                                |> List.concat_map Engine.immutable_regions
                              with
                              | [] -> false
                              | regs ->
                                  let n = List.length regs in
                                  let rec attempt k =
                                    k > 0
                                    && (flip_region_bit rng (List.nth regs (rand_int rng n))
                                       || attempt (k - 1))
                                  in
                                  let ok = attempt 8 in
                                  Array.iter Engine.invalidate engines;
                                  ok)
                        in
                        if ok then fired := sym
                      end);
                on_close = (fun ~cycles:_ -> ());
              });
        }
      in
      let cfg = Integrity.continuous_config () in
      let t1 = Unix.gettimeofday () in
      let r = run_once ~integrity:cfg ~sinks:[ sink ] () in
      let wall = Unix.gettimeofday () -. t1 in
      Runner.repair camp_cfg prepared;
      let st = cfg.Integrity.stats in
      let detected = Integrity.detections st > 0 in
      let identical = String.equal (Runner.render_report r) baseline_text in
      let degraded_typed =
        List.exists
          (function Sim_error.Integrity_violation _ -> true | _ -> false)
          r.Runner.degraded
      in
      {
        c_index = i;
        c_target = target;
        c_inject_sym = !fired;
        c_detect_sym = st.Integrity.last_detect_sym;
        c_heals = st.Integrity.heals;
        c_quarantined = st.Integrity.quarantines > 0;
        c_recovered = detected && identical && r.Runner.degraded = [];
        c_degraded_typed = degraded_typed;
        c_silent_wrong = !fired >= 0 && (not detected) && not identical;
        c_wall_s = wall;
      }
    in
    let trials = List.init (Int.max 0 config.c_trials) run_trial in
    Ok
      {
        co_baseline = baseline;
        co_baseline_wall_s = baseline_wall;
        co_trials = trials;
        co_compile_errors = compile_errors;
      }
  end

let pp_chaos_trial fmt t =
  Format.fprintf fmt "trial %3d: %-5s inject@%-7d %s%s"
    t.c_index (chaos_target_name t.c_target) t.c_inject_sym
    (if t.c_detect_sym >= 0 then
       Printf.sprintf "detect@%d (+%d syms)" t.c_detect_sym (t.c_detect_sym - t.c_inject_sym)
     else if t.c_inject_sym < 0 then "no-fire"
     else if t.c_silent_wrong then "SILENT-WRONG"
     else "benign")
    (if t.c_recovered then
       Printf.sprintf " -> recovered (%d heal%s)" t.c_heals (if t.c_heals = 1 then "" else "s")
     else if t.c_quarantined then " -> quarantined (typed degraded)"
     else "")

let pp_chaos_outcome fmt o =
  Format.fprintf fmt "@[<v>";
  List.iter (fun t -> Format.fprintf fmt "%a@," pp_chaos_trial t) o.co_trials;
  Format.fprintf fmt
    "chaos: %d trials (%d injected) | detected %d benign %d silent-wrong %d | detection %.1f%% \
     | recovered %d typed-degraded %d | heals %d quarantines %d | MTTD %.1f syms MTTR %.1f ms \
     | gates: detection_ok=%b recovery_ok=%b@]"
    (List.length o.co_trials) (chaos_injected o) (chaos_detected o) (chaos_benign o)
    (chaos_silent_wrong o)
    (100. *. chaos_detection_rate o)
    (chaos_recovered o) (chaos_degraded_typed o) (chaos_heals o) (chaos_quarantines o)
    (chaos_mttd_syms o)
    (1000. *. chaos_mttr_s o)
    (chaos_detection_ok o) (chaos_recovery_ok o)

let pp_trial fmt t =
  Format.fprintf fmt "trial %2d: %6d flips, %4d missed, %4d false, %6d reports, %7d cycles, %.3f Gch/s"
    t.t_index t.t_flips t.t_missed t.t_false t.t_reports t.t_cycles t.t_throughput_gchs

let pp_outcome fmt o =
  Format.fprintf fmt "@[<v>";
  Format.fprintf fmt "%a@," Defect.pp o.o_defects;
  (* every field named, so a new one cannot be left out of the test *)
  let { Mapper.dead_tiles_skipped; cols_lost; cols_repaired } = o.o_defect_stats in
  if dead_tiles_skipped <> 0 || cols_lost <> 0 || cols_repaired <> 0 then
    Format.fprintf fmt "capacity: %a@," Mapper.pp_defect_stats o.o_defect_stats;
  List.iter
    (fun e -> Format.fprintf fmt "compile error: %a@," Compile_error.pp e)
    o.o_compile_errors;
  List.iter (fun e -> Format.fprintf fmt "dropped: %a@," Compile_error.pp e) o.o_baseline_drops;
  List.iter (fun e -> Format.fprintf fmt "dropped: %a@," Compile_error.pp e) o.o_drops;
  List.iter (fun t -> Format.fprintf fmt "%a@," pp_trial t) o.o_trials;
  let b = o.o_baseline and d = o.o_degraded in
  Format.fprintf fmt
    "correctness %.1f%% | avg missed %.1f / false %.1f (of %d reference matches) | throughput %.3f -> %.3f Gch/s | col-util %.1f%% -> %.1f%% (loss %.1f%%)@]"
    (100. *. correctness_rate o) (avg_missed o) (avg_false o) o.o_reference_matches
    b.Runner.throughput_gchs (avg_throughput_gchs o)
    (100. *. b.Runner.mapper_stats.Mapper.col_utilisation)
    (100. *. d.Runner.mapper_stats.Mapper.col_utilisation)
    (100. *. utilisation_loss o)
