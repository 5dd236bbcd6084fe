(* The stream workloads: one long input read through [Input_stream.of_file]
   and simulated by [Runner.run_stream] with energy and cycle accounting
   on.

   Untraced passes time the whole [run_stream] call.  The traced run
   instead drives the same stream through an outside-in replica of
   [run_stream] built from the layers' public functions, with a span
   around each call, and splits [Exec.step] into its layers with
   subtractive passes over fresh [Exec.t]s. *)

open Util

type ctx = {
  w : Spec.stream;
  arch : Arch.t;
  params : Program.params;
  placement : Mapper.placement;
  input : string;
  path : string;  (** [input], as the file the passes read. *)
  tmp : string;  (** Scratch directory for checkpoints. *)
  regexes : (string * Ast.t) list;
}

let integrity_cfg (w : Spec.stream) = if w.Spec.integrity then Some (Integrity.default_config ()) else None

let ckpt_cfg ctx ~rep =
  Option.map
    (fun every -> { Checkpoint.dir = Filename.concat ctx.tmp (Printf.sprintf "ckpt-%d" rep); every })
    ctx.w.Spec.checkpoint_every

(* Stamps the wall clock when array 0 starts each chunk; a chunk's
   latency is the gap to the next stamp (or to the end of the run).  The
   per-symbol cost is one branch in array 0 and one no-op call in the
   others. *)
let chunk_clock ~chunk ~chars =
  let stamps = Array.make ((chars + chunk - 1) / chunk) 0. in
  let spec =
    {
      Sink.name = "chunk-clock";
      make =
        (fun ~array_id ~chars:_ ->
          if array_id <> 0 then Sink.events_only ignore
          else
            Sink.events_only (fun ev ->
                let sym = ev.Exec.sym in
                if sym mod chunk = 0 then stamps.(sym / chunk) <- now ()));
    }
  in
  (spec, stamps)

type pass = { wall : float; words : float; report : Runner.report; chunk_ms : float list }

let untraced_pass ctx ~rep =
  let w = ctx.w in
  let clock, stamps = chunk_clock ~chunk:w.Spec.chunk ~chars:w.Spec.chars in
  let integrity = integrity_cfg w and checkpoint = ckpt_cfg ctx ~rep in
  let stream = Input_stream.of_file ~chunk:w.Spec.chunk ctx.path in
  let w0 = minor_words () in
  let t0 = now () in
  let report =
    Fun.protect
      ~finally:(fun () -> Input_stream.close stream)
      (fun () ->
        Runner.run_stream ~jobs:w.Spec.jobs ~sinks:[ clock ] ?integrity ?checkpoint ctx.arch
          ~params:ctx.params ctx.placement ~stream)
  in
  let t1 = now () in
  let words = minor_words () -. w0 in
  Option.iter (fun c -> remove_tree c.Checkpoint.dir) checkpoint;
  let n = Array.length stamps in
  let chunk_ms =
    List.init n (fun k -> 1e3 *. ((if k + 1 < n then stamps.(k + 1) else t1) -. stamps.(k)))
  in
  { wall = t1 -. t0; words; report; chunk_ms }

(* ------------------------------------------------------------------ *)
(* Outside-in replica of [Runner.run_stream] (no supervision policy, no
   resume, [intra_jobs] 1), timed per layer. *)

let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
let ledger_values l = Array.of_list (List.map (Energy.get_pj l) Energy.all_categories)

(* Domains [Scheduler.parallel_for] actually uses for one chunk. *)
let effective_domains ~jobs ~n ~len =
  if jobs <= 1 || n <= 1 || len * n < Scheduler.seq_work_threshold then 1
  else min (min jobs n) (Scheduler.available_parallelism ())

type traced = {
  t_wall : float;
  t_report : Runner.report;
  t_layers : (string, float) Hashtbl.t;
  t_inv_domains : float;  (** Symbol-weighted mean of 1 / domains used. *)
  t_execs : Exec.t array;
}

let replica ctx ~rep =
  let w = ctx.w and arch = ctx.arch and p = ctx.placement in
  let tbl = Hashtbl.create 32 in
  let span name f =
    let r, dt = time f in
    add tbl name dt;
    r
  in
  let n = Array.length p.Mapper.arrays in
  let t_start = now () in
  let execs = span "exec.build_s" (fun () -> Array.map (Exec.build p) p.Mapper.arrays) in
  let ledgers, mode_slots, insts, fp =
    span "runner.other_s" (fun () ->
        let spec, ledgers, mode_slots = Runner.energy_sink arch ~num_arrays:n in
        let clock, _ = chunk_clock ~chunk:w.Spec.chunk ~chars:w.Spec.chars in
        let insts =
          Array.init n (fun array_id ->
              List.map (fun (s : Sink.spec) -> s.Sink.make ~array_id ~chars:w.Spec.chars) [ spec; clock ])
        in
        (ledgers, mode_slots, insts, Runner.fingerprint p))
  in
  let integrity = integrity_cfg w in
  let seals, shadows =
    span "integrity.seal_s" (fun () ->
        match integrity with
        | None -> ([||], [||])
        | Some cfg ->
            ( Array.map (fun ex -> Integrity.seal (Exec.engines ex)) execs,
              if cfg.Integrity.sentinel_every > 0 then Array.map Exec.clone_fresh execs else [||] ))
  in
  let sweep_due = Array.make n 0 and sent_due = Array.make n 0 in
  let cycles_slots = Array.make n 0 and reports_slots = Array.make n 0 in
  (* per-array slots, each written only by the domain running that array *)
  let busy = Array.make n 0. and sentinel = Array.make n 0. and check = Array.make n 0. in
  (* the symbol loop keeps [run_stream]'s shape (closure over the chunk,
     deadline poll, sink list) so that its per-symbol overhead is the same *)
  let process_chunk ~base chunk i =
    let t0 = now () in
    let ex = execs.(i) and il = insts.(i) in
    let engines = Exec.engines ex in
    let cycles = ref cycles_slots.(i) and reports = ref reports_slots.(i) in
    let len = String.length chunk in
    let win_start = ref (-1) and pre = ref [||] and win_digest = ref 0 in
    let sent = ref 0. in
    String.iteri
      (fun off c ->
        if off land 255 = 0 then Scheduler.check_deadline Scheduler.no_deadline;
        let sym = base + off in
        (match integrity with
        | Some cfg
          when cfg.Integrity.sentinel_every > 0 && !win_start < 0 && sym >= sent_due.(i) ->
            let s0 = now () in
            pre := Exec.snapshot_flat ex;
            win_start := off;
            win_digest := 0;
            sent := !sent +. (now () -. s0)
        | _ -> ());
        let ev = Exec.step arch ex ~sym c in
        cycles := !cycles + 1 + ev.Exec.stall;
        reports := !reports + ev.Exec.reports;
        List.iter (fun (s : Sink.t) -> s.Sink.on_events ev) il;
        if !win_start >= 0 then
          win_digest := Array.fold_left (fun acc e -> Engine.state_digest e acc) !win_digest engines;
        match integrity with
        | Some cfg
          when !win_start >= 0
               && (off - !win_start + 1 >= cfg.Integrity.sentinel_window || off = len - 1) ->
            let s0 = now () in
            Integrity.sentinel_replay cfg ~array_id:i ~sym ~shadow:shadows.(i) ~live:ex ~pre:!pre
              ~chunk ~start:!win_start
              ~len:(off - !win_start + 1)
              ~live_digest:!win_digest;
            sent := !sent +. (now () -. s0);
            sent_due.(i) <- base + !win_start + cfg.Integrity.sentinel_every;
            win_start := -1
        | _ -> ())
      chunk;
    let chk =
      match integrity with
      | Some cfg when cfg.Integrity.sweep_every > 0 && base + len >= sweep_due.(i) ->
          let (), dt =
            time (fun () ->
                Integrity.check cfg ~array_id:i ~sym:(base + len - 1) seals.(i) engines)
          in
          sweep_due.(i) <- base + len + cfg.Integrity.sweep_every;
          dt
      | _ -> 0.
    in
    cycles_slots.(i) <- !cycles;
    reports_slots.(i) <- !reports;
    sentinel.(i) <- !sent;
    check.(i) <- chk;
    busy.(i) <- now () -. t0
  in
  let weighted = ref 0. in
  let run_chunk ~base chunk =
    let len = String.length chunk in
    if integrity <> None then
      span "integrity.rollback_s" (fun () ->
          ignore
            (Sys.opaque_identity
               (Array.init n (fun i ->
                    ( Exec.snapshot_flat execs.(i),
                      ledger_values ledgers.(i),
                      Array.copy mode_slots.(i) )))));
    let (), wall =
      time (fun () ->
          Scheduler.parallel_for ~work_per_index:len ~jobs:w.Spec.jobs n (fun i ->
              process_chunk ~base chunk i))
    in
    (* per-array times are CPU time on [d] domains; dividing by [d] turns
       them into shares of the chunk's wall time, and what is left of
       the wall is time domains spent idle at the chunk barrier *)
    let d = float_of_int (effective_domains ~jobs:w.Spec.jobs ~n ~len) in
    let total a = Array.fold_left ( +. ) 0. a in
    add tbl "scheduler.barrier_wait_s" (wall -. (total busy /. d));
    add tbl "loop.self" ((total busy -. total sentinel -. total check) /. d);
    add tbl "integrity.sentinel_s" (total sentinel /. d);
    add tbl "integrity.check_s" (total check /. d);
    weighted := !weighted +. (float_of_int len /. d)
  in
  let ckpt = ckpt_cfg ctx ~rep in
  let writes = ref 0 and bytes = ref 0 in
  let save_ckpt symbols =
    match ckpt with
    | None -> ()
    | Some { Checkpoint.dir; _ } ->
        let verified =
          span "integrity.check_s" (fun () ->
              match integrity with
              | None -> true
              | Some cfg ->
                  Array.iteri
                    (fun i ex ->
                      Integrity.check cfg ~array_id:i ~sym:(max 0 (symbols - 1)) seals.(i)
                        (Exec.engines ex))
                    execs;
                  Runner.fingerprint p = fp)
        in
        if verified then begin
          let ck_arrays =
            span "checkpoint.snapshot_s" (fun () ->
                Array.init n (fun i ->
                    {
                      Checkpoint.cs_cycles = cycles_slots.(i);
                      cs_reports = reports_slots.(i);
                      cs_energy_pj = ledger_values ledgers.(i);
                      cs_mode_pj = Array.copy mode_slots.(i);
                      cs_engines = Exec.snapshot execs.(i);
                    }))
          in
          span "checkpoint.save_s" (fun () ->
              Checkpoint.save ~dir
                { Checkpoint.ck_fingerprint = fp; ck_symbols = symbols; ck_degraded = []; ck_arrays };
              Checkpoint.journal ~dir (Printf.sprintf "checkpoint symbols=%d degraded=0" symbols));
          incr writes;
          bytes := !bytes + (Unix.stat (Checkpoint.state_path ~dir)).Unix.st_size
        end
  in
  let stream = span "input.next_s" (fun () -> Input_stream.of_file ~chunk:w.Spec.chunk ctx.path) in
  let chunks = ref 0 and last = ref 0 in
  let rec loop () =
    let base = Input_stream.pos stream in
    match span "input.next_s" (fun () -> Input_stream.next stream) with
    | None -> ()
    | Some chunk ->
        incr chunks;
        run_chunk ~base chunk;
        let pos = base + String.length chunk in
        (match ckpt with
        | Some c when pos - !last >= c.Checkpoint.every ->
            save_ckpt pos;
            last := pos
        | _ -> ());
        loop ()
  in
  loop ();
  let chars = Input_stream.pos stream in
  span "input.next_s" (fun () -> Input_stream.close stream);
  if !last <> chars then save_ckpt chars;
  let report =
    span "runner.other_s" (fun () ->
        Array.iteri
          (fun i il -> List.iter (fun (s : Sink.t) -> s.Sink.on_close ~cycles:cycles_slots.(i)) il)
          insts;
        Runner.assemble_report arch p ~chars ~cycles_slots ~reports_slots ~ledgers ~mode_slots
          ~execs ~degraded:[])
  in
  let wall = now () -. t_start in
  Option.iter (fun c -> remove_tree c.Checkpoint.dir) ckpt;
  add tbl "input.chunks" (float_of_int !chunks);
  add tbl "checkpoint.writes" (float_of_int !writes);
  add tbl "checkpoint.bytes" (float_of_int !bytes);
  (match integrity with
  | Some cfg ->
      add tbl "integrity.sweeps" (float_of_int cfg.Integrity.stats.Integrity.sweeps);
      add tbl "integrity.detections" (float_of_int (Integrity.detections cfg.Integrity.stats))
  | None -> ());
  {
    t_wall = wall;
    t_report = report;
    t_layers = tbl;
    t_inv_domains = !weighted /. float_of_int (max 1 chars);
    t_execs = execs;
  }

(* Subtractive passes: five fresh [Exec.t]s per array step the same input,
   each adding one layer to the previous one, so the differences are the
   layers' self time and allocation.  The passes take turns chunk by
   chunk, so that a burst of load on the host lands on all of them. *)
let subtractive ctx =
  let arch = ctx.arch and p = ctx.placement and input = ctx.input in
  let n = Array.length p.Mapper.arrays in
  let energy, _, _ = Runner.energy_sink arch ~num_arrays:n in
  let on_engines step ex ~base:_ chunk =
    let es = Exec.engines ex in
    for k = 0 to String.length chunk - 1 do
      let c = String.unsafe_get chunk k in
      for j = 0 to Array.length es - 1 do
        step es.(j) c
      done
    done
  in
  let on_symbols f ex ~base chunk =
    for k = 0 to String.length chunk - 1 do
      f (Exec.step arch ex ~sym:(base + k) (String.unsafe_get chunk k))
    done
  in
  let sinks = Array.init n (fun array_id -> energy.Sink.make ~array_id ~chars:(String.length input)) in
  let passes =
    [|
      ("engine.kernel", fun _ -> on_engines Engine.step_kernel);
      ("engine.project", fun _ -> on_engines (fun e c -> ignore (Engine.step e c)));
      ("exec.assemble", fun _ -> on_symbols ignore);
      ("cost.of_events", fun _ -> on_symbols (fun ev -> ignore (Cost.of_events arch ev)));
      ("sink.energy", fun i -> on_symbols sinks.(i).Sink.on_events);
    |]
  in
  let execs = Array.map (fun _ -> Array.map (Exec.build p) p.Mapper.arrays) passes in
  let secs = Array.make (Array.length passes) 0. and words = Array.make (Array.length passes) 0. in
  let chunk = ctx.w.Spec.chunk in
  let base = ref 0 in
  while !base < String.length input do
    let piece = String.sub input !base (min chunk (String.length input - !base)) in
    Array.iteri
      (fun k (_, body) ->
        let w0 = Gc.minor_words () and t0 = now () in
        Array.iteri (fun i ex -> body i ex ~base:!base piece) execs.(k);
        secs.(k) <- secs.(k) +. (now () -. t0);
        words.(k) <- words.(k) +. (Gc.minor_words () -. w0))
      passes;
    base := !base + chunk
  done;
  List.init (Array.length passes) (fun k ->
      let prev f = if k = 0 then 0. else f.(k - 1) in
      (fst passes.(k), (secs.(k) -. prev secs, words.(k) -. prev words)))

let all_engines execs = Array.concat (Array.to_list (Array.map Exec.engines execs))

let stepper_counts execs =
  let engines = all_engines execs in
  let count name =
    float_of_int
      (Array.fold_left (fun acc e -> if Engine.stepper_name e = name then acc + 1 else acc) 0 engines)
  in
  List.map
    (fun name -> ("engine.steppers." ^ name, count name))
    [ "dfa"; "general"; "word"; "shift-and" ]

let dfa_counts execs ~chars =
  let engines = all_engines execs in
  let dfa = Array.to_list (Array.map Engine.dfa_stats engines) |> List.filter_map Fun.id in
  let fills = List.fold_left (fun acc (_, f, _, _) -> acc + f) 0 dfa in
  let flushes = List.fold_left (fun acc (_, _, f, _) -> acc + f) 0 dfa in
  let disabled = List.length (List.filter (fun (_, _, _, d) -> d) dfa) in
  let steps = List.length dfa * chars in
  [
    ("engine.dfa_fills", float_of_int fills);
    ("engine.dfa_flushes", float_of_int flushes);
    ("engine.dfa_disabled", float_of_int disabled);
    ( "engine.dfa_hit_ratio",
      if steps = 0 then 0. else 1. -. (float_of_int fills /. float_of_int steps) );
  ]

let replica_timed =
  [
    "input.next_s";
    "exec.build_s";
    "integrity.seal_s";
    "integrity.check_s";
    "integrity.sentinel_s";
    "integrity.rollback_s";
    "checkpoint.snapshot_s";
    "checkpoint.save_s";
    "scheduler.barrier_wait_s";
    "runner.other_s";
  ]

(* One replica pass as per-layer values, its symbol-loop self time under
   "loop.self", and the sum of its self times. *)
let replica_values ctx t =
  let get k = Option.value ~default:0. (Hashtbl.find_opt t.t_layers k) in
  let values =
    List.map
      (fun k -> (k, get k))
      (replica_timed
      @ [
          "loop.self";
          "input.chunks";
          "checkpoint.writes";
          "checkpoint.bytes";
          "integrity.sweeps";
          "integrity.detections";
        ])
    @ stepper_counts t.t_execs
    @ dfa_counts t.t_execs ~chars:ctx.w.Spec.chars
    @ [ ("scheduler.domains", 1. /. t.t_inv_domains) ]
  in
  (values, List.fold_left (fun acc k -> acc +. get k) 0. ("loop.self" :: replica_timed))

(* ------------------------------------------------------------------ *)
(* Driver *)

let prepare (w : Spec.stream) ~seed ~tmp =
  let arch = Rap.rap_arch () and params = Program.default_params in
  let suite = Benchmarks.by_name w.Spec.suite in
  let regexes = suite.Benchmarks.regexes in
  let placement, first = Setup.once arch ~params regexes in
  let input = Inputs.stream_bytes (Inputs.pool suite) ~seed ~chars:w.Spec.chars in
  let path = Filename.concat tmp "input.bin" in
  write_file path input;
  ({ w; arch; params; placement; input; path; tmp; regexes }, first)

(* A further set-up sample, taken between passes. *)
let setup_sample ctx = snd (Setup.once ctx.arch ~params:ctx.params ctx.regexes)

(* The output check's reference: the scalar reference kernel at jobs 1,
   without integrity or checkpoints.  Untimed, made once. *)
let reference ctx =
  let stream = Input_stream.of_string ~chunk:ctx.w.Spec.chunk ctx.input in
  with_reference_kernel (fun () -> Runner.run_stream ctx.arch ~params:ctx.params ctx.placement ~stream)

(* Run [f rep] for rep = 1, 2, ... until [seconds] have passed and at
   least [min_reps] ran; exceptions are failed operations. *)
let repeat_for ~seconds ~min_reps f =
  let stop = now () +. seconds in
  let rec go rep ok failed =
    if rep > min_reps && now () >= stop then (List.rev ok, failed)
    else
      match f rep with
      | v -> go (rep + 1) (v :: ok) failed
      | exception e ->
          Printf.eprintf "perfbench: pass %d failed: %s\n%!" rep (Printexc.to_string e);
          go (rep + 1) ok (failed + 1)
  in
  go 1 [] 0

(* Each pass is taken to the run's median host speed by the calibration
   samples on either side of it, so that a slow second or two moves
   single passes and chunks, not the run's medians and tails. *)
let measure ctx ~seconds =
  let warm = untraced_pass ctx ~rep:0 in
  let peak = ref 0. in
  let passes, raised =
    repeat_for ~seconds ~min_reps:3 (fun rep ->
        let cal = calibrate () in
        let setup = setup_sample ctx in
        let p = untraced_pass ctx ~rep in
        if rep = 3 then peak := heap_mb ();
        (cal, setup, p))
  in
  if !peak = 0. then peak := heap_mb ();
  let cals = List.map (fun (c, _, _) -> c) passes @ [ calibrate () ] in
  let host = median cals in
  let scaled =
    List.mapi
      (fun k (cal, setup, p) ->
        let f = host /. ((cal +. List.nth cals (k + 1)) /. 2.) in
        ( Setup.total setup *. host /. cal,
          { p with wall = p.wall *. f; chunk_ms = List.map (fun ms -> ms *. f) p.chunk_ms } ))
      passes
  in
  let passes = List.map snd scaled in
  let expect = reference ctx in
  let good p = same_report ~expect p.report in
  let wrong = List.length (List.filter (fun p -> not (good p)) (warm :: passes)) in
  let chars = float_of_int ctx.w.Spec.chars in
  let chunk_ms = List.concat_map (fun p -> p.chunk_ms) passes in
  let ok_chunks =
    List.concat_map
      (fun p -> if good p then List.filter (fun ms -> ms <= ctx.w.Spec.chunk_limit_ms) p.chunk_ms else [])
      passes
  in
  let first = match passes with p :: _ -> p.report | [] -> expect in
  {
    attempted = 1 + List.length passes + raised;
    failed = wrong + raised;
    metrics =
      [
        ("chars_per_s", median (List.map (fun p -> chars /. p.wall) passes));
        ("setup_s", median (List.map fst scaled));
        ("alloc_words_per_char", median (List.map (fun p -> p.words /. chars) passes));
        ("peak_heap_mb", !peak);
        ("sim_gchs", first.Runner.throughput_gchs);
        ("sim_pj_per_char", pj_per_char first);
        ("serve_p50_ms", quantile 0.5 chunk_ms);
        ("serve_p90_ms", quantile 0.9 chunk_ms);
        ( "serve_ok_frac",
          float_of_int (List.length ok_chunks) /. float_of_int (max 1 (List.length chunk_ms)) );
      ];
    calibration = cals;
    record =
      [
        ("passes", string_of_int (List.length passes));
        ("chunk_samples", string_of_int (List.length chunk_ms));
      ];
  }

(* Untraced and replica passes alternate for two thirds of the time, so
   both see the same host conditions; the subtractive passes take the
   rest.  What the replica's symbol loop spent beyond the subtractive
   layers is [runner.loop_s]. *)
let trace ctx ~seconds ~setup =
  let warm = untraced_pass ctx ~rep:0 in
  let stop = now () +. seconds in
  let setups = ref [ setup ] and cal = ref [] in
  let pairs, raised_p =
    repeat_for ~seconds:(seconds *. 2. /. 3.) ~min_reps:2 (fun rep ->
        cal := calibrate () :: !cal;
        setups := setup_sample ctx :: !setups;
        let u = untraced_pass ctx ~rep in
        (u, replica ctx ~rep:(1000 + rep)))
  in
  let splits, raised_s =
    repeat_for ~seconds:(stop -. now ()) ~min_reps:1 (fun _ ->
        cal := calibrate () :: !cal;
        subtractive ctx)
  in
  let expect = reference ctx in
  let wrong =
    List.length
      (List.filter
         (fun r -> not (same_report ~expect r))
         (warm.report :: List.concat_map (fun (u, t) -> [ u.report; t.t_report ]) pairs))
  in
  let values = List.map (fun (u, t) -> (u, t, replica_values ctx t)) pairs in
  let med f = median (List.map f values) in
  let replica_layer k = med (fun (_, _, (v, _)) -> List.assoc k v) in
  let inv_domains = med (fun (_, t, _) -> t.t_inv_domains) in
  let split_names = match splits with l :: _ -> List.map fst l | [] -> [] in
  let split f name = median (List.map (fun l -> f (List.assoc name l)) splits) in
  let split_s name = inv_domains *. split fst name in
  let names = match values with (_, _, (v, _)) :: _ -> List.map fst v | [] -> [] in
  {
    attempted = 1 + (2 * List.length pairs) + List.length splits + raised_p + raised_s;
    failed = wrong + raised_p + raised_s;
    metrics =
      (* the replica's own [exec.build_s] first: it is part of the pass *)
      List.map (fun k -> (k, replica_layer k)) names
      @ List.concat_map
          (fun name ->
            [
              (name ^ "_s", split_s name);
              (name ^ ".words_per_sym", split snd name /. float_of_int (String.length ctx.input));
            ])
          split_names
      @ [
          ("runner.loop_s", replica_layer "loop.self" -. sum (List.map split_s split_names));
          ("trace.coverage", med (fun (u, _, (_, self)) -> self /. u.wall));
          ("trace.overhead", med (fun (u, t, _) -> t.t_wall /. u.wall) -. 1.);
        ]
      @ Setup.layers !setups;
    calibration = !cal;
    record =
      [
        ("pairs", string_of_int (List.length pairs));
        ("subtractive_passes", string_of_int (List.length splits));
      ];
  }
