(* serve-burst: the match service's admission layer driven in-process by
   one thread, without sockets.  Arrivals are open loop: each request is
   submitted when it falls due (or as soon as the thread is free after
   that) and stamped with its due instant as [enqueued_at], so its
   latency counts the time a stall made it wait. *)

open Util

type ctx = {
  p : Spec.serve;
  arch : Arch.t;
  params : Program.params;
  placement : Mapper.placement;
  pool : string;
  regexes : (string * Ast.t) list;
}

let admission_config (p : Spec.serve) =
  { Admission.default_config with Admission.capacity = p.Spec.capacity; group = p.Spec.group }

type window = {
  reqs : Inputs.request array;
  t0 : float;  (** The instant due times count from. *)
  outcomes : Admission.outcome option array;  (** By request index; [None] = shed. *)
  wall : float;  (** First due instant to last completion. *)
  words : float;
  lag_s : float list;  (** Submission instant minus due instant. *)
  submit_s : float;
  run_pending_s : float;  (** Always timed: it is the service's busy time. *)
  busy : (float * float) list;  (** Start instant and wall of each [run_pending]. *)
  heap_mb : float list;  (** Major heap size after each [run_pending]. *)
  sleep_s : float;
  bulk_per_call : int list;  (** Bulk outcomes of each [run_pending]. *)
  shed : int;
  calibration : (float * float) list;
      (** Instant and result of each [Util.calibrate] run in an idle gap. *)
}

let run_window ctx reqs ~spans =
  let p = ctx.p in
  let adm = Admission.create (admission_config p) ctx.arch ~params:ctx.params ctx.placement in
  let n = Array.length reqs in
  let index = Hashtbl.create n in
  let outcomes = Array.make n None and lag = Array.make n 0. in
  let submit_s = ref 0. and run_pending_s = ref 0. and sleep_s = ref 0. in
  let timed acc f =
    if spans then begin
      let r, dt = time f in
      acc := !acc +. dt;
      r
    end
    else f ()
  in
  let bulk_per_call = ref [] and shed = ref 0 and next = ref 0 in
  let cal = ref [] and cal_words = ref 0. and busy = ref [] and heap = ref [] in
  let w0 = minor_words () in
  let t0 = now () +. 0.01 in
  while !next < n || Admission.pending adm > 0 do
    while !next < n && t0 +. reqs.(!next).Inputs.due_s <= now () do
      let i = !next and r = reqs.(!next) in
      let due = t0 +. r.Inputs.due_s in
      lag.(i) <- now () -. due;
      (match
         timed submit_s (fun () ->
             Admission.submit
               ?deadline_s:(if r.Inputs.interactive then Some p.Spec.deadline_s else None)
               ~enqueued_at:due adm ~name:(Printf.sprintf "req-%d" i)
               ~class_:(if r.Inputs.interactive then Wire.Interactive else Wire.Bulk)
               ~input:r.Inputs.input)
       with
      | Ok id -> Hashtbl.replace index id i
      | Error _ -> incr shed);
      incr next
    done;
    if Admission.pending adm > 0 then begin
      let start = now () in
      let outs, dt = time (fun () -> Admission.run_pending adm) in
      run_pending_s := !run_pending_s +. dt;
      busy := (start, dt) :: !busy;
      heap := float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1e6 :: !heap;
      List.iter (fun (o : Admission.outcome) -> outcomes.(Hashtbl.find index o.Admission.o_id) <- Some o) outs;
      bulk_per_call :=
        List.length (List.filter (fun (o : Admission.outcome) -> o.Admission.o_class = Wire.Bulk) outs)
        :: !bulk_per_call
    end
    else if !next < n then begin
      (* idle: calibrate when the next arrival is far enough off that the
         loop (tens of ms) cannot delay it, then sleep until it is due *)
      if t0 +. reqs.(!next).Inputs.due_s -. now () > 0.1 then begin
        let words = Gc.minor_words () in
        cal := (now (), calibrate ()) :: !cal;
        cal_words := !cal_words +. (Gc.minor_words () -. words)
      end;
      let dt = t0 +. reqs.(!next).Inputs.due_s -. now () in
      if dt > 0. then timed sleep_s (fun () -> Unix.sleepf dt)
    end
  done;
  let wall = now () -. t0 in
  {
    reqs;
    t0;
    outcomes;
    wall;
    words = minor_words () -. w0 -. !cal_words;
    lag_s = Array.to_list lag;
    submit_s = !submit_s;
    run_pending_s = !run_pending_s;
    busy = !busy;
    heap_mb = !heap;
    sleep_s = !sleep_s;
    bulk_per_call = !bulk_per_call;
    shed = !shed;
    calibration = !cal;
  }

let setup_sample ctx =
  snd
    (Setup.once
       ~extra:(fun pl -> ignore (Admission.create (admission_config ctx.p) ctx.arch ~params:ctx.params pl))
       ctx.arch ~params:ctx.params ctx.regexes)

(* Solo [Runner.run] reports of every request: the output check's
   reference, and the modelled design's figures for every request.  Every
   eighth request also takes a calibration run and a set-up sample, so
   that the set-up samples spread over several seconds. *)
let solo ctx reqs =
  let setups = ref [] in
  let reports =
    Array.mapi
      (fun i (r : Inputs.request) ->
        if i mod 8 = 0 then begin
          let cal = calibrate () in
          setups := (cal, setup_sample ctx) :: !setups
        end;
        Runner.run ctx.arch ~params:ctx.params ctx.placement ~input:r.Inputs.input)
      reqs
  in
  (reports, !setups)

(* The output check: an accepted reply must be byte-identical to the
   solo run of its input. *)
let good solo win =
  Array.mapi
    (fun i o ->
      match o with
      | Some (o : Admission.outcome) ->
          o.Admission.o_error = None && o.Admission.o_text = Runner.render_report solo.(i)
      | None -> false)
    win.outcomes

(* Correct replies within the workload's latency limit. *)
let on_time ctx win good =
  List.length
    (List.filteri
       (fun i g ->
         g
         &&
         match win.outcomes.(i) with
         | Some o -> 1e3 *. o.Admission.o_latency_s <= ctx.p.Spec.limit_ms
         | None -> false)
       (Array.to_list good))

let failures good = List.length (List.filter not (Array.to_list good))

(* The window's median host speed over the host speed at instant [t],
   read from the calibration run nearest to [t]. *)
let speed_factor win =
  let host = median (List.map snd win.calibration) in
  fun t ->
    match win.calibration with
    | [] -> 1.
    | first :: rest ->
        let nearest (a, x) (b, y) = if Float.abs (b -. t) < Float.abs (a -. t) then (b, y) else (a, x) in
        host /. snd (List.fold_left nearest first rest)

(* Latencies taken to the window's median host speed request by request,
   so that a slow second moves the requests in it and not the tail. *)
let latencies_ms win =
  let factor = speed_factor win in
  List.concat
    (List.mapi
       (fun i o ->
         match o with
         | Some (o : Admission.outcome) ->
             let due = win.t0 +. win.reqs.(i).Inputs.due_s in
             [ 1e3 *. o.Admission.o_latency_s *. factor (due +. (o.Admission.o_latency_s /. 2.)) ]
         | None -> [])
       (Array.to_list win.outcomes))

(* [run_pending] wall, call by call at the window's median host speed. *)
let busy_s win =
  let factor = speed_factor win in
  sum (List.map (fun (start, dt) -> dt *. factor (start +. (dt /. 2.))) win.busy)

let prepare (p : Spec.serve) =
  let arch = Rap.rap_arch () and params = Program.default_params in
  let suite = Benchmarks.by_name p.Spec.serve_suite in
  let regexes = suite.Benchmarks.regexes in
  let placement, _ = Setup.once arch ~params regexes in
  let ctx = { p; arch; params; placement; pool = Inputs.pool suite; regexes } in
  (ctx, setup_sample ctx)

let schedule ctx ~seed ~seconds =
  Inputs.schedule ctx.pool ctx.p ~seed ~n:(max 1 (int_of_float (Float.round (ctx.p.Spec.rate_per_s *. seconds))))

let measure ctx ~seed ~seconds =
  let win = run_window ctx (schedule ctx ~seed ~seconds) ~spans:false in
  let solo, setups = solo ctx win.reqs in
  let good = good solo win in
  let n = Array.length win.reqs in
  let lat = latencies_ms win in
  let bytes = Array.fold_left (fun acc (r : Inputs.request) -> acc + String.length r.Inputs.input) 0 win.reqs in
  let done_bytes =
    Array.to_list win.reqs
    |> List.filteri (fun i _ -> win.outcomes.(i) <> None)
    |> List.fold_left (fun acc (r : Inputs.request) -> acc + String.length r.Inputs.input) 0
  in
  let sum_int f = Array.fold_left (fun acc r -> acc + f r) 0 solo in
  let chars = sum_int (fun r -> r.Runner.chars) and cycles = sum_int (fun r -> r.Runner.cycles) in
  let energy = Array.fold_left (fun acc r -> acc +. Energy.total_pj r.Runner.energy) 0. solo in
  {
    attempted = n;
    failed = failures good;
    metrics =
      [
        ("chars_per_s", float_of_int done_bytes /. busy_s win);
        ( "setup_s",
          let host = median (List.map snd win.calibration) in
          median (List.map (fun (cal, s) -> Setup.total s *. host /. cal) setups) );
        ("alloc_words_per_char", win.words /. float_of_int bytes);
        ("peak_heap_mb", quantile 0.9 win.heap_mb);
        ("sim_gchs", float_of_int chars *. ctx.arch.Arch.clock_ghz /. float_of_int (max 1 cycles));
        ("sim_pj_per_char", energy /. float_of_int (max 1 chars));
        ("serve_p50_ms", quantile 0.5 lat);
        ("serve_p90_ms", quantile 0.9 lat);
        ("serve_ok_frac", float_of_int (on_time ctx win good) /. float_of_int n);
      ];
    calibration = List.map snd win.calibration;
    record = [ ("requests", string_of_int n); ("request_bytes", string_of_int bytes) ];
  }

let trace ctx ~seed ~seconds ~setup =
  let reqs = schedule ctx ~seed ~seconds:(seconds /. 2.) in
  let plain = run_window ctx reqs ~spans:false in
  let win = run_window ctx reqs ~spans:true in
  let solo, setups = solo ctx reqs in
  let good_plain = good solo plain and good = good solo win in
  let n = Array.length reqs in
  let outs = Array.to_list win.outcomes |> List.filter_map Fun.id in
  let expired =
    List.length
      (List.filter
         (fun (o : Admission.outcome) ->
           match o.Admission.o_error with Some (Sim_error.Deadline_expired _) -> true | _ -> false)
         outs)
  in
  (* batch groups filled: bulk requests over group slots, counting only
     [run_pending] calls with two or more, which take [Batch.run] *)
  let batched = List.filter (fun b -> b >= 2) win.bulk_per_call in
  let g = ctx.p.Spec.group in
  let slots = List.fold_left (fun acc b -> acc + (g * ((b + g - 1) / g))) 0 batched in
  let ms f = List.map (fun (o : Admission.outcome) -> 1e3 *. f o) outs in
  {
    attempted = 2 * n;
    failed = failures good + failures good_plain;
    metrics =
      Setup.layers (setup :: List.map snd setups)
      @ Stream_bench.stepper_counts (Array.map (Exec.build ctx.placement) ctx.placement.Mapper.arrays)
      @ [
          ( "admission.create_s",
            median (List.map (fun s -> s.Setup.extra_s) (setup :: List.map snd setups)) );
          ("admission.submit_s", win.submit_s);
          ("admission.queue_wait_p90_ms", quantile 0.9 (ms (fun o -> o.Admission.o_queued_s)));
          ( "admission.exec_p50_ms",
            quantile 0.5 (ms (fun o -> o.Admission.o_latency_s -. o.Admission.o_queued_s)) );
          ("admission.busy_frac", win.run_pending_s /. win.wall);
          ("admission.shed", float_of_int win.shed);
          ("admission.expired", float_of_int expired);
          ( "batch.group_fill",
            if slots = 0 then 0. else float_of_int (List.fold_left ( + ) 0 batched) /. float_of_int slots );
          ("loadgen.lag_p90_ms", 1e3 *. quantile 0.9 win.lag_s);
          ("serve_miss_frac", float_of_int (n - on_time ctx win good) /. float_of_int n);
          ("trace.coverage", (win.submit_s +. win.run_pending_s +. win.sleep_s) /. plain.wall);
          ("trace.overhead", (win.wall /. plain.wall) -. 1.);
        ];
    calibration = List.map snd (plain.calibration @ win.calibration);
    record = [ ("requests_per_window", string_of_int n) ];
  }
