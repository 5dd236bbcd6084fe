(* See batch.mli. *)

type source = { src_name : string; src_open : unit -> Input_stream.t }

let name s = s.src_name
let of_string ?chunk ~name s = { src_name = name; src_open = (fun () -> Input_stream.of_string ?chunk s) }
let of_file ?chunk ~name path = { src_name = name; src_open = (fun () -> Input_stream.of_file ?chunk path) }

type stream_report = { bs_name : string; bs_report : Runner.report }

type aggregate = {
  agg_streams : int;
  agg_chars : int;
  agg_cycles : int;
  agg_reports : int;
  agg_throughput_gchs : float;
}

type t = { streams : stream_report array; aggregate : aggregate }

(* Step one stream through one array context to exhaustion, folding
   every symbol's events exactly as the serial branch of
   Runner.run_stream does (cycles, reports, then the sink) — the
   per-stream bit-identity contract.  Returns (cycles, reports). *)
let step_stream arch ex input (sink : Sink.t) =
  let cycles = ref 0 and reports = ref 0 in
  let rec loop () =
    let base = Input_stream.pos input in
    match Input_stream.next input with
    | None -> ()
    | Some chunk ->
        String.iteri
          (fun off c ->
            let ev = Exec.step arch ex ~sym:(base + off) c in
            cycles := !cycles + 1 + ev.Exec.stall;
            reports := !reports + ev.Exec.reports;
            sink.Sink.on_events ev)
          chunk;
        loop ()
  in
  loop ();
  (!cycles, !reports)

let run ?(jobs = 1) ?done_stamps (arch : Arch.t) ~params (p : Mapper.placement) ~sources =
  ignore params;
  let b = Array.length sources in
  if b = 0 then invalid_arg "Batch.run: no sources";
  (match done_stamps with
  | Some a when Array.length a < b -> invalid_arg "Batch.run: done_stamps shorter than sources"
  | _ -> ());
  let num_arrays = Array.length p.Mapper.arrays in
  (* per-stream completion stamps: a stream is done when its own last
     (stream, array) task retires, which the service layer turns into
     that request's finish timestamp.  Pure instrumentation — the
     decrement is the only cross-task communication, and it never feeds
     back into results. *)
  let remaining = Array.init b (fun _ -> Atomic.make num_arrays) in
  let stamp_done s =
    match done_stamps with
    | None -> ()
    | Some stamps ->
        if Atomic.fetch_and_add remaining.(s) (-1) = 1 then stamps.(s) <- Unix.gettimeofday ()
  in
  (* per-stream accounting, per-array slots inside — the exact slot
     structure Runner.run_stream keeps for its one stream.  Sink
     instantiation happens here on the caller's domain, in stream-major
     array-minor order, never inside a worker. *)
  let sinks = Array.init b (fun _ -> Runner.energy_sink arch ~num_arrays) in
  let insts =
    Array.init b (fun s ->
        let spec, _, _ = sinks.(s) in
        Array.init num_arrays (fun array_id -> spec.Sink.make ~array_id ~chars:0))
  in
  let cycles_slots = Array.init b (fun _ -> Array.make num_arrays 0) in
  let reports_slots = Array.init b (fun _ -> Array.make num_arrays 0) in
  let chars_slots = Array.make b 0 in
  (* one compiled template per array; tasks clone it (sharing all
     compiled structure) instead of rebuilding engines per stream *)
  let templates = Array.map (fun tiles -> Exec.build p tiles) p.Mapper.arrays in
  (* one task per (stream, array), stream-major: each task owns its
     (stream, array) accounting slots, so any interleaving of tasks
     produces the same slots — schedules only change wall-clock, never
     results — and with fewer workers than tasks a stream's arrays run
     back to back, so a short stream finishes before its neighbours *)
  let task idx =
    let s = idx / num_arrays and ai = idx mod num_arrays in
    let input = sources.(s).src_open () in
    Fun.protect
      ~finally:(fun () -> Input_stream.close input)
      (fun () ->
        let cycles, reports =
          step_stream arch (Exec.clone_fresh templates.(ai)) input insts.(s).(ai)
        in
        cycles_slots.(s).(ai) <- cycles;
        reports_slots.(s).(ai) <- reports;
        if ai = 0 then chars_slots.(s) <- Input_stream.pos input);
    stamp_done s
  in
  (* each task steps a whole stream — far above the sequential-fallback
     threshold, so keep the grid parallel whenever jobs allows *)
  Scheduler.parallel_for ~work_per_index:65536 ~jobs (b * num_arrays) task;
  let streams =
    Array.init b (fun s ->
        let _, ledgers, mode_slots = sinks.(s) in
        Array.iteri
          (fun ai inst -> inst.Sink.on_close ~cycles:cycles_slots.(s).(ai))
          insts.(s);
        let report =
          Runner.assemble_report arch p ~chars:chars_slots.(s) ~cycles_slots:cycles_slots.(s)
            ~reports_slots:reports_slots.(s) ~ledgers ~mode_slots ~execs:templates ~degraded:[]
        in
        { bs_name = sources.(s).src_name; bs_report = report })
  in
  let agg_chars = Array.fold_left (fun acc r -> acc + r.bs_report.Runner.chars) 0 streams in
  let agg_cycles =
    Array.fold_left (fun acc r -> max acc r.bs_report.Runner.cycles) 0 streams
  in
  let agg_reports =
    Array.fold_left (fun acc r -> acc + r.bs_report.Runner.match_reports) 0 streams
  in
  let agg_cycles = max 1 agg_cycles in
  {
    streams;
    aggregate =
      {
        agg_streams = b;
        agg_chars;
        agg_cycles;
        agg_reports;
        agg_throughput_gchs =
          float_of_int agg_chars *. arch.Arch.clock_ghz /. float_of_int agg_cycles;
      };
  }

let pp_aggregate fmt a =
  Format.fprintf fmt "@[batch: %d streams, %d chars in %d cycles, %.2f Gch/s aggregate, %d reports@]"
    a.agg_streams a.agg_chars a.agg_cycles a.agg_throughput_gchs a.agg_reports
