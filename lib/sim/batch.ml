(* See batch.mli. *)

type source = { src_name : string; src_open : unit -> Input_stream.t }

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

let run ?(jobs = 1) (arch : Arch.t) ~params (p : Mapper.placement) ~sources =
  let b = Array.length sources in
  if b = 0 then invalid_arg "Batch.run: no sources";
  (* one task per stream, each writing only its own slot.  A task is the
     whole single-stream driver, whose own per-array [parallel_for] runs
     inline when nested, so a stream running alone still gets array
     parallelism.  Each task steps a whole stream — far above the
     sequential-fallback threshold, so keep the streams parallel whenever
     jobs allows *)
  ignore params;
  (* built once; each stream steps its own clones and only reads this *)
  let prepared = Runner.build p in
  let slots = Array.make b None in
  Scheduler.parallel_for ~work_per_index:65536 ~jobs b (fun s ->
      let stream = sources.(s).src_open () in
      let report =
        Fun.protect
          ~finally:(fun () -> Input_stream.close stream)
          (fun () -> Runner.run_prepared ~jobs arch prepared ~stream)
      in
      slots.(s) <- Some { bs_name = sources.(s).src_name; bs_report = report });
  let streams = Array.map Option.get slots in
  let sum f = Array.fold_left (fun acc r -> acc + f r.bs_report) 0 streams in
  let agg_chars = sum (fun r -> r.Runner.chars) in
  let agg_cycles =
    Int.max 1 (Array.fold_left (fun acc r -> Int.max acc r.bs_report.Runner.cycles) 0 streams)
  in
  {
    streams;
    aggregate =
      {
        agg_streams = b;
        agg_chars;
        agg_cycles;
        agg_reports = sum (fun r -> r.Runner.match_reports);
        agg_throughput_gchs =
          float_of_int agg_chars *. arch.Arch.clock_ghz /. float_of_int agg_cycles;
      };
  }

let pp_aggregate fmt a =
  Format.fprintf fmt "@[batch: %d streams, %d chars in %d cycles, %.2f Gch/s aggregate, %d reports@]"
    a.agg_streams a.agg_chars a.agg_cycles a.agg_throughput_gchs a.agg_reports
