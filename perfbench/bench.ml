(* perfbench: the repository's benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
     bench.exe --check-corruption

   Prints a run record (workload parameters, seed, host) and, as the last
   line of standard output, one JSON object with the keys [correct],
   [attempted], [failed] and [metrics]: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1 (see Spec).  --tiny
   shrinks the stream inputs for the self-test.  --check-corruption
   proves that the output check rejects corrupted reports and replies. *)

open Util

let json_string s = Printf.sprintf "%S" s

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let host () =
  let env k default = Option.value (Sys.getenv_opt k) ~default in
  json_object
    [
      ("nproc", env "PERFBENCH_NPROC" (string_of_int (Domain.recommended_domain_count ())));
      ("available_parallelism", string_of_int (Scheduler.available_parallelism ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("commit", json_string (env "PERFBENCH_COMMIT" "unknown"));
      ("source_digest", json_string (env "PERFBENCH_SOURCE" "unknown"));
    ]

let params_json (w : Spec.workload) =
  let i = string_of_int and f = json_number in
  let range (lo, hi) = Printf.sprintf "[%d, %d]" lo hi in
  match w.Spec.kind with
  | Spec.Stream s ->
      json_object
        [
          ("suite", json_string s.Spec.suite);
          ("chars", i s.Spec.chars);
          ("chunk", i s.Spec.chunk);
          ("jobs", i s.Spec.jobs);
          ("integrity", if s.Spec.integrity then json_string "default_config" else "null");
          ("checkpoint_every", match s.Spec.checkpoint_every with Some e -> i e | None -> "null");
          ("chunk_limit_ms", f s.Spec.chunk_limit_ms);
        ]
  | Spec.Serve s ->
      json_object
        [
          ("suite", json_string s.Spec.serve_suite);
          ("rate_per_s", f s.Spec.rate_per_s);
          ("small_share", f s.Spec.small_share);
          ("small_bytes", range s.Spec.small);
          ("large_bytes", range s.Spec.large);
          ("interactive_share", f s.Spec.interactive_share);
          ("deadline_s", f s.Spec.deadline_s);
          ("limit_ms", f s.Spec.limit_ms);
          ("group", i s.Spec.group);
          ("capacity", i s.Spec.capacity);
        ]

let tiny (w : Spec.workload) =
  match w.Spec.kind with
  | Spec.Stream s ->
      {
        w with
        Spec.kind =
          Spec.Stream
            {
              s with
              Spec.chars = 4096;
              chunk = 512;
              checkpoint_every = Option.map (fun _ -> 1024) s.Spec.checkpoint_every;
            };
      }
  | Spec.Serve _ -> w

let run (w : Spec.workload) ~seed ~seconds ~trace ~tmp =
  match w.Spec.kind with
  | Spec.Stream s ->
      let ctx, setup = Stream_bench.prepare s ~seed ~tmp in
      if trace then Stream_bench.trace ctx ~seconds ~setup else Stream_bench.measure ctx ~seconds
  | Spec.Serve s ->
      let ctx, setup = Serve_bench.prepare s in
      if trace then Serve_bench.trace ctx ~seed ~seconds ~setup
      else Serve_bench.measure ctx ~seed ~seconds

(* Every contract metric, in contract order, with timings scaled to the
   reference host speed (see [Util.calibrate]); a missing or non-finite
   value makes the run incorrect. *)
let emit (w : Spec.workload) ~seed ~seconds ~trace (r : result) =
  let in_scope = function
    | Spec.Both -> true
    | Spec.Streams -> ( match w.Spec.kind with Spec.Stream _ -> true | Spec.Serve _ -> false)
    | Spec.Serving -> ( match w.Spec.kind with Spec.Serve _ -> true | Spec.Stream _ -> false)
  in
  let contract =
    if trace then List.map (fun (name, unit, scope) -> (name, unit, in_scope scope)) Spec.per_layer
    else List.map (fun (name, unit) -> (name, unit, true)) Spec.end_to_end
  in
  let host_ms = median r.calibration in
  let scale = if host_ms > 0. then reference_ms /. host_ms else 1. in
  let at_reference unit v =
    match unit with "s" | "ms" -> v *. scale | "chars/s" -> v /. scale | _ -> v
  in
  let bad = ref [] in
  let metrics =
    List.map
      (fun (name, unit, measured) ->
        let v =
          match List.assoc_opt name r.metrics with
          | Some v when Float.is_finite v && measured -> at_reference unit v
          | None when not measured -> 0.
          | _ ->
              bad := name :: !bad;
              0.
        in
        (name, json_object [ ("value", json_number v); ("unit", json_string unit) ]))
      contract
  in
  let as_measured =
    List.filter_map
      (fun (name, unit, _) ->
        match (unit, List.assoc_opt name r.metrics) with
        | ("s" | "ms" | "chars/s"), Some v when Float.is_finite v -> Some (name, json_number v)
        | _ -> None)
      contract
  in
  List.iter
    (fun name -> Printf.eprintf "perfbench: metric %s missing, out of scope or not finite\n%!" name)
    !bad;
  print_endline
    (json_object
       [
         ( "perfbench",
           json_object
             ([
                ("workload", json_string w.Spec.name);
                ("seed", string_of_int seed);
                ("seconds", json_number seconds);
                ("trace", string_of_bool trace);
                ("params", params_json w);
                ("host", host ());
                ( "calibration",
                  json_object
                    [
                      ("loop_ms", json_number host_ms);
                      ("samples", string_of_int (List.length r.calibration));
                      ("reference_ms", json_number reference_ms);
                      ("scale", json_number scale);
                    ] );
                ("timings_at_run_host_speed", json_object as_measured);
              ]
             @ r.record) );
       ]);
  print_endline
    (json_object
       [
         ("correct", string_of_bool (r.failed = 0 && !bad = []));
         ("attempted", string_of_int r.attempted);
         ("failed", string_of_int r.failed);
         ("metrics", json_object metrics);
       ])

(* The output check must reject a report or reply that differs from the
   reference in any checked field. *)
let check_corruption () =
  let arch = Rap.rap_arch () and params = Program.default_params in
  let suite = Benchmarks.by_name "Snort" in
  let p, _ = Setup.once arch ~params suite.Benchmarks.regexes in
  let input = Inputs.stream_bytes (Inputs.pool suite) ~seed:1 ~chars:2048 in
  let r = Runner.run arch ~params p ~input in
  let energy_off =
    let e = Energy.create () in
    Energy.merge_into ~dst:e r.Runner.energy;
    let c = List.hd Energy.all_categories in
    Energy.add e c (Float.max 1e-3 (1e-6 *. Energy.get_pj e c));
    e
  in
  let corrupted =
    [
      ("chars", { r with Runner.chars = r.Runner.chars + 1 });
      ("cycles", { r with Runner.cycles = r.Runner.cycles + 1 });
      ("match_reports", { r with Runner.match_reports = r.Runner.match_reports + 1 });
      ("energy", { r with Runner.energy = energy_off });
      ( "degraded",
        { r with Runner.degraded = [ Sim_error.Stream_failed { detail = "injected" } ] } );
    ]
  in
  let stream_ok = same_report ~expect:r r in
  let caught = List.filter (fun (_, bad) -> not (same_report ~expect:r bad)) corrupted in
  let reply text =
    let outcome =
      {
        Admission.o_id = 0;
        o_name = "req-0";
        o_class = Wire.Bulk;
        o_report = Some r;
        o_text = text;
        o_error = None;
        o_recovered = false;
        o_queued_s = 0.;
        o_latency_s = 0.;
      }
    in
    let win =
      {
        Serve_bench.reqs = [| { Inputs.due_s = 0.; input; interactive = false } |];
        t0 = 0.;
        outcomes = [| Some outcome |];
        wall = 0.;
        words = 0.;
        lag_s = [];
        submit_s = 0.;
        run_pending_s = 0.;
        busy = [];
        heap_mb = [];
        sleep_s = 0.;
        bulk_per_call = [];
        shed = 0;
        calibration = [];
      }
    in
    (Serve_bench.good [| r |] win).(0)
  in
  let serve_ok = reply (Runner.render_report r) in
  let serve_caught =
    not (reply (Runner.render_report { r with Runner.cycles = r.Runner.cycles + 1 }))
  in
  Printf.printf "stream check: clean %b, caught %d/%d corruptions; serve check: clean %b, caught %b\n"
    stream_ok (List.length caught) (List.length corrupted) serve_ok serve_caught;
  stream_ok && List.length caught = List.length corrupted && serve_ok && serve_caught

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let small = ref false and corruption = ref false in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured duration");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--tiny", Arg.Set small, " tiny inputs, for the self-test");
      ("--check-corruption", Arg.Set corruption, " check that corrupted outputs are rejected");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !corruption then exit (if check_corruption () then 0 else 1);
  let w =
    match Spec.find !workload with
    | Some w -> if !small then tiny w else w
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.Spec.name) Spec.workloads));
        exit 2
  in
  if (!trace <> 0 && !trace <> 1) || !seconds <= 0. then begin
    prerr_endline usage;
    exit 2
  end;
  let base = ".perfbench_tmp" in
  let tmp = Filename.concat base (string_of_int (Unix.getpid ())) in
  (try Sys.mkdir base 0o755 with Sys_error _ -> ());
  Sys.mkdir tmp 0o755;
  let r =
    Fun.protect
      ~finally:(fun () ->
        remove_tree tmp;
        try Sys.rmdir base with Sys_error _ -> ())
      (fun () -> run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~tmp)
  in
  emit w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) r
