(* rap — command-line front end.

   Subcommands mirror both the library's two entry points (software
   matching and hardware simulation) and the paper artifact's evaluation
   driver (main_gap.py --data ... --task ...):

     rap match    REGEX [INPUT|-]         find matches with the reference engine
     rap compile  REGEX...                show the mode decision and resources
     rap simulate -e REGEX... [INPUT|-]   run the RAP simulator on a rule set
     rap batch    -e REGEX... FILE...     serve many streams against one placement
     rap faults   -e REGEX... --rate R [INPUT|-]   seeded fault-injection campaign
     rap serve    -e REGEX... --socket S  always-on match daemon (admission control,
                                          deadlines, load shedding, crash recovery)
     rap client   --socket S [INPUT|-]    submit one request to a running daemon
     rap eval     --data Snort,Yara --task DSE|NBVA|LNFA|ASIC|ALL|...

   Exit codes are uniform across subcommands: 0 success, 1 runtime
   failure, 2 usage or input error, 3 strict-mode degradation
   (--strict), 4 request shed by the daemon (client only).
*)

open Cmdliner

let fail_input msg =
  Printf.eprintf "error: %s\n" msg;
  exit 2

let catch_stream f = try f () with Sim_error.Error e -> fail_input (Sim_error.message e)

(* A NaN deadline would never expire, nor would an infinite one, and one
   of zero or less would expire before any work: all are usage errors. *)
let check_deadline = function
  | Some d when not (Float.is_finite d && d > 0.) ->
      fail_input (Printf.sprintf "--deadline must be a finite number of seconds above 0 (got %g)" d)
  | _ -> ()

(* a positional operand that was probably meant as a file path *)
let looks_like_path s =
  s <> ""
  && (String.contains s '/' || s.[0] = '.' || s.[0] = '~'
     || List.exists (Filename.check_suffix s) [ ".txt"; ".log"; ".pcap"; ".dat"; ".bin" ])

let file_arg =
  Arg.(value
       & opt (some string) None
       & info [ "file" ] ~docv:"PATH"
           ~doc:"Read input from $(docv) (unlike the positional operand, never a literal; \
                 a missing or unreadable file is an error).")

(* [--file] wins over the positional operand; positional keeps the
   path-if-it-exists-else-literal convenience, with a warning.  All
   sources arrive as chunked streams: files and stdin are consumed in
   fixed-size buffers, never materialised. *)
let stream_of_input ?chunk ~file pos =
  match (file, pos) with
  | Some path, _ -> Some (catch_stream (fun () -> Input_stream.of_file ?chunk path))
  | None, Some "-" -> Some (Input_stream.of_stdin ?chunk ())
  | None, Some path when Sys.file_exists path ->
      Some (catch_stream (fun () -> Input_stream.of_file ?chunk path))
  | None, Some literal ->
      if looks_like_path literal then
        Printf.eprintf
          "warning: no such file %S; treating it as literal input (use --file to force a path)\n"
          literal;
      Some (Input_stream.of_string ?chunk literal)
  | None, None -> None

let required_stream ?chunk ~file pos =
  match stream_of_input ?chunk ~file pos with
  | Some s -> s
  | None -> fail_input "no input (give INPUT, '-' for stdin, or --file PATH)"

(* ---- rap match ---- *)

let match_cmd =
  let regex = Arg.(required & pos 0 (some string) None & info [] ~docv:"REGEX") in
  let input =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"INPUT" ~doc:"Input text, a file path, or - for stdin.")
  in
  let count_only = Arg.(value & flag & info [ "c"; "count" ] ~doc:"Print only the match count.") in
  let run regex input file count_only =
    match Rap.matcher regex with
    | Error e ->
        Printf.eprintf "regex error: %s\n" e;
        exit 2
    | Ok m -> (
        let engine =
          match Rap.engine_kind m with
          | Rap.Nfa_engine -> "NFA"
          | Rap.Nbva_engine -> "NBVA"
          | Rap.Shift_and_engine -> "Shift-And"
        in
        match stream_of_input ~file input with
        | None ->
            Printf.printf "engine: %s\n" engine;
            0
        | Some stream ->
            (* streaming session: input is consumed chunk by chunk, so
               matching a multi-GB file needs O(chunk) memory *)
            let s = Rap.session m in
            let ends = ref [] in
            catch_stream (fun () ->
                let rec loop () =
                  match Input_stream.next stream with
                  | None -> ()
                  | Some chunk ->
                      List.iter (fun p -> ends := p :: !ends) (Rap.session_feed s chunk);
                      loop ()
                in
                loop ());
            Input_stream.close stream;
            let ends = List.rev_append !ends (Rap.session_finish s) in
            if count_only then Printf.printf "%d\n" (List.length ends)
            else begin
              Printf.printf "engine: %s, %d match(es)\n" engine (List.length ends);
              List.iter (fun p -> Printf.printf "  match ending at offset %d\n" p) ends
            end;
            if ends = [] then 1 else 0)
  in
  let doc = "Match a regex against input with the reference software engine." in
  Cmd.v (Cmd.info "match" ~doc) Term.(const run $ regex $ input $ file_arg $ count_only)

(* ---- rap compile ---- *)

let compile_cmd =
  let regexes = Arg.(non_empty & pos_all string [] & info [] ~docv:"REGEX") in
  let threshold =
    Arg.(value & opt int Program.default_params.Program.unfold_threshold
         & info [ "threshold" ] ~doc:"Unfolding threshold for bounded repetitions.")
  in
  let depth =
    Arg.(value & opt int Program.default_params.Program.bv_depth
         & info [ "depth" ] ~doc:"BV depth (rows per BV word).")
  in
  let run regexes threshold depth =
    let params =
      { Program.default_params with Program.unfold_threshold = threshold; bv_depth = depth }
    in
    let ok = ref true in
    List.iter
      (fun src ->
        match Mode_select.parse_and_compile ~params src with
        | Error e ->
            ok := false;
            Printf.printf "%-40s ERROR [%s]: %s\n" src
              (Compile_error.reason_label e.Compile_error.reason)
              (Compile_error.message e)
        | Ok c ->
            let k = c.Program.kind in
            Printf.printf "%-40s %-5s states=%-5d tiles=%d\n" src (Program.mode_name k)
              (Program.num_states k) (Program.num_tiles k))
      regexes;
    if !ok then 0 else 1
  in
  let doc = "Show the mode decision (Fig 9) and hardware resources per regex." in
  Cmd.v (Cmd.info "compile" ~doc) Term.(const run $ regexes $ threshold $ depth)

(* ---- rap simulate ---- *)

let regexes_arg =
  Arg.(non_empty & opt_all string [] & info [ "e"; "regex" ] ~docv:"REGEX" ~doc:"A rule (repeatable).")

let pos_input_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"INPUT" ~doc:"Input text, file, or -.")

let arch_arg =
  Arg.(value & opt (enum [ ("rap", `Rap); ("cama", `Cama); ("ca", `Ca); ("bvap", `Bvap) ]) `Rap
       & info [ "arch" ] ~doc:"Architecture to simulate.")

let arch_of = function
  | `Rap -> Rap.rap_arch ()
  | `Cama -> Arch.cama
  | `Ca -> Arch.ca
  | `Bvap -> Arch.bvap

let required_input ~file pos =
  let stream = required_stream ~file pos in
  catch_stream (fun () ->
      let text = Input_stream.read_all stream in
      Input_stream.close stream;
      text)

(* One string for stdout, --report-dir files and daemon replies, so a
   stream's report is byte-diffable against `rap simulate` output
   however it was served. *)
let report_text = Runner.render_report

let print_report report = print_string (report_text report)

(* The uniform exit-code contract (also in the README):
   0 success / 1 runtime failure / 2 usage / 3 strict degraded /
   4 shed (client).  [Cmd.Exit.defaults] documents 0 and cmdliner's
   123-125 range. *)
let common_exits =
  Cmd.Exit.defaults
  @ [
      Cmd.Exit.info 1 ~doc:"on runtime failure (simulation error, no match, rules dropped).";
      Cmd.Exit.info 2 ~doc:"on usage or input errors.";
      Cmd.Exit.info 3
        ~doc:"when $(b,--strict) is set and the run completed degraded (quarantined arrays, \
              dropped rules, or missed matches).";
    ]

let client_exits =
  common_exits
  @ [ Cmd.Exit.info 4 ~doc:"when the daemon shed the request (overload or quarantine)." ]

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Simulate up to $(docv) arrays in parallel (0 picks a machine-sized default). \
                 Results are bit-identical for every value.")

let resolve_jobs = function
  | 0 -> Scheduler.default_jobs ()
  | n when n >= 1 -> n
  | n ->
      Printf.eprintf "error: --jobs %d is not a positive worker count\n" n;
      exit 2

let kernel_arg =
  Arg.(value
       & opt (enum [ ("bitparallel", Nbva.Bit_parallel); ("reference", Nbva.Reference) ])
           Nbva.Bit_parallel
       & info [ "kernel" ] ~docv:"KERNEL"
           ~doc:"Stepping kernel: $(b,bitparallel) (default) uses the packed-mask \
                 bit-parallel kernel and skips engines with no live state on bytes that \
                 cannot wake them; $(b,reference) forces the scalar reference stepper \
                 on every engine at every symbol.  Output is bit-identical either way \
                 — the flag exists for differential testing.")

let integrity_flag =
  Arg.(value & flag
       & info [ "integrity" ]
           ~doc:"Arm the online integrity layer: checksum-sealed compiled tables, arena guard \
                 words and a sampled shadow-replay sentinel.  A detected violation rolls \
                 the array back to the chunk start, repairs the tables from pristine \
                 copies and re-executes; an array that keeps tripping is quarantined with \
                 a typed degraded error.  Off by default (and then strictly zero-cost).")

let sweep_every_arg =
  Arg.(value & opt (some int) None
       & info [ "sweep-every" ] ~docv:"N"
           ~doc:"With $(b,--integrity): re-verify table checksums and arena guards at the \
                 first chunk boundary after every $(docv) symbols (0 disables sweeps; \
                 checkpoint-time verification still runs).")

let sentinel_every_arg =
  Arg.(value & opt (some int) None
       & info [ "sentinel-every" ] ~docv:"N"
           ~doc:"With $(b,--integrity): shadow-replay a sampled window through the \
                 reference kernel every $(docv) symbols (0 disables the sentinel).")

let integrity_config on sweep sentinel =
  if not (on || sweep <> None || sentinel <> None) then None
  else
    let d = Integrity.default_config () in
    Some
      {
        d with
        Integrity.sweep_every = Option.value sweep ~default:d.Integrity.sweep_every;
        sentinel_every = Option.value sentinel ~default:d.Integrity.sentinel_every;
      }

(* Stats go to stderr so stdout stays byte-identical to an unarmed run. *)
let note_integrity = function
  | None -> ()
  | Some cfg ->
      let st = cfg.Integrity.stats in
      Printf.eprintf
        "integrity: %d sweep(s), %d sentinel window(s), %d detection(s) (%d crc / %d guard \
         / %d sentinel), %d repair(s), %d heal(s), %d quarantine(s)\n%!"
        st.Integrity.sweeps st.Integrity.sentinel_checks
        (Integrity.detections st)
        st.Integrity.crc_trips st.Integrity.guard_trips st.Integrity.sentinel_trips
        st.Integrity.repairs st.Integrity.heals st.Integrity.quarantines

(* Parse a rule list, reporting what was rejected like the fault driver
   does; exits when nothing survives. *)
let parse_rules regexes =
  let parsed, parse_errors =
    List.fold_left
      (fun (ok, errs) src ->
        match Parser.parse_result src with
        | Ok p -> ((src, p.Parser.ast) :: ok, errs)
        | Error e -> (ok, Compile_error.v src (Compile_error.Parse_error e) :: errs))
      ([], []) regexes
  in
  List.iter
    (fun e -> Format.eprintf "dropped: %a@." Compile_error.pp e)
    (List.rev parse_errors);
  match List.rev parsed with
  | [] ->
      Printf.eprintf "error: no regex parsed\n";
      exit 2
  | parsed -> parsed

(* The rule-set set-up [simulate], [batch] and [serve] share: parse,
   then [Runner.prepare], with each dropped rule on stderr.  [None] once
   "error: no regex compiled" is printed; otherwise the placement and
   how many rules were dropped at parse, compile or placement time. *)
let prepare_rules arch ~params regexes =
  let parsed = parse_rules regexes in
  let placement, errors = Runner.prepare arch ~params parsed in
  List.iter (fun e -> Format.eprintf "dropped: %a@." Compile_error.pp e) errors;
  if Array.length placement.Mapper.units = 0 then begin
    Printf.eprintf "error: no regex compiled\n";
    None
  end
  else Some (placement, List.length regexes - List.length parsed + List.length errors)

let simulate_cmd =
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Dump the per-symbol metrics stream (active states, stalls, reports, energy \
                   by category) to $(docv); a .json suffix selects JSON, anything else CSV.")
  in
  let ckpt_dir =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"DIR"
             ~doc:"Write crash-consistent run snapshots into $(docv); combined with \
                   $(b,--resume), continue a killed run from its last snapshot with a \
                   bit-identical final report.")
  in
  let ckpt_every =
    Arg.(value & opt int Checkpoint.default_every
         & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:"Snapshot at the first chunk boundary after every $(docv) input symbols.")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Restore the snapshot in the $(b,--checkpoint) directory (if any) and \
                   continue from it.  The input must be seekable (a file or literal, not \
                   stdin) and identical to the original run's.")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Exit with status 3 when the run completes degraded (quarantined arrays).")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"Supervise the run: per-array wall-clock budget per chunk attempt; a \
                   timed-out array is retried, then quarantined.")
  in
  let retries =
    Arg.(value & opt (some int) None
         & info [ "retries" ] ~docv:"N"
             ~doc:"Supervise the run: retry a crashed or timed-out array $(docv) times \
                   (with exponential backoff) before quarantining it.")
  in
  let chunk =
    Arg.(value & opt int Input_stream.default_chunk
         & info [ "chunk" ] ~docv:"BYTES"
             ~doc:"Streaming chunk size; checkpoints land on chunk boundaries.")
  in
  let run regexes input file arch jobs kernel trace ckpt_dir ckpt_every resume strict deadline
      retries chunk integrity sweep_every sentinel_every =
    if chunk <= 0 then fail_input "--chunk must be positive";
    check_deadline deadline;
    Nbva.kernel := kernel;
    let integrity = integrity_config integrity sweep_every sentinel_every in
    let stream = required_stream ~chunk ~file input in
    let jobs = resolve_jobs jobs in
    let arch = arch_of arch in
    let params = Program.default_params in
    if ckpt_every <= 0 then fail_input "--checkpoint-every must be positive";
    if resume && ckpt_dir = None then fail_input "--resume requires --checkpoint DIR";
    let checkpoint =
      Option.map (fun dir -> { Checkpoint.dir; every = ckpt_every }) ckpt_dir
    in
    let policy =
      match (deadline, retries) with
      | None, None -> None
      | d, r ->
          Some
            {
              Scheduler.default_policy with
              Scheduler.deadline_s = d;
              retries = Option.value r ~default:Scheduler.default_policy.Scheduler.retries;
            }
    in
    match prepare_rules arch ~params regexes with
    | None -> 1
    | Some (placement, _) ->
      let num_arrays = Array.length placement.Mapper.arrays in
      (* resume note before the (possibly long) run, so an operator
         watching stderr sees where the run picked up *)
      (match checkpoint with
      | Some { Checkpoint.dir; _ } when resume -> (
          match Checkpoint.load ~dir with
          | Ok (Some ck) ->
              Printf.eprintf "resuming from %s at symbol %d (%d array(s) degraded)\n%!"
                (Checkpoint.state_path ~dir) ck.Checkpoint.ck_symbols
                (List.length ck.Checkpoint.ck_degraded)
          | Ok None -> Printf.eprintf "no checkpoint in %s yet; starting fresh\n%!" dir
          | Error e -> fail_input (Sim_error.message e))
      | _ -> ());
      let trace_sink =
        Option.map
          (fun path ->
            let format = Sink.trace_format_of_path path in
            let spec, dump = Sink.trace arch ~format ~num_arrays in
            (path, spec, dump))
          trace
      in
      let sinks = match trace_sink with Some (_, spec, _) -> [ spec ] | None -> [] in
      match
        Runner.run_stream ~jobs ~sinks ?policy ?integrity ?checkpoint ~resume arch
          ~params placement ~stream
      with
      | exception Sim_error.Error e ->
          Printf.eprintf "error: %s\n" (Sim_error.message e);
          1
      | report ->
          Input_stream.close stream;
          print_report report;
          note_integrity integrity;
          Option.iter
            (fun (path, _, dump) ->
              let oc = open_out path in
              Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> dump oc);
              Printf.printf "wrote trace to %s\n" path)
            trace_sink;
          if report.Runner.degraded <> [] then begin
            Printf.eprintf "degraded run: %d array(s) quarantined\n"
              (List.length report.Runner.degraded);
            if strict then 3 else 0
          end
          else 0
  in
  let doc = "Run a rule set through the cycle-level hardware simulator." in
  Cmd.v (Cmd.info "simulate" ~doc ~exits:common_exits)
    Term.(const run $ regexes_arg $ pos_input_arg $ file_arg $ arch_arg $ jobs_arg $ kernel_arg
          $ trace $ ckpt_dir $ ckpt_every $ resume $ strict $ deadline $ retries $ chunk
          $ integrity_flag $ sweep_every_arg $ sentinel_every_arg)

(* ---- rap batch ---- *)

let batch_cmd =
  let files =
    Arg.(value & pos_all string []
         & info [] ~docv:"FILE" ~doc:"An input stream file (one stream per file, repeatable).")
  in
  let manifest =
    Arg.(value & opt (some string) None
         & info [ "manifest" ] ~docv:"LIST"
             ~doc:"Read additional stream paths from $(docv), one per line ($(b,-) reads the \
                   list from stdin); blank lines and $(b,#) comments are skipped.")
  in
  let chunk =
    Arg.(value & opt int Input_stream.default_chunk
         & info [ "chunk" ] ~docv:"BYTES" ~doc:"Streaming chunk size per stream.")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Exit with status 3 when any rule is dropped: it does not parse, compile \
                   or fit one array.")
  in
  let report_dir =
    Arg.(value & opt (some string) None
         & info [ "report-dir" ] ~docv:"DIR"
             ~doc:"Also write each stream's report to $(docv)/$(i,stream).report, \
                   byte-identical to what $(b,rap simulate) prints for that input alone.  \
                   Report names come from the sanitized file basename; a stream set where \
                   two paths map to the same name, or a $(docv) that exists but is not a \
                   directory, is rejected before running.")
  in
  let report_name path =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' | '_' -> c | _ -> '_')
      (Filename.basename path)
    ^ ".report"
  in
  let run regexes files manifest arch jobs chunk strict report_dir =
    if chunk <= 0 then fail_input "--chunk must be positive";
    let manifest_paths =
      match manifest with
      | None -> []
      | Some src ->
          let read_lines ic =
            let rec loop acc =
              match input_line ic with
              | line -> loop (line :: acc)
              | exception End_of_file -> List.rev acc
            in
            loop []
          in
          let lines =
            if src = "-" then read_lines stdin
            else
              match open_in src with
              | ic -> Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> read_lines ic)
              | exception Sys_error msg -> fail_input msg
          in
          List.filter
            (fun l -> l <> "" && l.[0] <> '#')
            (List.map String.trim lines)
    in
    let paths = files @ manifest_paths in
    if paths = [] then fail_input "no input streams (give FILE... and/or --manifest LIST)";
    List.iter
      (fun p -> if not (Sys.file_exists p) then fail_input (Printf.sprintf "no such file %s" p))
      paths;
    (* refuse before any work is done: a report path that is not a
       directory, or two streams sharing a report name (one report would
       silently overwrite the other) *)
    Option.iter
      (fun dir ->
        if Sys.file_exists dir && not (Sys.is_directory dir) then
          fail_input (Printf.sprintf "--report-dir: %s exists and is not a directory" dir);
        let seen = Hashtbl.create 16 in
        List.iter
          (fun p ->
            let name = report_name p in
            match Hashtbl.find_opt seen name with
            | Some first ->
                fail_input
                  (Printf.sprintf "--report-dir: streams %s and %s would both write %s" first p
                     name)
            | None -> Hashtbl.add seen name p)
          paths)
      report_dir;
    let jobs = resolve_jobs jobs in
    let arch = arch_of arch in
    let params = Program.default_params in
    match prepare_rules arch ~params regexes with
    | None -> 1
    | Some (placement, dropped) ->
      let sources =
        Array.of_list (List.map (fun p -> Batch.of_file ~chunk ~name:p p) paths)
      in
      match Batch.run ~jobs arch ~params placement ~sources with
      | exception Sim_error.Error e ->
          Printf.eprintf "error: %s\n" (Sim_error.message e);
          1
      | b ->
          Array.iter
            (fun (s : Batch.stream_report) ->
              Printf.printf "== stream %s ==\n" s.Batch.bs_name;
              print_report s.Batch.bs_report)
            b.Batch.streams;
          Format.printf "%a@." Batch.pp_aggregate b.Batch.aggregate;
          let write_reports dir =
            (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
            Array.iter
              (fun (s : Batch.stream_report) ->
                let path = Filename.concat dir (report_name s.Batch.bs_name) in
                let oc = open_out path in
                Fun.protect
                  ~finally:(fun () -> close_out_noerr oc)
                  (fun () -> output_string oc (report_text s.Batch.bs_report));
                Printf.printf "wrote %s\n" path)
              b.Batch.streams
          in
          match Option.iter write_reports report_dir with
          | exception Sys_error msg ->
              Printf.eprintf "error: %s\n" msg;
              1
          | () when strict && dropped > 0 ->
              Printf.eprintf "strict: %d rule(s) dropped at parse, compile or placement time\n"
                dropped;
              3
          | () -> 0
  in
  let doc =
    "Run many independent input streams against one shared compiled placement, one task per \
     stream through the same driver as $(b,rap simulate), so per-stream reports are \
     bit-identical to solo runs."
  in
  Cmd.v (Cmd.info "batch" ~doc ~exits:common_exits)
    Term.(const run $ regexes_arg $ files $ manifest $ arch_arg $ jobs_arg $ chunk $ strict
          $ report_dir)

(* ---- rap faults ---- *)

let faults_cmd =
  let rates =
    Arg.(value & opt string "0"
         & info [ "rate" ] ~docv:"R[,R...]"
             ~doc:"Transient per-bit per-cycle flip rate; a comma-separated list sweeps a \
                   degradation curve.")
  in
  let seed = Arg.(value & opt int Fault.default_config.Fault.seed
                  & info [ "seed" ] ~doc:"Campaign seed (campaigns are deterministic per seed).") in
  let trials = Arg.(value & opt int Fault.default_config.Fault.trials
                    & info [ "trials" ] ~doc:"Seeded transient-fault trials per rate.") in
  let cell_rate =
    Arg.(value & opt float 0.
         & info [ "defect-rate" ] ~doc:"Per-CAM-column stuck-at probability (permanent).")
  in
  let tile_rate =
    Arg.(value & opt float 0. & info [ "tile-defect-rate" ] ~doc:"Per-tile dead probability.")
  in
  let switch_rate =
    Arg.(value & opt float 0.
         & info [ "switch-defect-rate" ] ~doc:"Per-crossbar-switch-row stuck-at probability.")
  in
  let spares =
    Arg.(value & opt int Defect.default_spare_cols
         & info [ "spares" ] ~doc:"Spare CAM columns per tile (repair pool).")
  in
  let arrays =
    Arg.(value & opt int Fault.default_config.Fault.chip_arrays
         & info [ "arrays" ] ~doc:"Physical arrays on the sampled chip.")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Exit with status 3 when the campaign degrades: any rule dropped by \
                   defect-aware mapping, or any trial missing or fabricating matches.")
  in
  let run regexes input file arch rates seed trials cell_rate tile_rate switch_rate spares arrays
      strict =
    let input = required_input ~file input in
    let arch = arch_of arch in
    let params = Program.default_params in
    let parsed = parse_rules regexes in
    let rates =
      List.map
        (fun s ->
          match float_of_string_opt (String.trim s) with
          | Some r when r >= 0. && r <= 1. -> r
          | _ ->
              Printf.eprintf "error: --rate %S is not a probability in [0,1]\n" s;
              exit 2)
        (String.split_on_char ',' rates)
    in
    let base =
      {
        Fault.default_config with
        Fault.seed;
        trials;
        cell_defect_rate = cell_rate;
        tile_defect_rate = tile_rate;
        switch_defect_rate = switch_rate;
        spare_cols = spares;
        chip_arrays = arrays;
      }
    in
    let status = ref 0 in
    List.iteri
      (fun i rate ->
        let config = { base with Fault.transient_rate = rate } in
        match Fault.campaign ~arch ~params ~config parsed ~input with
        | Error e ->
            Printf.eprintf "error: %s\n" e;
            status := 1
        | Ok o ->
            if i = 0 then print_report o.Fault.o_baseline;
            Format.printf "== fault campaign: rate=%g seed=%d trials=%d ==@.%a@." rate seed
              trials Fault.pp_outcome o;
            if strict then begin
              let dropped = o.Fault.o_drops <> [] || o.Fault.o_baseline_drops <> [] in
              let faulty =
                List.exists
                  (fun t -> t.Fault.t_missed > 0 || t.Fault.t_false > 0)
                  o.Fault.o_trials
              in
              if dropped || faulty then begin
                Printf.eprintf "strict: campaign degraded (%s)\n"
                  (if dropped then "rules dropped" else "matches missed or fabricated");
                status := 3
              end
            end)
      rates;
    !status
  in
  let doc =
    "Run a seeded fault-injection campaign: defect-aware mapping plus per-cycle transient \
     bit flips, cross-checked against the software reference."
  in
  Cmd.v (Cmd.info "faults" ~doc ~exits:common_exits)
    Term.(const run $ regexes_arg $ pos_input_arg $ file_arg $ arch_arg $ rates $ seed $ trials
          $ cell_rate $ tile_rate $ switch_rate $ spares $ arrays $ strict)

(* ---- rap chaos ---- *)

let chaos_cmd =
  let seed =
    Arg.(value & opt int Fault.default_chaos_config.Fault.c_seed
         & info [ "seed" ] ~doc:"Campaign seed (campaigns are deterministic per seed).")
  in
  let trials =
    Arg.(value & opt int Fault.default_chaos_config.Fault.c_trials
         & info [ "trials" ] ~doc:"Single-flip trials to run.")
  in
  let chunk =
    Arg.(value & opt int Fault.default_chaos_config.Fault.c_chunk
         & info [ "chunk" ] ~docv:"BYTES"
             ~doc:"Streaming chunk size — the rollback/re-execution grain.")
  in
  let table_share =
    Arg.(value & opt float Fault.default_chaos_config.Fault.c_table_share
         & info [ "table-share" ] ~docv:"F"
             ~doc:"Fraction of trials that flip a compiled-table bit instead of a stored \
                   state bit.")
  in
  let rand_chars =
    Arg.(value & opt (some int) None
         & info [ "rand-chars" ] ~docv:"N"
             ~doc:"Generate a seeded random printable input of $(docv) characters instead \
                   of reading INPUT.")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write the campaign metrics (rates, MTTD, MTTR, gate booleans) as \
                   JSON to $(docv), atomically.")
  in
  let run regexes input file arch seed trials chunk table_share rand_chars json =
    if chunk <= 0 then fail_input "--chunk must be positive";
    if table_share < 0. || table_share > 1. then fail_input "--table-share must be in [0,1]";
    let input =
      match rand_chars with
      | Some n when n > 0 ->
          let rng = Fault.make_rng seed in
          String.init n (fun _ -> Char.chr (32 + Fault.rand_int rng 95))
      | Some _ -> fail_input "--rand-chars must be positive"
      | None -> required_input ~file input
    in
    let arch = arch_of arch in
    let params = Program.default_params in
    let parsed = parse_rules regexes in
    let config =
      { Fault.c_seed = seed; c_trials = trials; c_chunk = chunk; c_table_share = table_share }
    in
    match Fault.chaos ~arch ~params ~config parsed ~input with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        1
    | Ok o ->
        List.iter
          (fun e -> Format.eprintf "dropped: %a@." Compile_error.pp e)
          o.Fault.co_compile_errors;
        Format.printf "%a@." Fault.pp_chaos_outcome o;
        Option.iter
          (fun path ->
            let b = Buffer.create 512 in
            Buffer.add_string b "{\n";
            let kv last k v =
              Buffer.add_string b (Printf.sprintf "  %S: %s%s\n" k v (if last then "" else ","))
            in
            kv false "seed" (string_of_int seed);
            kv false "trials" (string_of_int trials);
            kv false "injected" (string_of_int (Fault.chaos_injected o));
            kv false "detected" (string_of_int (Fault.chaos_detected o));
            kv false "benign" (string_of_int (Fault.chaos_benign o));
            kv false "silent_wrong" (string_of_int (Fault.chaos_silent_wrong o));
            kv false "recovered" (string_of_int (Fault.chaos_recovered o));
            kv false "degraded_typed" (string_of_int (Fault.chaos_degraded_typed o));
            kv false "heals" (string_of_int (Fault.chaos_heals o));
            kv false "quarantines" (string_of_int (Fault.chaos_quarantines o));
            kv false "detection_rate" (Printf.sprintf "%.6f" (Fault.chaos_detection_rate o));
            kv false "mttd_syms" (Printf.sprintf "%.3f" (Fault.chaos_mttd_syms o));
            kv false "mttr_s" (Printf.sprintf "%.6f" (Fault.chaos_mttr_s o));
            kv false "integrity_detection_ok"
              (string_of_bool (Fault.chaos_detection_ok o));
            kv true "integrity_recovery_ok" (string_of_bool (Fault.chaos_recovery_ok o));
            Buffer.add_string b "}\n";
            Artifact.write ~path (Buffer.contents b);
            Printf.printf "wrote %s\n" path)
          json;
        if Fault.chaos_detection_ok o && Fault.chaos_recovery_ok o then 0 else 1
  in
  let doc =
    "Run a seeded runtime chaos campaign: one bit flip per trial into live run state or \
     compiled tables, against a run armed with wall-to-wall integrity checking; reports \
     detection rate, MTTD, MTTR and recovery success, and fails unless every harmful flip \
     was detected and every detected fault recovered bit-identically or surfaced typed."
  in
  Cmd.v (Cmd.info "chaos" ~doc ~exits:common_exits)
    Term.(const run $ regexes_arg $ pos_input_arg $ file_arg $ arch_arg $ seed $ trials $ chunk
          $ table_share $ rand_chars $ json)

(* ---- rap serve ---- *)

let socket_arg =
  Arg.(required
       & opt (some string) None
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix domain socket of the match daemon.")

let serve_cmd =
  let capacity =
    Arg.(value & opt int Admission.default_config.Admission.capacity
         & info [ "capacity" ] ~docv:"N"
             ~doc:"Admission queue bound: a Finish arriving with $(docv) requests already \
                   queued is shed with a typed $(i,Overloaded) reply instead of stalling \
                   every client behind it.")
  in
  let max_input =
    Arg.(value & opt int Admission.default_config.Admission.max_input
         & info [ "max-input" ] ~docv:"BYTES"
             ~doc:"Per-request input cap; an over-limit stream is refused while arriving.")
  in
  let group =
    Arg.(value & opt int Admission.default_config.Admission.group
         & info [ "group" ] ~docv:"K"
             ~doc:"Queued requests executed per round between socket polls; per-request \
                   reports stay bit-identical to solo runs for every value.")
  in
  let retries =
    Arg.(value & opt int Admission.default_config.Admission.retries
         & info [ "retries" ] ~docv:"N" ~doc:"Re-execution attempts for a failed request.")
  in
  let backoff =
    Arg.(value & opt float Admission.default_config.Admission.backoff_s
         & info [ "backoff" ] ~docv:"SECONDS"
             ~doc:"Base retry backoff (exponential, capped at the request's remaining \
                   deadline).")
  in
  let quarantine_after =
    Arg.(value & opt int Admission.default_config.Admission.quarantine_after
         & info [ "quarantine-after" ] ~docv:"N"
             ~doc:"Consecutive faults before a stream name is refused at admission.")
  in
  let state_dir =
    Arg.(value & opt (some string) None
         & info [ "state-dir" ] ~docv:"DIR"
             ~doc:"Spool accepted requests in $(docv) until their reply is delivered; after \
                   a crash, a restarted daemon replays the spool and writes each report next \
                   to its entry — accepted work is never lost.")
  in
  let write_budget =
    Arg.(value & opt int (8 * 1024 * 1024)
         & info [ "write-budget" ] ~docv:"BYTES"
             ~doc:"Per-connection reply buffer bound; a client that stops reading past it \
                   is dropped (slow-client backpressure).")
  in
  let max_requests =
    Arg.(value & opt (some int) None
         & info [ "max-requests" ] ~docv:"N"
             ~doc:"Exit after $(docv) completed requests ($(b,0): replay the crash-recovery \
                   spool and exit without serving).  Default: serve until SIGTERM or a \
                   Shutdown frame.")
  in
  let run regexes arch jobs socket capacity max_input group retries backoff quarantine_after
      state_dir write_budget max_requests integrity sweep_every sentinel_every =
    if capacity <= 0 then fail_input "--capacity must be positive";
    if group <= 0 then fail_input "--group must be positive";
    if max_input <= 0 then fail_input "--max-input must be positive";
    if retries < 0 then fail_input "--retries must be non-negative";
    if quarantine_after <= 0 then fail_input "--quarantine-after must be positive";
    (match max_requests with
    | Some n when n < 0 -> fail_input "--max-requests must be non-negative"
    | _ -> ());
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Info);
    let jobs = resolve_jobs jobs in
    let arch = arch_of arch in
    let params = Program.default_params in
    match prepare_rules arch ~params regexes with
    | None -> 1
    | Some (placement, _) ->
      let cfg =
        {
          Daemon.socket_path = socket;
          admission =
            {
              Admission.capacity;
              max_input;
              group;
              jobs;
              retries;
              backoff_s = backoff;
              quarantine_after;
              state_dir;
              integrity = integrity_config integrity sweep_every sentinel_every;
            };
          write_budget;
          max_requests;
        }
      in
      match Daemon.serve cfg arch ~params placement with
      | () -> 0
      | exception Sim_error.Error e ->
          Printf.eprintf "error: %s\n" (Sim_error.message e);
          1
  in
  let doc =
    "Run the always-on match daemon: concurrent client streams multiplexed onto one \
     compiled placement, with bounded admission, per-request deadlines, typed load \
     shedding, slow-client backpressure, crash recovery and (with $(b,--integrity)) \
     online integrity checking with self-healing."
  in
  Cmd.v (Cmd.info "serve" ~doc ~exits:common_exits)
    Term.(const run $ regexes_arg $ arch_arg $ jobs_arg $ socket_arg $ capacity $ max_input
          $ group $ retries $ backoff $ quarantine_after $ state_dir $ write_budget
          $ max_requests $ integrity_flag $ sweep_every_arg $ sentinel_every_arg)

(* ---- rap client ---- *)

let client_cmd =
  let name_arg =
    Arg.(value & opt (some string) None
         & info [ "name" ] ~docv:"NAME"
             ~doc:"Stream name (quarantine identity); defaults to the input file path.")
  in
  let class_ =
    Arg.(value
         & opt (enum [ ("interactive", Wire.Interactive); ("bulk", Wire.Bulk) ]) Wire.Bulk
         & info [ "class" ] ~doc:"SLO class: $(b,interactive) or $(b,bulk).")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"End-to-end deadline (queue wait included); an expired request fails \
                   typed, a timing-out run degrades like supervised $(b,rap simulate).")
  in
  let wait =
    Arg.(value & opt float 5.
         & info [ "wait" ] ~docv:"SECONDS"
             ~doc:"Keep retrying the connection this long (covers daemon startup).")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print the daemon's stats JSON and exit.") in
  let ping = Arg.(value & flag & info [ "ping" ] ~doc:"Health-check the daemon and exit.") in
  let stop =
    Arg.(value & flag & info [ "stop" ] ~doc:"Ask the daemon to drain and shut down.")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ] ~doc:"Exit with status 3 when the report is degraded.")
  in
  let run socket input file name class_ deadline wait stats ping stop strict =
    check_deadline deadline;
    let wait_s = Float.max 0. wait in
    match
      if ping then
        Service_client.with_connection ~wait_s socket (fun fd ->
            if Service_client.ping fd then begin
              print_endline "pong";
              0
            end
            else 1)
      else if stats then
        Service_client.with_connection ~wait_s socket (fun fd ->
            print_endline (Service_client.stats fd);
            0)
      else if stop then
        Service_client.with_connection ~wait_s socket (fun fd ->
            Service_client.shutdown fd;
            0)
      else begin
        let text = required_input ~file input in
        let name =
          match (name, file, input) with
          | Some n, _, _ -> n
          | None, Some p, _ -> p
          | None, None, Some p when p <> "-" && Sys.file_exists p -> p
          | None, None, _ -> "cli"
        in
        Service_client.with_connection ~wait_s socket (fun fd ->
            match Service_client.request ~class_ ?deadline_s:deadline fd ~name ~input:text with
            | Service_client.Done { degraded; recovered; text; _ } ->
                print_string text;
                if recovered then
                  Printf.eprintf
                    "recovered run: served through a recovery path (spool replay or \
                     integrity heal); the report itself is clean\n";
                if degraded > 0 then begin
                  Printf.eprintf "degraded run: %d array(s) quarantined\n" degraded;
                  if strict then 3 else 0
                end
                else 0
            | Service_client.Failed { error; _ } ->
                Printf.eprintf "error: %s\n" (Sim_error.message error);
                1
            | Service_client.Shed reply ->
                (match reply with
                | Wire.Overloaded { depth; capacity; retry_after_s } ->
                    Printf.eprintf
                      "shed: overloaded (%d queued, capacity %d); retry in %.3fs\n" depth
                      capacity retry_after_s
                | Wire.Quarantined { name; faults } ->
                    Printf.eprintf "shed: stream %S quarantined (%d fault(s))\n" name faults
                | Wire.Rejected { reason } -> Printf.eprintf "shed: rejected: %s\n" reason
                | _ -> Printf.eprintf "shed: daemon is shutting down\n");
                4)
      end
    with
    | status -> status
    | exception Sim_error.Error e ->
        Printf.eprintf "error: %s\n" (Sim_error.message e);
        1
  in
  let doc =
    "Submit one request to a running match daemon; the printed report is byte-identical \
     to $(b,rap simulate) on the same input."
  in
  Cmd.v (Cmd.info "client" ~doc ~exits:client_exits)
    Term.(const run $ socket_arg $ pos_input_arg $ file_arg $ name_arg $ class_ $ deadline $ wait
          $ stats $ ping $ stop $ strict)

(* ---- rap eval ---- *)

let eval_cmd =
  let data =
    Arg.(value & opt string "All"
         & info [ "data" ] ~doc:"Comma-separated benchmark names, or All.")
  in
  let task =
    Arg.(value & opt string "ALL"
         & info [ "task" ]
             ~doc:"One of DSE, NBVA (Table 2), LNFA (Table 3), ASIC (Fig 12), FIG1, FIG11, \
                   FIG13, FPGA (Table 4), ALL.")
  in
  let chars =
    Arg.(value & opt int 10_000 & info [ "chars" ] ~doc:"Input characters per run.")
  in
  let run data task chars jobs =
    let env = { Experiments.chars; scale = 1; jobs = resolve_jobs jobs } in
    (* [--data] filters the suites for the mode-vs-mode tables *)
    let filter rows name_of =
      if data = "All" then rows
      else
        let names = String.split_on_char ',' data in
        List.filter (fun r -> List.mem (name_of r) names) rows
    in
    (match String.uppercase_ascii task with
    | "FIG1" -> Experiments.print_fig1 (Experiments.fig1 env)
    | "DSE" -> Experiments.print_dse (Experiments.dse env)
    | "NBVA" ->
        let d = Experiments.dse env in
        Experiments.print_versus ~title:"== Table 2 ==" ~baseline_name:"RAP-NBVA"
          (filter (Experiments.table2 env d) (fun r -> r.Experiments.v_suite))
    | "LNFA" ->
        let d = Experiments.dse env in
        Experiments.print_versus ~title:"== Table 3 ==" ~baseline_name:"RAP-LNFA"
          (filter (Experiments.table3 env d) (fun r -> r.Experiments.v_suite))
    | "FIG11" ->
        let d = Experiments.dse env in
        Experiments.print_fig11 (Experiments.fig11 env d)
    | "ASIC" | "FIG12" ->
        let d = Experiments.dse env in
        Experiments.print_fig12
          (filter (Experiments.fig12 env d) (fun r -> r.Experiments.o_suite))
    | "FIG13" ->
        let d = Experiments.dse env in
        Experiments.print_fig13
          (filter (Experiments.fig13 env d) (fun r -> r.Experiments.o_suite))
    | "FPGA" | "TABLE4" -> Experiments.print_table4 (Experiments.table4 env)
    | "ALL" -> Experiments.run_all env
    | other ->
        Printf.eprintf "unknown task %S\n" other;
        exit 2);
    0
  in
  let doc = "Reproduce the paper's evaluation (the artifact's main_gap.py)." in
  Cmd.v (Cmd.info "eval" ~doc) Term.(const run $ data $ task $ chars $ jobs_arg)

(* ---- rap check ---- *)

let check_cmd =
  let data = Arg.(value & opt string "All" & info [ "data" ] ~doc:"Benchmarks to check.") in
  let chars = Arg.(value & opt int 2_000 & info [ "chars" ] ~doc:"Input characters.") in
  let run data chars =
    let suites =
      if data = "All" then Benchmarks.all ()
      else List.map Benchmarks.by_name (String.split_on_char ',' data)
    in
    let params = Program.default_params in
    let failed = ref 0 in
    List.iter
      (fun (s : Benchmarks.t) ->
        let input = s.Benchmarks.make_input ~chars in
        let results =
          List.map (fun r -> Consistency.check_regex ~params r ~input) s.Benchmarks.regexes
        in
        let failures = List.filter_map (function Ok _ -> None | Error f -> Some f) results in
        (* a rule whose ground truth never matched was checked for false
           positives only *)
        let matched =
          List.length
            (List.filter
               (function Ok n -> n > 0 | Error f -> f.Consistency.expected <> [])
               results)
        in
        Printf.printf "%-14s %d rule(s), %d checked against a match, %d disagreement(s)\n"
          s.Benchmarks.name
          (List.length s.Benchmarks.regexes)
          matched (List.length failures);
        List.iter (fun f -> Format.printf "  %a@." Consistency.pp_failure f) failures;
        failed := !failed + List.length failures)
      suites;
    if !failed = 0 then 0 else 1
  in
  let doc = "Cross-validate the hardware engines against the reference matchers." in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ data $ chars)

(* ---- rap export ---- *)

let export_cmd =
  let dir = Arg.(value & opt string "result" & info [ "dir" ] ~doc:"Output directory.") in
  let chars = Arg.(value & opt int 10_000 & info [ "chars" ] ~doc:"Input characters per run.") in
  let run dir chars jobs =
    let env = { Experiments.chars; scale = 1; jobs = resolve_jobs jobs } in
    let written = Export.export_all env ~dir in
    List.iter (Printf.printf "wrote %s\n") written;
    0
  in
  let doc = "Write the artifact-style CSV/JSON result files." in
  Cmd.v (Cmd.info "export" ~doc) Term.(const run $ dir $ chars $ jobs_arg)

(* ---- rap ablate ---- *)

let ablate_cmd =
  let data = Arg.(value & opt string "Yara" & info [ "data" ] ~doc:"Benchmark to ablate.") in
  let chars = Arg.(value & opt int 5_000 & info [ "chars" ] ~doc:"Input characters.") in
  let run data chars jobs =
    let env = { Experiments.chars; scale = 1; jobs = resolve_jobs jobs } in
    List.iter
      (fun suite ->
        let rows = Ablations.run env ~suite ~params:Program.default_params in
        Ablations.print ~suite rows)
      (if data = "All" then
         List.map (fun (s : Benchmarks.t) -> s.Benchmarks.name) (Benchmarks.all ())
       else String.split_on_char ',' data);
    0
  in
  let doc = "Ablate RAP's design choices (modes, binning, BV depth)." in
  Cmd.v (Cmd.info "ablate" ~doc) Term.(const run $ data $ chars $ jobs_arg)

(* ---- rap mnrl ---- *)

let mnrl_cmd =
  let regexes =
    Arg.(non_empty & opt_all string [] & info [ "e"; "regex" ] ~docv:"REGEX" ~doc:"A rule.")
  in
  let out = Arg.(required & opt (some string) None & info [ "o" ] ~doc:"Output path.") in
  let run regexes out =
    let nets =
      List.mapi
        (fun i src -> (Printf.sprintf "rule%d" i, Glushkov.compile (Parser.parse_exn src)))
        regexes
    in
    Mnrl.save ~path:out nets;
    Printf.printf "wrote %d network(s) to %s\n" (List.length nets) out;
    0
  in
  let doc = "Export compiled automata in the MNRL-style interchange format." in
  Cmd.v (Cmd.info "mnrl" ~doc) Term.(const run $ regexes $ out)

let () =
  let doc = "RAP: reconfigurable automata processor - compiler, simulator, evaluation" in
  let info = Cmd.info "rap" ~version:Rap.version ~doc ~exits:client_exits in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ match_cmd; compile_cmd; simulate_cmd; batch_cmd; faults_cmd; chaos_cmd; serve_cmd;
            client_cmd; eval_cmd; check_cmd; export_cmd; ablate_cmd; mnrl_cmd ]))
