(* Crash-safe long-run simulation: streaming input, checkpoint/restore,
   and the supervised scheduler.  The load-bearing property mirrors
   test_exec's bit-identity contract: a run interrupted at an arbitrary
   chunk boundary and resumed from its checkpoint must reproduce the
   uninterrupted report bit for bit — same floats, not merely close
   ones — at every jobs count, for every engine mode. *)

open Alcotest

let params = Program.default_params
let rap = Arch.rap ~bv_depth:params.Program.bv_depth

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let temp_ckpt_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rap-ckpt-test-%d-%d" (Unix.getpid ()) !counter)

let placement rules =
  let parsed = List.map (fun src -> (src, Parser.parse_exn src)) rules in
  let units, errs = Runner.compile_for rap ~params parsed in
  check int "rules compile" 0 (List.length errs);
  Runner.place rap ~params units

let check_reports_equal label (a : Runner.report) (b : Runner.report) =
  check int (label ^ ": chars") a.Runner.chars b.Runner.chars;
  check int (label ^ ": cycles") a.Runner.cycles b.Runner.cycles;
  check int (label ^ ": reports") a.Runner.match_reports b.Runner.match_reports;
  List.iter
    (fun cat ->
      check (float 0.) (* exact: bit-identity, not approximation *)
        (label ^ ": " ^ Energy.category_name cat)
        (Energy.get_pj a.Runner.energy cat)
        (Energy.get_pj b.Runner.energy cat))
    Energy.all_categories;
  List.iter2
    (fun (_, pa) (_, pb) -> check (float 0.) (label ^ ": mode energy") pa pb)
    a.Runner.mode_energy_pj b.Runner.mode_energy_pj;
  check bool (label ^ ": array details") true (a.Runner.arrays_detail = b.Runner.arrays_detail)

(* ------------------------------------------------------------------ *)
(* The resume property: leg A runs the truncated input with a
   checkpoint directory (its final snapshot lands exactly at the split),
   leg B resumes over the full input, and both stall traces and the
   report must agree with the uninterrupted reference leg C. *)

let resume_roundtrip ~jobs ~chunk rules input split =
  let n = String.length input in
  let p = placement rules in
  let num_arrays = Array.length p.Mapper.arrays in
  let spec_c, traces_c = Sink.stall_trace ~num_arrays in
  let c =
    Runner.run_stream ~jobs ~sinks:[ spec_c ] rap ~params p
      ~stream:(Input_stream.of_string ~chunk input)
  in
  let dir = temp_ckpt_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let spec_a, traces_a = Sink.stall_trace ~num_arrays in
      let _a : Runner.report =
        Runner.run_stream ~jobs ~sinks:[ spec_a ] rap ~params p
          ~checkpoint:{ Checkpoint.dir; every = 1 }
          ~stream:(Input_stream.of_string ~chunk (String.sub input 0 split))
      in
      let spec_b, traces_b = Sink.stall_trace ~num_arrays in
      let b =
        Runner.run_stream ~jobs ~sinks:[ spec_b ] rap ~params p
          ~checkpoint:{ Checkpoint.dir; every = max_int }
          ~resume:true
          ~stream:(Input_stream.of_string ~chunk input)
      in
      check_reports_equal "resumed report" c b;
      check bool "no degradation" true (b.Runner.degraded = []);
      let tc = traces_c () and ta = traces_a () and tb = traces_b () in
      for i = 0 to num_arrays - 1 do
        for s = 0 to split - 1 do
          check int (Printf.sprintf "pre-split stall a%d s%d" i s) tc.(i).(s) ta.(i).(s)
        done;
        for s = split to n - 1 do
          check int (Printf.sprintf "post-split stall a%d s%d" i s) tc.(i).(s) tb.(i).(s)
        done
      done)

let mode_rules =
  [
    ("nfa", [ "ab*c"; "x[yz]d" ]);
    ("nbva", [ "a{30}b"; "bc{5,12}d" ]);
    ("binned-lnfa", [ "evilsig"; "badstring"; "cdacdacda" ]);
  ]

let gen_resume_case =
  QCheck2.Gen.(
    let* len = int_range 20 160 in
    let* input = string_size ~gen:(map (fun i -> "abcdxyze".[i]) (int_bound 7)) (return len) in
    let* split = int_range 1 (len - 1) in
    let* chunk = int_range 1 17 in
    return (input, split, chunk))

let prop_resume name rules ~jobs =
  QCheck2.Test.make ~count:12
    ~name:(Printf.sprintf "resume is bit-identical (%s, jobs=%d)" name jobs)
    ~print:(fun (input, split, chunk) ->
      Printf.sprintf "input=%S split=%d chunk=%d" input split chunk)
    gen_resume_case
    (fun (input, split, chunk) ->
      resume_roundtrip ~jobs ~chunk rules input split;
      true)

let test_resume_directed () =
  (* one deeper directed case per mode at jobs 1 and 4, with a split at a
     non-chunk-aligned point (the checkpoint lands at the barrier) *)
  let input =
    String.concat ""
      (List.init 40 (fun i -> if i mod 7 = 0 then "evilsig" else "aaabcxyzd"))
  in
  List.iter
    (fun (_, rules) ->
      List.iter
        (fun jobs ->
          resume_roundtrip ~jobs ~chunk:64 rules input 100;
          resume_roundtrip ~jobs ~chunk:64 rules input (String.length input - 1))
        [ 1; 4 ])
    mode_rules

(* ------------------------------------------------------------------ *)
(* Checkpoint file robustness *)

let some_checkpoint dir =
  let p = placement [ "a{30}b" ] in
  let input = String.make 200 'a' in
  let _r : Runner.report =
    Runner.run_stream rap ~params p
      ~checkpoint:{ Checkpoint.dir; every = 1 }
      ~stream:(Input_stream.of_string ~chunk:50 input)
  in
  p

let clobber path f =
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let raw = f (Bytes.of_string raw) in
  let oc = open_out_bin path in
  output_bytes oc raw;
  close_out oc

let expect_corrupt label dir =
  match Checkpoint.load ~dir with
  | Error (Sim_error.Checkpoint_corrupt _) -> ()
  | Error e -> failf "%s: wrong error %s" label (Sim_error.message e)
  | Ok _ -> failf "%s: corruption not detected" label

let test_corruption_detected () =
  let dir = temp_ckpt_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let _p = some_checkpoint dir in
      let path = Checkpoint.state_path ~dir in
      (match Checkpoint.load ~dir with
      | Ok (Some ck) -> check int "symbols at end" 200 ck.Checkpoint.ck_symbols
      | _ -> fail "intact checkpoint loads");
      let ic = open_in_bin path in
      let raw = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let restore () =
        let oc = open_out_bin path in
        output_string oc raw;
        close_out oc
      in
      (* truncation *)
      clobber path (fun b -> Bytes.sub b 0 (Bytes.length b / 2));
      expect_corrupt "truncated" dir;
      restore ();
      (* single flipped payload byte: CRC must catch it *)
      clobber path (fun b ->
          let i = Bytes.length b - 3 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
          b);
      expect_corrupt "bit-rotted" dir;
      restore ();
      (* foreign file *)
      clobber path (fun _ -> Bytes.of_string "not a checkpoint at all");
      expect_corrupt "bad magic" dir;
      (* absent file is a fresh start, not an error *)
      Sys.remove path;
      match Checkpoint.load ~dir with
      | Ok None -> ()
      | _ -> fail "missing checkpoint should load as None")

let test_fingerprint_mismatch () =
  let dir = temp_ckpt_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let _p = some_checkpoint dir in
      let other = placement [ "completely"; "different{2,8}" ] in
      match
        Runner.run_stream rap ~params other
          ~checkpoint:{ Checkpoint.dir; every = 1 }
          ~resume:true
          ~stream:(Input_stream.of_string (String.make 200 'a'))
      with
      | exception Sim_error.Error (Sim_error.Checkpoint_mismatch _) -> ()
      | exception e -> failf "wrong exception %s" (Printexc.to_string e)
      | _ -> fail "resume into a different placement must be refused")

let test_unseekable_resume_refused () =
  check bool "stdin is unseekable" true
    (match Input_stream.seek (Input_stream.of_stdin ()) 5 with
    | exception Sim_error.Error (Sim_error.Stream_failed _) -> true
    | () -> false)

(* ------------------------------------------------------------------ *)
(* Supervised scheduler *)

let quiet_policy retries deadline_s =
  { Scheduler.deadline_s; retries; backoff_s = 0. }

let test_supervised_retry_then_success () =
  let attempts = Array.make 4 0 in
  let outcomes =
    Scheduler.supervised_for ~jobs:2 ~policy:(quiet_policy 2 None) 4
      (fun ~deadline:_ ~attempt i ->
        attempts.(i) <- max attempts.(i) attempt;
        if i = 2 && attempt < 3 then failwith "transient")
  in
  Array.iteri (fun i o -> check bool (Printf.sprintf "index %d recovers" i) true (o = None)) outcomes;
  check int "flaky item retried to attempt 3" 3 attempts.(2);
  check int "healthy items run once" 1 attempts.(0)

let test_supervised_quarantine () =
  let outcomes =
    Scheduler.supervised_for ~jobs:3 ~policy:(quiet_policy 2 None) 5
      (fun ~deadline:_ ~attempt:_ i -> if i = 1 then failwith "broken")
  in
  (match outcomes.(1) with
  | Some (Sim_error.Array_crashed { array_id; attempts; _ }) ->
      check int "quarantined id" 1 array_id;
      check int "all attempts burned" 3 attempts
  | _ -> fail "persistent failure must quarantine as Array_crashed");
  Array.iteri
    (fun i o -> if i <> 1 then check bool (Printf.sprintf "index %d completes" i) true (o = None))
    outcomes

let test_supervised_deadline () =
  let outcomes =
    Scheduler.supervised_for ~jobs:2 ~policy:(quiet_policy 1 (Some 0.02)) 3
      (fun ~deadline ~attempt:_ i ->
        if i = 0 then
          for _ = 1 to 50 do
            Unix.sleepf 0.005;
            Scheduler.check_deadline deadline
          done)
  in
  (match outcomes.(0) with
  | Some (Sim_error.Array_timeout { array_id; attempts; deadline_s }) ->
      check int "timed-out id" 0 array_id;
      (* the deadline is a whole-item budget: a first attempt that spent
         it all leaves nothing for a retry *)
      check int "deadline attempts" 1 attempts;
      check (float 1e-9) "deadline recorded" 0.02 deadline_s
  | _ -> fail "hung item must quarantine as Array_timeout");
  check bool "others fine" true (outcomes.(1) = None && outcomes.(2) = None)

(* regression: with a huge backoff and a small deadline, the retry
   sleeps must be capped at the remaining deadline budget.  Before the
   fix, 3 retries at backoff 5s slept 5+10+20 = 35s for an item whose
   whole budget was 80ms. *)
let test_supervised_backoff_capped_by_deadline () =
  let t0 = Unix.gettimeofday () in
  let outcomes =
    Scheduler.supervised_for ~jobs:1
      ~policy:{ Scheduler.deadline_s = Some 0.02; retries = 3; backoff_s = 5. }
      1
      (fun ~deadline:_ ~attempt:_ _ -> failwith "always fails")
  in
  let wall = Unix.gettimeofday () -. t0 in
  check bool (Printf.sprintf "wall %.3fs bounded by deadline budget, not backoff" wall) true
    (wall < 1.);
  match outcomes.(0) with
  | Some (Sim_error.Array_crashed _) -> ()
  | Some e -> fail ("wrong outcome: " ^ Sim_error.message e)
  | None -> fail "persistently failing item must quarantine"

(* regression: deadline_s is the item's WHOLE supervision budget, with
   retries shrinking into what remains of it.  Before the fix the budget
   was deadline_s * (retries + 1), so a hung item under a 50ms deadline
   with 2 retries supervised for ~150ms — three times the deadline the
   caller propagated down. *)
let test_supervised_deadline_is_total_budget () =
  let t0 = Unix.gettimeofday () in
  let outcomes =
    Scheduler.supervised_for ~jobs:1
      ~policy:{ Scheduler.deadline_s = Some 0.05; retries = 2; backoff_s = 0. }
      1
      (fun ~deadline ~attempt:_ _ ->
        for _ = 1 to 1000 do
          Unix.sleepf 0.002;
          Scheduler.check_deadline deadline
        done)
  in
  let wall = Unix.gettimeofday () -. t0 in
  check bool
    (Printf.sprintf "wall %.3fs near one deadline, not (retries+1) of them" wall)
    true (wall < 0.1);
  match outcomes.(0) with
  | Some (Sim_error.Array_timeout _) -> ()
  | Some e -> fail ("wrong outcome: " ^ Sim_error.message e)
  | None -> fail "hung item must time out"

let test_parallel_for_fail_fast () =
  let executed = Atomic.make 0 in
  let raised =
    match
      Scheduler.parallel_for ~jobs:4 64 (fun i ->
          ignore (Atomic.fetch_and_add executed 1);
          if i = 0 then failwith "first index dies" else Unix.sleepf 0.005)
    with
    | () -> false
    | exception Failure _ -> true
  in
  check bool "exception propagates" true raised;
  (* fail-fast: the cancellation flag stops dispatch, so only work already
     in flight (at most ~jobs items) runs after the failure *)
  check bool
    (Printf.sprintf "bounded execution after failure (%d of 64)" (Atomic.get executed))
    true
    (Atomic.get executed < 16)

(* Degradation surfaces at the runner level: a persistently crashing
   array is quarantined, the run completes, and the report says so. *)
let test_runner_quarantine () =
  let p = placement [ "ab*c"; "a{30}b"; "evilsig"; "x[yz]d"; "bc{5,12}d" ] in
  let num_arrays = Array.length p.Mapper.arrays in
  let crash_spec =
    {
      Sink.name = "crash";
      make =
        (fun ~array_id ~chars:_ ->
          Sink.events_only (fun _ -> if array_id = 0 then failwith "injected"));
    }
  in
  let r =
    Runner.run_stream ~sinks:[ crash_spec ] ~policy:(quiet_policy 1 None) rap ~params p
      ~stream:(Input_stream.of_string ~chunk:16 (String.make 64 'a'))
  in
  (match r.Runner.degraded with
  | [ Sim_error.Array_crashed { array_id; attempts; _ } ] ->
      check int "array 0 quarantined" 0 array_id;
      check int "retried before quarantine" 2 attempts
  | l -> failf "expected one quarantined array, got %d" (List.length l));
  check int "frozen at its last good boundary" 0 r.Runner.arrays_detail.(0).Runner.a_cycles;
  if num_arrays > 1 then
    check bool "other arrays kept running" true
      (Array.exists (fun (d : Runner.array_detail) -> d.Runner.a_cycles > 0) r.Runner.arrays_detail)

(* ------------------------------------------------------------------ *)
(* Streaming match sessions *)

let session_rules =
  [ "b(a{7}|c{5})b"; "ab*c"; "evilsig"; "a{4}z"; "^abc"; "abc$"; "x[yz]{3,9}w" ]

let feed_chunked m input sizes =
  let s = Rap.session m in
  let acc = ref [] in
  let pos = ref 0 in
  let sizes = ref sizes in
  let next_size () =
    match !sizes with
    | [] -> max 1 (String.length input - !pos)
    | k :: rest ->
        sizes := rest;
        max 1 k
  in
  while !pos < String.length input do
    let k = min (next_size ()) (String.length input - !pos) in
    acc := List.rev_append (Rap.session_feed s (String.sub input !pos k)) !acc;
    pos := !pos + k
  done;
  List.rev !acc @ Rap.session_finish s

let prop_session_equals_find_all =
  QCheck2.Test.make ~count:100 ~name:"session over chunks = find_all over the whole input"
    ~print:(fun (ri, input, sizes) ->
      Printf.sprintf "regex=%s input=%S sizes=[%s]"
        (List.nth session_rules ri)
        input
        (String.concat ";" (List.map string_of_int sizes)))
    QCheck2.Gen.(
      triple
        (int_bound (List.length session_rules - 1))
        (string_size ~gen:(map (fun i -> "abcevilsgxyzw".[i]) (int_bound 12)) (int_range 0 60))
        (list_size (int_bound 8) (int_range 1 9)))
    (fun (ri, input, sizes) ->
      let m = Rap.matcher_exn (List.nth session_rules ri) in
      feed_chunked m input sizes = Rap.find_all m input)

(* ------------------------------------------------------------------ *)
(* Input streams *)

let test_input_stream_string () =
  let s = Input_stream.of_string ~chunk:7 "abcdefghijklmnop" in
  check (option int) "length" (Some 16) (Input_stream.length s);
  let c1 = Input_stream.next s in
  check (option string) "first chunk" (Some "abcdefg") c1;
  check int "pos advances" 7 (Input_stream.pos s);
  Input_stream.seek s 14;
  check (option string) "after seek" (Some "op") (Input_stream.next s);
  check (option string) "exhausted" None (Input_stream.next s);
  Input_stream.seek s 0;
  check string "read_all after rewind" "abcdefghijklmnop" (Input_stream.read_all s);
  check bool "seek out of range refused" true
    (match Input_stream.seek s 99 with
    | exception Sim_error.Error (Sim_error.Stream_failed _) -> true
    | () -> false)

let test_input_stream_file () =
  let path = Filename.temp_file "rap-stream" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let data = String.init 1000 (fun i -> Char.chr (i mod 251)) in
      let oc = open_out_bin path in
      output_string oc data;
      close_out oc;
      let s = Input_stream.of_file ~chunk:64 path in
      check (option int) "file length" (Some 1000) (Input_stream.length s);
      let buf = Buffer.create 1000 in
      let rec loop () =
        match Input_stream.next s with
        | None -> ()
        | Some c ->
            check bool "chunk bounded" true (String.length c <= 64);
            Buffer.add_string buf c;
            loop ()
      in
      loop ();
      check string "file reassembles" data (Buffer.contents buf);
      Input_stream.seek s 996;
      check (option string) "file seek" (Some (String.sub data 996 4)) (Input_stream.next s);
      Input_stream.close s);
  check bool "missing file refused" true
    (match Input_stream.of_file "/nonexistent/rap-stream" with
    | exception Sim_error.Error (Sim_error.Stream_failed _) -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Serialisation primitives *)

let every_error =
  [
    Sim_error.Array_crashed { array_id = 3; attempts = 2; detail = "boom" };
    Sim_error.Array_timeout { array_id = 1; attempts = 4; deadline_s = 1.5 };
    Sim_error.Checkpoint_corrupt { path = "p"; detail = "d" };
    Sim_error.Checkpoint_mismatch { detail = "d" };
    Sim_error.Stream_failed { detail = "d" };
    Sim_error.Deadline_expired { waited_s = 0.5; deadline_s = 0.25 };
    Sim_error.Input_too_large { bytes = 0xFFFF_FFFF; limit = 7 };
    Sim_error.Integrity_violation { array_id = 0; region = "masks"; detail = "crc" };
  ]

let check_same_checkpoint label (want : Checkpoint.t) (got : Checkpoint.t) =
  check string (label ^ ": fingerprint") want.Checkpoint.ck_fingerprint
    got.Checkpoint.ck_fingerprint;
  check int (label ^ ": symbols") want.Checkpoint.ck_symbols got.Checkpoint.ck_symbols;
  check bool (label ^ ": degraded") true (want.Checkpoint.ck_degraded = got.Checkpoint.ck_degraded);
  check int (label ^ ": array count")
    (Array.length want.Checkpoint.ck_arrays)
    (Array.length got.Checkpoint.ck_arrays);
  Array.iteri
    (fun i (a : Checkpoint.array_state) ->
      let g = got.Checkpoint.ck_arrays.(i) in
      let ctx = Printf.sprintf "%s: array %d " label i in
      check int (ctx ^ "cycles") a.Checkpoint.cs_cycles g.Checkpoint.cs_cycles;
      check int (ctx ^ "reports") a.Checkpoint.cs_reports g.Checkpoint.cs_reports;
      check bool (ctx ^ "energy exact") true
        (a.Checkpoint.cs_energy_pj = g.Checkpoint.cs_energy_pj);
      check bool (ctx ^ "modes exact") true (a.Checkpoint.cs_mode_pj = g.Checkpoint.cs_mode_pj);
      check bool (ctx ^ "engine words") true (a.Checkpoint.cs_engines = g.Checkpoint.cs_engines))
    want.Checkpoint.ck_arrays

let test_checkpoint_codec_roundtrip () =
  let dir = temp_ckpt_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let ck =
        {
          Checkpoint.ck_fingerprint = "f00d";
          ck_symbols = 123456789;
          ck_degraded = every_error;
          ck_arrays =
            [|
              {
                Checkpoint.cs_cycles = 42;
                cs_reports = 7;
                cs_energy_pj = [| 1.25; 0.; 3.5e-3; 0.125; 0.; 1e9; 0.25 |];
                cs_mode_pj = [| 0.5; 0.25; 0. |];
                cs_engines = [| [| 0; 1; -1; max_int; min_int |]; [||]; [| 0x2F0E1D3C4B5A6978 |] |];
              };
              {
                Checkpoint.cs_cycles = 0;
                cs_reports = 0;
                cs_energy_pj = Array.make 7 0.;
                cs_mode_pj = Array.make 3 0.;
                cs_engines = [||];
              };
            |];
        }
      in
      Checkpoint.save ~dir ck;
      match Checkpoint.load ~dir with
      | Ok (Some got) -> check_same_checkpoint "roundtrip" ck got
      | Ok None -> fail "checkpoint vanished"
      | Error e -> failf "load failed: %s" (Sim_error.message e))

(* The on-disk checkpoint format is pinned: test/golden/v3/state.ckpt
   holds [golden_value] as version 3 writes it, and saving the same value
   today must reproduce it byte for byte.  If this test fails the format
   changed — deployed checkpoints would be misread — so bump the
   checkpoint version and add a new golden file rather than regenerating
   this one.  Each array's last word row is its energy counters
   ([Cost.save]): symbols, cycles, three controller and six leakage
   counts, then (key, count) pairs. *)
let golden_dir = "golden"
let golden_v2_dir = Filename.concat golden_dir "v2"
let golden_v3_dir = Filename.concat golden_dir "v3"

let golden_value () =
  {
    Checkpoint.ck_fingerprint = "golden-fingerprint-v3";
    ck_symbols = 123456789;
    ck_degraded =
      [
        Sim_error.Array_crashed { array_id = 0; attempts = 1; detail = "boom" };
        Sim_error.Array_timeout { array_id = 2; attempts = 3; deadline_s = 0.125 };
        Sim_error.Integrity_violation { array_id = 1; region = "masks"; detail = "crc" };
      ];
    ck_arrays =
      [|
        {
          Checkpoint.cs_cycles = 42;
          cs_reports = 7;
          cs_energy_pj = [| 1.5; 2.25; 0.; 0.125; 3.; 0.5; 0.25 |];
          cs_mode_pj = [| 0.5; 0.; 3.125 |];
          cs_engines =
            [|
              [| 0; 1; 0x3FFF_FFFF_FFFF_FFFF; -2 |];
              [||];
              [| 56; 3390679716572500161 |];
              [| 40; 42; 12; 0; 3; 0; 40; 0; 0; 4; 36; (31 lsl 4) lor 0; 12; (2 lsl 4) lor 1; 5 |];
            |];
        };
        {
          Checkpoint.cs_cycles = 0;
          cs_reports = 0;
          cs_energy_pj = Array.make 7 0.;
          cs_mode_pj = Array.make 3 0.;
          cs_engines = [| [||]; Array.make 11 0 |];
        };
      |];
  }

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_golden_checkpoint_format () =
  let dir = temp_ckpt_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Checkpoint.save ~dir (golden_value ());
      let fresh = read_file (Checkpoint.state_path ~dir) in
      let golden = read_file (Checkpoint.state_path ~dir:golden_v3_dir) in
      check int "same size" (String.length golden) (String.length fresh);
      check bool "byte-identical to the version-3 golden file" true (String.equal fresh golden));
  match Checkpoint.load ~dir:golden_v3_dir with
  | Ok (Some got) -> check_same_checkpoint "golden" (golden_value ()) got
  | Ok None -> fail "golden checkpoint missing"
  | Error e -> failf "golden checkpoint failed to load: %s" (Sim_error.message e)

(* test/golden/state.ckpt is a version-1 checkpoint (boxed per-vector
   engine state), test/golden/v2/state.ckpt a version-2 one (energy
   restored from floats, no counters row).  This build must refuse each
   with a typed error that names both versions, never misread it. *)
let refused_by_version dir v =
  match Checkpoint.load ~dir with
  | Error (Sim_error.Checkpoint_corrupt _ as e) ->
      let msg = Sim_error.message e in
      check bool
        (Printf.sprintf "names both versions: %s" msg)
        true
        (Astring_contains.contains msg
           (Printf.sprintf "unsupported version %d (this build reads version 3)" v))
  | Error e -> failf "wrong error: %s" (Sim_error.message e)
  | Ok _ -> failf "a version-%d checkpoint must be refused" v

let test_v1_checkpoint_refused () = refused_by_version golden_dir 1
let test_v2_checkpoint_refused () = refused_by_version golden_v2_dir 2

(* Version 2 stores the engines' arena words as they are laid out, so a
   reordered [Nbva.start] or bin arena would make old checkpoints resume
   garbage under an unchanged placement fingerprint.  The arenas of a
   small placement with a binned-LNFA, an NBVA and an NFA engine, after a
   fixed input, are pinned here. *)
let test_arena_layout_pinned () =
  let p = placement [ "ab{3,5}c"; "x[yz]d"; "aaaz"; "a{12}b" ] in
  check int "one array" 1 (Array.length p.Mapper.arrays);
  let ex = Exec.build p p.Mapper.arrays.(0) in
  String.iteri (fun i c -> ignore (Exec.step rap ex ~sym:i c)) "xyzdabbbcxyd aaaaaaa";
  let want =
    [|
      [| 56; 3390679716572500161 |];
      [| 0; 1; 0; 127; 3390679722446262172 |];
      [| 1; 3; 1; 0; 0; 3390679727425391077 |];
    |]
  in
  check bool "engine arenas match the layout checkpoints store (else bump the checkpoint version)"
    true
    (Exec.snapshot ex = want)

(* A snapshot restored into the same array, or into a fresh build of the
   same placement, replays the rest of the input bit-identically. *)
let test_snapshot_replay () =
  let p = placement [ "a{30}b"; "ab*c"; "evilsig"; "x[yz]d"; "bc{5,12}d" ] in
  let ex = Exec.build p p.Mapper.arrays.(0) in
  let input =
    String.concat "" (List.init 30 (fun i -> if i mod 5 = 0 then "evilsig" else "aaabcxyzd"))
  in
  let digest (ev : Exec.array_events) =
    ( ev.Exec.reports,
      ev.Exec.cross,
      ev.Exec.stall,
      Array.copy ev.Exec.tiles )
  in
  let stepd ex i = digest (Exec.step rap ex ~sym:i input.[i]) in
  let split = 100 in
  for i = 0 to split - 1 do
    ignore (stepd ex i)
  done;
  let snap = Exec.snapshot ex in
  let tail ex =
    let acc = ref [] in
    for i = split to String.length input - 1 do
      acc := stepd ex i :: !acc
    done;
    List.rev !acc
  in
  let tail_ref = tail ex in
  Exec.restore ex snap;
  check bool "restore replays bit-identically" true (tail ex = tail_ref);
  let fresh = Exec.build p p.Mapper.arrays.(0) in
  Exec.restore fresh snap;
  check bool "restore into a fresh build replays bit-identically" true (tail fresh = tail_ref)

let test_engine_restore_shape_checked () =
  let p = placement [ "a{30}b" ] in
  let ex = Exec.build p p.Mapper.arrays.(0) in
  let snap = Exec.snapshot ex in
  Exec.restore ex snap;
  check bool "self restore fine" true true;
  check bool "engine count mismatch refused" true
    (match Exec.restore ex (Array.append snap snap) with
    | exception Invalid_argument _ -> true
    | () -> false);
  check bool "vector shape mismatch refused" true
    (match Exec.restore ex (Array.map (fun s -> Array.sub s 0 0) snap) with
    | exception Invalid_argument _ -> true
    | () -> false)

let suite =
  [
    test_case "input stream over strings" `Quick test_input_stream_string;
    test_case "input stream over files" `Quick test_input_stream_file;
    test_case "checkpoint codec roundtrip" `Quick test_checkpoint_codec_roundtrip;
    test_case "engine restore is shape-checked" `Quick test_engine_restore_shape_checked;
    test_case "golden on-disk format is frozen" `Quick test_golden_checkpoint_format;
    test_case "version-1 checkpoint is refused by version" `Quick test_v1_checkpoint_refused;
    test_case "version-2 checkpoint is refused by version" `Quick test_v2_checkpoint_refused;
    test_case "arena layout is pinned" `Quick test_arena_layout_pinned;
    test_case "snapshots replay bit-identically" `Quick test_snapshot_replay;
    test_case "corruption is detected at load" `Quick test_corruption_detected;
    test_case "fingerprint mismatch is refused" `Quick test_fingerprint_mismatch;
    test_case "unseekable resume is refused" `Quick test_unseekable_resume_refused;
    test_case "resume bit-identity, directed" `Slow test_resume_directed;
    QCheck_alcotest.to_alcotest (prop_resume "nfa" (List.assoc "nfa" mode_rules) ~jobs:1);
    QCheck_alcotest.to_alcotest (prop_resume "nbva" (List.assoc "nbva" mode_rules) ~jobs:1);
    QCheck_alcotest.to_alcotest
      (prop_resume "binned-lnfa" (List.assoc "binned-lnfa" mode_rules) ~jobs:1);
    QCheck_alcotest.to_alcotest (prop_resume "nbva" (List.assoc "nbva" mode_rules) ~jobs:4);
    test_case "supervised retry then success" `Quick test_supervised_retry_then_success;
    test_case "supervised quarantine" `Quick test_supervised_quarantine;
    test_case "supervised deadline" `Quick test_supervised_deadline;
    test_case "supervised backoff capped by deadline" `Quick
      test_supervised_backoff_capped_by_deadline;
    test_case "supervised deadline is a total budget" `Quick
      test_supervised_deadline_is_total_budget;
    test_case "parallel_for fails fast" `Quick test_parallel_for_fail_fast;
    test_case "runner quarantines a crashing array" `Quick test_runner_quarantine;
    QCheck_alcotest.to_alcotest prop_session_equals_find_all;
  ]
