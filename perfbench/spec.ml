(* The benchmark's contract: workload parameters and metric names.
   BENCHMARK.json lists the same workloads and metrics; later changes cite
   them by name, so a rename here is a change of contract. *)

type stream = {
  suite : string;
  chars : int;  (** Input bytes per pass (one [Runner.run_stream] call). *)
  chunk : int;  (** [Input_stream] chunk size; also the latency unit. *)
  jobs : int;
  integrity : bool;  (** Arm [Integrity.default_config ()]. *)
  checkpoint_every : int option;  (** Symbols between checkpoint writes. *)
  chunk_limit_ms : float;  (** A chunk slower than this misses. *)
}

type serve = {
  serve_suite : string;
  rate_per_s : float;  (** Fixed Poisson arrival rate. *)
  small_share : float;  (** Share of requests sized in [small]. *)
  small : int * int;  (** Inclusive byte range of small requests. *)
  large : int * int;  (** Inclusive byte range of the multi-KiB tail. *)
  interactive_share : float;  (** Share of requests that carry a deadline. *)
  deadline_s : float;  (** Deadline of interactive requests. *)
  limit_ms : float;  (** A request slower than this misses. *)
  group : int;  (** Admission batch group. *)
  capacity : int;  (** Admission queue bound. *)
}

type kind = Stream of stream | Serve of serve
type workload = { name : string; kind : kind }

let workloads =
  [
    {
      name = "snort-plain";
      kind =
        Stream
          {
            suite = "Snort";
            chars = 32768;
            chunk = 1024;
            jobs = 1;
            integrity = false;
            checkpoint_every = None;
            chunk_limit_ms = 250.;
          };
    };
    {
      name = "clamav-hardened";
      kind =
        Stream
          {
            suite = "ClamAV";
            chars = 32768;
            chunk = 1024;
            jobs = 2;
            integrity = true;
            checkpoint_every = Some 4096;
            chunk_limit_ms = 250.;
          };
    };
    {
      name = "serve-burst";
      kind =
        Serve
          {
            serve_suite = "Snort";
            rate_per_s = 4.;
            small_share = 0.85;
            small = (32, 1024);
            large = (3072, 4096);
            interactive_share = 0.5;
            deadline_s = 2.0;
            limit_ms = 1000.;
            group = 4;
            capacity = 64;
          };
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* Printed with --trace 0.  Every workload reports every metric: on the
   stream workloads a "request" is one input chunk, on serve-burst
   [chars_per_s] is request bytes per second of execution. *)
let end_to_end =
  [
    ("chars_per_s", "chars/s");
    ("setup_s", "s");
    ("alloc_words_per_char", "words/char");
    ("peak_heap_mb", "MB");
    ("sim_gchs", "Gch/s");
    ("sim_pj_per_char", "pJ/char");
    ("serve_p50_ms", "ms");
    ("serve_p90_ms", "ms");
    ("serve_ok_frac", "ratio");
  ]

(* Printed with --trace 1.  Times are seconds of wall per stream pass
   (stream workloads) or per window (serve-burst).  A metric outside a
   workload's scope reads 0 there. *)
type scope = Both | Streams | Serving

let per_layer =
  [
    ("input.next_s", "s", Streams);
    ("input.chunks", "count", Streams);
    ("engine.kernel_s", "s", Streams);
    ("engine.project_s", "s", Streams);
    ("exec.assemble_s", "s", Streams);
    ("cost.of_events_s", "s", Streams);
    ("sink.energy_s", "s", Streams);
    ("runner.loop_s", "s", Streams);
    ("runner.other_s", "s", Streams);
    ("engine.kernel.words_per_sym", "words/sym", Streams);
    ("engine.project.words_per_sym", "words/sym", Streams);
    ("exec.assemble.words_per_sym", "words/sym", Streams);
    ("cost.of_events.words_per_sym", "words/sym", Streams);
    ("sink.energy.words_per_sym", "words/sym", Streams);
    ("engine.steppers.dfa", "count", Both);
    ("engine.steppers.general", "count", Both);
    ("engine.steppers.word", "count", Both);
    ("engine.steppers.shift-and", "count", Both);
    ("engine.dfa_fills", "count", Streams);
    ("engine.dfa_flushes", "count", Streams);
    ("engine.dfa_disabled", "count", Streams);
    ("engine.dfa_hit_ratio", "ratio", Streams);
    ("integrity.check_s", "s", Streams);
    ("integrity.sentinel_s", "s", Streams);
    ("integrity.rollback_s", "s", Streams);
    ("integrity.sweeps", "count", Streams);
    ("integrity.detections", "count", Streams);
    ("checkpoint.snapshot_s", "s", Streams);
    ("checkpoint.save_s", "s", Streams);
    ("checkpoint.writes", "count", Streams);
    ("checkpoint.bytes", "bytes", Streams);
    ("scheduler.barrier_wait_s", "s", Streams);
    ("scheduler.domains", "count", Streams);
    ("compile.compile_for_s", "s", Both);
    ("compile.place_s", "s", Both);
    ("exec.build_s", "s", Both);
    ("integrity.seal_s", "s", Streams);
    ("admission.create_s", "s", Serving);
    ("admission.submit_s", "s", Serving);
    ("admission.queue_wait_p90_ms", "ms", Serving);
    ("admission.exec_p50_ms", "ms", Serving);
    ("admission.busy_frac", "ratio", Serving);
    ("admission.shed", "count", Serving);
    ("admission.expired", "count", Serving);
    ("batch.group_fill", "ratio", Serving);
    ("loadgen.lag_p90_ms", "ms", Serving);
    ("serve_miss_frac", "ratio", Serving);
    ("trace.coverage", "ratio", Both);
    ("trace.overhead", "ratio", Both);
  ]
