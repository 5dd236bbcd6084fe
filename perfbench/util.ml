(* Timing, order statistics and small file helpers shared by the
   workload drivers. *)

(* What one invocation measured: operations attempted and failed, the
   metrics by name (timings as measured), host calibration samples taken
   during the run (see [calibrate]), and facts for the run record as JSON
   fragments. *)
type result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  calibration : float list;
  record : (string * string) list;
}

let now = Unix.gettimeofday

(* Host calibration.  The sandboxes this benchmark runs in share memory
   bandwidth and caches with other tenants, and their speed drifts by
   +-30% over minutes.  A minor-heap allocation loop slows down in step
   with the simulator (both are bound by allocation and cache traffic),
   while a pure ALU loop does not: on a shared 2-vCPU VM, over 10-pass
   windows of snort-plain whose median pass wall ranged 0.93-1.64 s, pass
   wall / loop time stayed within 19-21.
   So timings are reported at a reference host speed, scaled by
   [reference_ms] / the run's median loop time.  The loop is the
   benchmark's own code and does not change with the code under test. *)
let reference_ms = 20.

(* Milliseconds per million iterations of the allocation loop. *)
let calibrate () =
  let iters = 1_000_000 in
  let t0 = now () in
  let acc = ref 0 in
  for i = 1 to iters do
    let a = Array.make 8 i in
    acc := !acc + a.(i land 7)
  done;
  ignore (Sys.opaque_identity !acc);
  (now () -. t0) *. 1e3 *. (1e6 /. float_of_int iters)

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Minor words allocated by every domain so far.  [Gc.minor] empties all
   minor heaps first, so the worker domains' samples are current and the
   count is exact rather than sampled. *)
let minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

let heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let sorted l = List.sort Float.compare l

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list (sorted l) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank quantile: the smallest sample with at least [q] of the
   samples at or below it. *)
let quantile q = function
  | [] -> 0.
  | l ->
      let a = Array.of_list (sorted l) in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let sum = List.fold_left ( +. ) 0.

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let rel_close a b = Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

(* The output check: counts exact, energy per category within 1e-9
   relative, and no degraded arrays. *)
let same_report ~(expect : Runner.report) (got : Runner.report) =
  got.Runner.chars = expect.Runner.chars
  && got.Runner.cycles = expect.Runner.cycles
  && got.Runner.match_reports = expect.Runner.match_reports
  && got.Runner.degraded = []
  && List.for_all
       (fun c -> rel_close (Energy.get_pj expect.Runner.energy c) (Energy.get_pj got.Runner.energy c))
       Energy.all_categories

(* Run [f] with the scalar reference kernel selected. *)
let with_reference_kernel f =
  Nbva.kernel := Nbva.Reference;
  Fun.protect ~finally:(fun () -> Nbva.kernel := Nbva.Bit_parallel) f

let pj_per_char (r : Runner.report) = Energy.total_pj r.Runner.energy /. float_of_int (max 1 r.Runner.chars)
