(* Seeded inputs.  A suite's own generator ([Benchmarks.make_input]) is
   fixed-seed, so the benchmark draws a fixed pool from it once and lets
   the workload seed pick which slices of the pool make up a run: the
   byte statistics (alphabet, embedded pattern fragments, activation
   rate) stay the suite's, and the program under test only ever sees the
   resulting bytes. *)

let pool_chars = 1 lsl 18
let block = 64

let pool (suite : Benchmarks.t) = suite.Benchmarks.make_input ~chars:pool_chars

let rng ~seed salt = Random.State.make [| seed; salt |]

let slice st pool len =
  let off = Random.State.int st (String.length pool - len + 1) in
  String.sub pool off len

(* [chars] bytes made of [block]-byte slices at seeded pool offsets; short
   slices keep the seed-to-seed spread of the input's activity small. *)
let stream_bytes pool ~seed ~chars =
  let st = rng ~seed 1 in
  let b = Buffer.create chars in
  while Buffer.length b < chars do
    Buffer.add_string b (slice st pool (min block (chars - Buffer.length b)))
  done;
  Buffer.contents b

type request = {
  due_s : float;  (** Offset of the scheduled arrival from the window start. *)
  input : string;
  interactive : bool;
}

(* [k] evenly spaced quantile points of [q] over (0, 1). *)
let strata k q = Array.init k (fun i -> q ((float_of_int i +. 0.5) /. float_of_int k))

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [n] open-loop arrivals at [rate_per_s].  Gaps, sizes and classes are
   stratified samples of their distributions (exponential gaps, uniform
   sizes per size class, the interactive share) put in seeded order, so
   every seed offers the same load and size mix and differs only in the
   order of arrivals and in the request bytes. *)
let schedule pool (p : Spec.serve) ~seed ~n =
  let st = rng ~seed 2 in
  let gaps = shuffle st (strata n (fun u -> -.log (1. -. u) /. p.Spec.rate_per_s)) in
  let n_small = int_of_float (Float.round (p.Spec.small_share *. float_of_int n)) in
  let within (lo, hi) k = strata k (fun u -> lo + int_of_float (u *. float_of_int (hi - lo + 1))) in
  let sizes = shuffle st (Array.append (within p.Spec.small n_small) (within p.Spec.large (n - n_small))) in
  let n_interactive = int_of_float (Float.round (p.Spec.interactive_share *. float_of_int n)) in
  let interactive = shuffle st (Array.init n (fun i -> i < n_interactive)) in
  let due = ref 0. in
  Array.init n (fun i ->
      due := !due +. gaps.(i);
      { due_s = !due; input = slice st pool sizes.(i); interactive = interactive.(i) })
