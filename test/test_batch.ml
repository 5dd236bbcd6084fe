(* Batched multi-stream execution.  The load-bearing property is the
   per-stream bit-identity contract: running B streams through the batch
   layer — any jobs value — produces for each stream exactly the report
   a solo Runner.run at jobs 1 produces, floats included.  The aggregate
   must model concurrent contexts: chars sum, cycles max. *)

open Alcotest

let params = Program.default_params
let parse = Parser.parse_exn
let rap = Arch.rap ~bv_depth:params.Program.bv_depth

let rules =
  [ "ab{3,10}c"; "evil.{0,8}sig"; "x[yz]{3,9}w"; "(wget|curl).*http"; "b(a{7}|c{5})b" ]

let regexes () = List.map (fun s -> (s, parse s)) rules

let placement () =
  let units, errs = Runner.compile_for rap ~params (regexes ()) in
  check int "rules compile" 0 (List.length errs);
  Runner.place rap ~params units

(* Alphabet biased toward partial and full matches of [rules]. *)
let alphabet = "abcxyzwevilsg htp.u"

let check_report_equal label (a : Runner.report) (b : Runner.report) =
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

let solo p input = Runner.run ~jobs:1 rap ~params p ~input

let sources_of ?chunk inputs =
  Array.of_list
    (List.mapi (fun i s -> Batch.of_string ?chunk ~name:(Printf.sprintf "s%d" i) s) inputs)

let batch_of p ~jobs ?chunk inputs = Batch.run ~jobs rap ~params p ~sources:(sources_of ?chunk inputs)

let check_batch_equals_solo label p ~jobs ?chunk inputs =
  let b = batch_of p ~jobs ?chunk inputs in
  List.iteri
    (fun i input ->
      check_report_equal
        (Printf.sprintf "%s: stream %d" label i)
        (solo p input) b.Batch.streams.(i).Batch.bs_report)
    inputs

let test_batch_bit_identical () =
  let p = placement () in
  let inputs =
    [
      "abbbc evil bad sig xyzzw wget http";
      "baaaaaaab bcccccb abbbbbbbbbbc";
      String.concat "" (List.init 40 (fun i -> if i mod 3 = 0 then "abbbc" else "xyzyw "));
      "";
      "curl -o http evilsig";
    ]
  in
  List.iter
    (fun jobs -> check_batch_equals_solo (Printf.sprintf "jobs=%d" jobs) p ~jobs inputs)
    [ 1; 2; 4; 8 ]

let test_batch_chunked_identical () =
  (* chunk boundaries must not show in the results *)
  let p = placement () in
  let inputs = [ String.concat "" (List.init 30 (fun _ -> "abbbbc evil big sig ")); "abbbc" ] in
  List.iter
    (fun chunk -> check_batch_equals_solo (Printf.sprintf "chunk=%d" chunk) p ~jobs:4 ~chunk inputs)
    [ 1; 7; 64; 100_000 ]

let test_batch_skewed_streams () =
  (* heavily skewed lengths: the work list must still produce exact
     per-stream results whichever tasks finish first *)
  let p = placement () in
  let inputs =
    List.init 8 (fun i ->
        String.concat "" (List.init (i * i * 20) (fun j -> if j mod 7 = 0 then "abbbc" else "x")))
  in
  check_batch_equals_solo "skewed" p ~jobs:4 inputs

let test_batch_aggregate () =
  let p = placement () in
  let inputs = [ "abbbc abbbc"; ""; String.make 500 'a' ^ "bbbc" ] in
  let b = batch_of p ~jobs:2 inputs in
  let per_stream = Array.map (fun s -> s.Batch.bs_report) b.Batch.streams in
  let a = b.Batch.aggregate in
  check int "streams" (List.length inputs) a.Batch.agg_streams;
  check int "chars = sum" (Array.fold_left (fun acc r -> acc + r.Runner.chars) 0 per_stream)
    a.Batch.agg_chars;
  check int "cycles = max"
    (max 1 (Array.fold_left (fun acc r -> max acc r.Runner.cycles) 0 per_stream))
    a.Batch.agg_cycles;
  check int "reports = sum"
    (Array.fold_left (fun acc r -> acc + r.Runner.match_reports) 0 per_stream)
    a.Batch.agg_reports;
  (* concurrent contexts beat the sequential baseline: aggregate
     throughput over 3 streams with one dominating must exceed any
     single stream's share of a sequential pass *)
  check bool "aggregate throughput positive" true (a.Batch.agg_throughput_gchs > 0.)

let test_batch_beats_sequential () =
  (* the ISSUE acceptance bar: 8 synthetic streams, aggregate simulated
     throughput at least 2x the sequential single-stream baseline *)
  let p = placement () in
  let inputs =
    List.init 8 (fun i ->
        String.concat ""
          (List.init 400 (fun j -> if (i + j) mod 5 = 0 then "abbbc" else "xyzw ")))
  in
  let b = batch_of p ~jobs:4 inputs in
  let seq_cycles =
    List.fold_left (fun acc input -> acc + (solo p input).Runner.cycles) 0 inputs
  in
  let seq_gchs =
    float_of_int b.Batch.aggregate.Batch.agg_chars *. rap.Arch.clock_ghz
    /. float_of_int seq_cycles
  in
  check bool "aggregate >= 2x sequential" true
    (b.Batch.aggregate.Batch.agg_throughput_gchs >= 2. *. seq_gchs)

let test_batch_kernel_agreement () =
  (* the batch path and the scalar reference kernel must agree through
     the whole stack, like the single-stream differential gate *)
  let p = placement () in
  let inputs = [ "abbbc evilxsig xyzzzw"; "baaaaaaab wget http"; "" ] in
  let with_kernel k f =
    let saved = !Nbva.kernel in
    Nbva.kernel := k;
    Fun.protect ~finally:(fun () -> Nbva.kernel := saved) f
  in
  let bp = with_kernel Nbva.Bit_parallel (fun () -> batch_of p ~jobs:1 inputs) in
  let refr = with_kernel Nbva.Reference (fun () -> batch_of p ~jobs:1 inputs) in
  Array.iteri
    (fun i (s : Batch.stream_report) ->
      check_report_equal
        (Printf.sprintf "kernels agree: stream %d" i)
        s.Batch.bs_report
        refr.Batch.streams.(i).Batch.bs_report)
    bp.Batch.streams

(* QCheck: random stream sets, random jobs — batch == solo, always. *)
let prop_batch_equals_solo =
  let open QCheck2 in
  let gen_char = Gen.oneofl (List.init (String.length alphabet) (String.get alphabet)) in
  let gen_stream = Gen.(string_size ~gen:gen_char (0 -- 200)) in
  let gen = Gen.pair (Gen.list_size Gen.(1 -- 8) gen_stream) (Gen.oneofl [ 1; 2; 4 ]) in
  Test.make ~count:25 ~name:"batch reports == solo reports (any jobs)" gen
    (fun (inputs, jobs) ->
      let p = placement () in
      let b = batch_of p ~jobs inputs in
      List.for_all2
        (fun input (s : Batch.stream_report) ->
          let r = solo p input in
          let e = s.Batch.bs_report in
          r.Runner.cycles = e.Runner.cycles
          && r.Runner.match_reports = e.Runner.match_reports
          && r.Runner.chars = e.Runner.chars
          && List.for_all
               (fun cat ->
                 Energy.get_pj r.Runner.energy cat = Energy.get_pj e.Runner.energy cat)
               Energy.all_categories)
        inputs
        (Array.to_list b.Batch.streams))

let suite =
  [
    test_case "batch == solo, bit-identical (jobs x sources)" `Quick test_batch_bit_identical;
    test_case "chunk boundaries invisible" `Quick test_batch_chunked_identical;
    test_case "skewed stream lengths" `Quick test_batch_skewed_streams;
    test_case "aggregate: chars sum, cycles max" `Quick test_batch_aggregate;
    test_case "aggregate >= 2x sequential baseline" `Quick test_batch_beats_sequential;
    test_case "batched kernel == scalar reference" `Quick test_batch_kernel_agreement;
    QCheck_alcotest.to_alcotest prop_batch_equals_solo;
  ]
