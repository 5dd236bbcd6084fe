(* Input_stream edge cases: file, string and stdin transports must be
   indistinguishable to the simulator — same chunks, same reports — in
   the corner configurations (empty input, chunk equal to the input
   length, chunk exceeding it). *)

open Alcotest

let params = Program.default_params
let parse = Parser.parse_exn
let rap = Arch.rap ~bv_depth:params.Program.bv_depth
let rules = [ "ab{3,10}c"; "x[yz]{3,9}w" ]

let placement () =
  let units, errs = Runner.compile_for rap ~params (List.map (fun s -> (s, parse s)) rules) in
  check int "rules compile" 0 (List.length errs);
  Runner.place rap ~params units

let temp_input =
  let counter = ref 0 in
  fun contents ->
    incr counter;
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "rap-stream-test-%d-%d.in" (Unix.getpid ()) !counter)
    in
    let oc = open_out_bin path in
    output_string oc contents;
    close_out oc;
    path

let check_reports_equal label (a : Runner.report) (b : Runner.report) =
  check int (label ^ ": chars") a.Runner.chars b.Runner.chars;
  check int (label ^ ": cycles") a.Runner.cycles b.Runner.cycles;
  check int (label ^ ": reports") a.Runner.match_reports b.Runner.match_reports;
  List.iter
    (fun cat ->
      check (float 0.)
        (label ^ ": " ^ Energy.category_name cat)
        (Energy.get_pj a.Runner.energy cat)
        (Energy.get_pj b.Runner.energy cat))
    Energy.all_categories

let run_stream p stream = Runner.run_stream rap ~params p ~stream

(* Feed [contents] to a function through this process's real stdin, via
   a temp file dup2'd over fd 0 — exactly what `rap simulate` with no
   input argument sees. *)
let with_stdin contents f =
  let path = temp_input contents in
  let saved = Unix.dup Unix.stdin in
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Unix.dup2 fd Unix.stdin;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      Unix.dup2 saved Unix.stdin;
      Unix.close saved;
      Sys.remove path)
    f

let contents_cases =
  [
    ("empty", "");
    ("one byte", "a");
    ("matchy", String.concat "" (List.init 50 (fun _ -> "abbbc xyzzw ")));
  ]

let chunk_cases contents =
  let n = String.length contents in
  List.sort_uniq compare [ 1; max 1 (n / 3); max 1 n (* chunk == length *); n + 7 (* chunk > length *) ]

let test_file_equals_string () =
  let p = placement () in
  List.iter
    (fun (label, contents) ->
      let reference = run_stream p (Input_stream.of_string contents) in
      List.iter
        (fun chunk ->
          let path = temp_input contents in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              check_reports_equal
                (Printf.sprintf "file %s chunk=%d" label chunk)
                reference
                (run_stream p (Input_stream.of_file ~chunk path)));
          check_reports_equal
            (Printf.sprintf "string %s chunk" label)
            reference
            (run_stream p (Input_stream.of_string ~chunk:(max 1 chunk) contents)))
        (chunk_cases contents))
    contents_cases

let test_stdin_equals_string () =
  let p = placement () in
  List.iter
    (fun (label, contents) ->
      let reference = run_stream p (Input_stream.of_string contents) in
      List.iter
        (fun chunk ->
          with_stdin contents (fun () ->
              check_reports_equal
                (Printf.sprintf "stdin %s chunk=%d" label chunk)
                reference
                (run_stream p (Input_stream.of_stdin ~chunk ()))))
        (chunk_cases contents))
    contents_cases

let test_empty_file_stream_shape () =
  let path = temp_input "" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let s = Input_stream.of_file path in
      check (option int) "length 0" (Some 0) (Input_stream.length s);
      check (option string) "no chunks" None (Input_stream.next s);
      check int "pos stays 0" 0 (Input_stream.pos s);
      Input_stream.close s)

let test_oversized_chunk_single_delivery () =
  (* chunk > input: exactly one chunk, the whole input *)
  let contents = "abbbc!" in
  let path = temp_input contents in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let s = Input_stream.of_file ~chunk:(String.length contents * 10) path in
      check (option string) "whole input at once" (Some contents) (Input_stream.next s);
      check (option string) "then exhausted" None (Input_stream.next s);
      Input_stream.close s);
  let s = Input_stream.of_string ~chunk:(String.length contents) contents in
  check (option string) "chunk == length: one chunk" (Some contents) (Input_stream.next s);
  check (option string) "then exhausted" None (Input_stream.next s)

(* A file truncated while it streams (log rotation with copytruncate)
   ends the stream: every chunk is a prefix of the original contents,
   the stream reaches end of input, and nothing faults. *)
let test_truncated_file_ends_stream () =
  let contents = String.init 300_000 (fun i -> Char.chr (32 + (i * 31 mod 95))) in
  let path = temp_input contents in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let s = Input_stream.of_file ~chunk:4096 path in
      let first = Input_stream.next s in
      check (option string) "first chunk" (Some (String.sub contents 0 4096)) first;
      Unix.truncate path 0;
      let rec drain acc =
        match Input_stream.next s with None -> acc | Some c -> drain (acc ^ c)
      in
      let got = drain (Option.get first) in
      Input_stream.close s;
      check bool "stream ends before the original length" true
        (String.length got < String.length contents);
      check string "delivered bytes are a prefix" (String.sub contents 0 (String.length got)) got)

(* Non-regular files (fifos, /proc pseudo-files) must open through the
   channel reader without raising — [in_channel_length] is meaningless
   there — and deliver chunks identical to a string stream.  They are
   not seekable, so resume refuses them with a typed error. *)
let test_fifo_falls_back () =
  let contents = String.concat "" (List.init 20 (fun _ -> "abbbc xyzzw ")) in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rap-stream-test-%d.fifo" (Unix.getpid ()))
  in
  Unix.mkfifo path 0o600;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* Hold an O_RDWR end so the open in [of_file] finds a writer and
         never blocks; the contents fit the pipe buffer so the write
         completes inline. *)
      let wfd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      let wrote =
        Unix.write_substring wfd contents 0 (String.length contents)
      in
      check int "fifo preloaded" (String.length contents) wrote;
      let s = Input_stream.of_file ~chunk:37 path in
      Unix.close wfd;
      (* close the writer: EOF becomes observable *)
      check (option int) "fifo length unknown" None (Input_stream.length s);
      (match Input_stream.seek s 5 with
      | exception Sim_error.Error (Sim_error.Stream_failed _) -> ()
      | () -> fail "seeking a fifo must be refused");
      let rec drain acc s =
        match Input_stream.next s with None -> List.rev acc | Some c -> drain (c :: acc) s
      in
      let got = drain [] s in
      Input_stream.close s;
      let want = drain [] (Input_stream.of_string ~chunk:37 contents) in
      check bool "fifo chunks == string chunks" true (got = want))

let test_proc_pseudo_file () =
  (* /proc files fstat as zero-size: the channel reader must still
     deliver their actual contents. *)
  if Sys.file_exists "/proc/version" then begin
    let s = Input_stream.of_file "/proc/version" in
    let contents = Input_stream.read_all s in
    Input_stream.close s;
    check bool "/proc delivers contents" true (String.length contents > 0);
    let ic = open_in_bin "/proc/version" in
    let want = In_channel.input_all ic in
    close_in ic;
    check string "/proc contents match stdlib read" want contents
  end

let test_read_all_cap () =
  let contents = String.make 10_000 'x' in
  check int "under the cap" 10_000
    (String.length (Input_stream.read_all (Input_stream.of_string contents)));
  (* known length over the cap: refused before buffering anything *)
  (match Input_stream.read_all ~max_bytes:4_096 (Input_stream.of_string contents) with
  | exception Sim_error.Error (Sim_error.Input_too_large { bytes; limit }) ->
      check int "reported size" 10_000 bytes;
      check int "reported limit" 4_096 limit
  | _ -> fail "over-cap read_all must be refused");
  (* position counts: only the remainder is measured against the cap *)
  let s = Input_stream.of_string ~chunk:512 contents in
  Input_stream.seek s 7_000;
  check int "remainder under cap" 3_000 (String.length (Input_stream.read_all ~max_bytes:4_096 s));
  (* unknown length (stdin): the cap still binds, mid-drain *)
  with_stdin contents (fun () ->
      match Input_stream.read_all ~max_bytes:4_096 (Input_stream.of_stdin ~chunk:512 ()) with
      | exception Sim_error.Error (Sim_error.Input_too_large { limit; _ }) ->
          check int "stdin limit" 4_096 limit
      | _ -> fail "unknown-length over-cap read_all must be refused");
  (* the typed error round-trips the service wire codec *)
  let e = Sim_error.Input_too_large { bytes = 10_000; limit = 4_096 } in
  check bool "wire roundtrip" true (Sim_error.of_wire (Sim_error.to_wire e) = Ok e)

let suite =
  [
    test_case "file stream == string stream (edge chunks)" `Quick test_file_equals_string;
    test_case "stdin stream == string stream (edge chunks)" `Quick test_stdin_equals_string;
    test_case "empty file delivers no chunks" `Quick test_empty_file_stream_shape;
    test_case "chunk >= input delivers once" `Quick test_oversized_chunk_single_delivery;
    test_case "truncated file ends the stream" `Quick test_truncated_file_ends_stream;
    test_case "fifo falls back to channel path" `Quick test_fifo_falls_back;
    test_case "/proc pseudo-file streams" `Quick test_proc_pseudo_file;
    test_case "read_all is capped" `Quick test_read_all_cap;
  ]
