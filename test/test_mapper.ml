(* Binning and placement invariants. *)

open Alcotest

let params = Program.default_params
let parse = Parser.parse_exn

let line_of s = { Program.labels = Array.init (String.length s) (fun i -> Charclass.singleton s.[i]); single_code = true }

let test_bin_capacity () =
  check int "single-code capacity" 192 (Binning.capacity_per_tile ~single_code:true);
  check int "one-hot capacity" 64 (Binning.capacity_per_tile ~single_code:false)

let test_bin_geometry () =
  (* 8 lines of 21 states fit one tile: 8 * 21 = 168 <= 192 *)
  let lines = List.init 8 (fun i -> (i, line_of (String.make 21 'a'))) in
  let bins = Binning.pack ~max_bin_size:8 lines in
  check int "one bin" 1 (List.length bins);
  let b = List.hd bins in
  check int "one tile" 1 b.Binning.tiles;
  check int "segment = full line" 21 b.Binning.region_states;
  (* 32 lines of 34 states: 1088 states need 6 tiles of 192 *)
  let big = List.init 32 (fun i -> (i, line_of (String.make 34 'b'))) in
  let bins = Binning.pack ~max_bin_size:32 big in
  check int "one bin" 1 (List.length bins);
  let b = List.hd bins in
  check int "six tiles" 6 b.Binning.tiles;
  check bool "per-tile load within capacity" true
    (32 * b.Binning.region_states <= Binning.capacity_per_tile ~single_code:true)

let test_bin_separates_paths () =
  let cam = (0, line_of "abcd") in
  let onehot = (1, { Program.labels = [| Charclass.dot |]; single_code = false }) in
  let bins = Binning.pack ~max_bin_size:8 [ cam; onehot ] in
  check int "two bins (different stores)" 2 (List.length bins);
  List.iter
    (fun b ->
      check int "homogeneous membership" 1 (List.length b.Binning.members))
    bins

let test_bin_sorting_and_waste () =
  (* mixed lengths: sorting groups similar lengths; waste is bounded *)
  let lines = List.init 16 (fun i -> (i, line_of (String.make (4 + i) 'c'))) in
  let bins = Binning.pack ~max_bin_size:4 lines in
  List.iter
    (fun b ->
      let lens =
        List.map (fun (_, l) -> Array.length l.Program.labels) b.Binning.members
      in
      let mx = List.fold_left max 0 lens and mn = List.fold_left min 1000 lens in
      check bool "bin holds similar lengths" true (mx - mn <= 4);
      check bool "slots hold every member" true
        (b.Binning.slots * b.Binning.max_len >= List.fold_left ( + ) 0 lens))
    bins

(* Placement invariants, checked on a mixed compiled workload. *)

let mixed_units () =
  let srcs =
    [
      "abcdef";
      "keyword[xy]tail";
      "a{40}end";
      "gap.{5,90}stop";
      "(red|blue|green)+alert";
      String.concat "" (List.init 200 (fun _ -> "k"));
      "m{300}n";
      "linecdefgh";
    ]
  in
  List.map
    (fun s -> Mode_select.compile ~params ~source:s (parse s))
    srcs

(* A placement on a pristine chip that must drop nothing. *)
let place units =
  match Mapper.map_units_result ~params units with
  | p, [], _ -> p
  | _, e :: _, _ -> failf "dropped %a" Compile_error.pp e

let test_placement_invariants () =
  let units = Array.of_list (mixed_units ()) in
  let p = place units in
  (* every array holds at most 16 tiles *)
  Array.iter
    (fun tiles -> check bool "array size" true (Array.length tiles <= 16))
    p.Mapper.arrays;
  (* every non-LNFA unit tile is placed exactly once; [seen] maps it to
     its array *)
  let seen = Hashtbl.create 16 in
  Array.iteri
    (fun ai tiles ->
      Array.iter
        (fun (t : Mapper.placed_tile) ->
          List.iter
            (fun piece ->
              match piece with
              | Mapper.P_unit { unit_id; local_tile } ->
                  let key = (unit_id, local_tile) in
                  check bool "no duplicate placement" false (Hashtbl.mem seen key);
                  Hashtbl.replace seen key ai
              | Mapper.P_bin _ -> ())
            t.Mapper.pieces)
        tiles)
    p.Mapper.arrays;
  Array.iteri
    (fun id (c : Program.compiled) ->
      match c.Program.kind with
      | Program.U_lnfa _ -> ()
      | k ->
          for i = 0 to Program.num_tiles k - 1 do
            check bool
              (Printf.sprintf "unit %d tile %d placed" id i)
              true (Hashtbl.mem seen (id, i))
          done)
    units;
  (* units never span arrays *)
  Array.iteri
    (fun id (c : Program.compiled) ->
      match c.Program.kind with
      | Program.U_lnfa _ -> ()
      | k ->
          let home = Hashtbl.find seen (id, 0) in
          for i = 1 to Program.num_tiles k - 1 do
            check int (Printf.sprintf "unit %d tile %d on its home array" id i) home
              (Hashtbl.find seen (id, i))
          done)
    units;
  (* tile modes are homogeneous with their pieces *)
  Array.iter
    (fun tiles ->
      Array.iter
        (fun (t : Mapper.placed_tile) ->
          List.iter
            (fun piece ->
              match (piece, t.Mapper.mode) with
              | Mapper.P_bin _, Mapper.T_lnfa -> ()
              | Mapper.P_bin _, _ -> fail "bin piece in non-LNFA tile"
              | Mapper.P_unit { unit_id; _ }, m -> (
                  match (units.(unit_id).Program.kind, m) with
                  | Program.U_nfa _, Mapper.T_nfa | Program.U_nbva _, Mapper.T_nbva -> ()
                  | _ -> fail "unit piece in wrong-mode tile"))
            t.Mapper.pieces)
        tiles)
    p.Mapper.arrays

let test_nbva_sharing_constraints () =
  (* several small NBVA units must share tiles without mixing r and rAll *)
  let srcs = List.init 12 (fun i -> Printf.sprintf "p%dq[ab]{%d}z" i (20 + i)) in
  let units =
    Array.of_list (List.map (fun s -> Mode_select.compile ~params ~source:s (parse s)) srcs)
  in
  let p = place units in
  let stats = Mapper.stats p in
  check bool "tiles shared (fewer tiles than units)" true
    (stats.Mapper.num_tiles < Array.length units);
  check bool "good utilisation" true (stats.Mapper.col_utilisation > 0.5)

let test_utilisation_on_benchmark () =
  (* the paper claims >90% utilisation; our mapper should land high too *)
  let s = Benchmarks.by_name "Snort" in
  let regexes = List.filteri (fun i _ -> i < 60) s.Benchmarks.regexes in
  let units, _ = Runner.compile_for (Arch.rap ~bv_depth:8) ~params regexes in
  let p = Runner.place (Arch.rap ~bv_depth:8) ~params units in
  let stats = Mapper.stats p in
  check bool
    (Format.asprintf "utilisation reasonable: %a" Mapper.pp_stats stats)
    true
    (stats.Mapper.col_utilisation > 0.55)

(* [Runner.place] raises on a unit that does not fit one array;
   compiler's "mapper oversize drop is structured" checks the typed drop
   underneath. *)
let test_oversized_unit_rejected () =
  let huge = parse (String.concat "" (List.init 2200 (fun _ -> "a"))) in
  let c = Option.get (Mode_select.compile_as Mode_select.Nfa_mode ~params ~source:"huge" huge) in
  match Runner.place (Rap.rap_arch ()) ~params [ c ] with
  | _ -> fail "an oversize unit was placed"
  | exception Invalid_argument _ -> ()

let test_pp_placement () =
  let units = Array.of_list (mixed_units ()) in
  let p = place units in
  let s = Format.asprintf "%a" Mapper.pp_placement p in
  check bool "lists arrays" true (Astring_contains.contains s "array 0");
  check bool "lists tiles" true (Astring_contains.contains s "tile");
  check bool "shows utilisation" true (Astring_contains.contains s "col-util")

(* Random rule sets keep every placement invariant. *)
let prop_placement_invariants =
  QCheck2.Test.make ~name:"placement invariants on random rule sets" ~count:40
    QCheck2.Gen.(list_size (int_range 1 25) (Gen.gen_ast ~max_bound:12 ()))
    (fun asts ->
      let units =
        List.filter_map
          (fun ast ->
            match Mode_select.compile ~params ~source:"r" ast with
            | c -> Some c
            | exception Invalid_argument _ -> None)
          asts
        |> Array.of_list
      in
      if Array.length units = 0 then true
      else
        let p, drops, _ = Mapper.map_units_result ~params units in
        (* nothing dropped, arrays within capacity, every non-LNFA tile
           placed exactly once *)
        let ok_capacity =
          Array.for_all (fun tiles -> Array.length tiles <= 16) p.Mapper.arrays
        in
        let seen = Hashtbl.create 16 in
        Array.iter
          (fun tiles ->
            Array.iter
              (fun (t : Mapper.placed_tile) ->
                List.iter
                  (function
                    | Mapper.P_unit { unit_id; local_tile } ->
                        Hashtbl.replace seen (unit_id, local_tile) ()
                    | Mapper.P_bin _ -> ())
                  t.Mapper.pieces)
              tiles)
          p.Mapper.arrays;
        let ok_complete = ref true in
        Array.iteri
          (fun id (c : Program.compiled) ->
            match c.Program.kind with
            | Program.U_lnfa _ -> ()
            | k ->
                for i = 0 to Program.num_tiles k - 1 do
                  if not (Hashtbl.mem seen (id, i)) then ok_complete := false
                done)
          units;
        drops = [] && ok_capacity && !ok_complete)

(* Placement allocates in proportion to the rules: an attempt on an array
   undoes its adds instead of copying the array's built tiles, so four
   times the rules take at most five times the words.  The placements
   themselves stay as pinned. *)
let test_place_allocation_scales () =
  let arch = Rap.rap_arch () in
  let place scale =
    let units, _ =
      Runner.compile_for arch ~params (Benchmarks.by_name ~scale "Snort").Benchmarks.regexes
    in
    let w0 = Gc.minor_words () in
    let p = Runner.place arch ~params units in
    let words = Gc.minor_words () -. w0 in
    let _, _, _, fp = List.find (fun (n, k, _, _) -> n = "Snort" && k = scale) Test_tables.pinned in
    check string (Printf.sprintf "Snort x%d fingerprint" scale) fp (Runner.fingerprint p);
    words
  in
  let w1 = place 1 and w4 = place 4 in
  check bool (Printf.sprintf "x4 words %.0f <= 5 x x1 words %.0f" w4 w1) true (w4 <= 5. *. w1)

let suite =
  [
    test_case "bin capacities" `Quick test_bin_capacity;
    test_case "bin geometry (regex-sliced segments)" `Quick test_bin_geometry;
    test_case "bins separate CAM and switch paths" `Quick test_bin_separates_paths;
    test_case "bin sorting and waste" `Quick test_bin_sorting_and_waste;
    test_case "placement invariants" `Quick test_placement_invariants;
    test_case "NBVA tile sharing" `Quick test_nbva_sharing_constraints;
    test_case "benchmark utilisation" `Quick test_utilisation_on_benchmark;
    test_case "oversized units rejected" `Quick test_oversized_unit_rejected;
    test_case "placement printer" `Quick test_pp_placement;
    test_case "placement allocation scales with the rules" `Quick test_place_allocation_scales;
    QCheck_alcotest.to_alcotest prop_placement_invariants;
  ]
