(* Compiled-placement cache: a warm run must load exactly the placement
   a cold compile produces (same report, compilation genuinely skipped),
   and every corruption mode must be rejected into a cold fallback, never
   deserialized as garbage. *)

open Alcotest

let params = Program.default_params
let parse = Parser.parse_exn
let rap = Arch.rap ~bv_depth:params.Program.bv_depth
let rules = [ "ab{3,10}c"; "evil.{0,8}sig"; "x[yz]{3,9}w" ]
let regexes () = List.map (fun s -> (s, parse s)) rules

let temp_cache_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rap-cache-test-%d-%d" (Unix.getpid ()) !counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = temp_cache_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let input = "abbbc evilxsig xyzzzw abbbbbbbbbbc"

let check_reports_equal label (a : Runner.report) (b : Runner.report) =
  check int (label ^ ": cycles") a.Runner.cycles b.Runner.cycles;
  check int (label ^ ": reports") a.Runner.match_reports b.Runner.match_reports;
  List.iter
    (fun cat ->
      check (float 0.)
        (label ^ ": " ^ Energy.category_name cat)
        (Energy.get_pj a.Runner.energy cat)
        (Energy.get_pj b.Runner.energy cat))
    Energy.all_categories

let test_cold_then_warm () =
  with_dir (fun dir ->
      let p_cold, errs_cold, st_cold = Runner.prepare ~cache_dir:dir rap ~params (regexes ()) in
      check bool "first run misses" true (st_cold = Runner.Cache_miss);
      check int "no compile errors" 0 (List.length errs_cold);
      let before = Runner.compile_count () in
      let p_warm, errs_warm, st_warm = Runner.prepare ~cache_dir:dir rap ~params (regexes ()) in
      check bool "second run hits" true (st_warm = Runner.Cache_hit);
      check int "warm run compiled nothing" before (Runner.compile_count ());
      check int "errors travel with the artifact" 0 (List.length errs_warm);
      (* the loaded placement is execution-identical to the cold one *)
      check string "same fingerprint" (Runner.fingerprint p_cold) (Runner.fingerprint p_warm);
      check_reports_equal "cold vs warm"
        (Runner.run rap ~params p_cold ~input)
        (Runner.run rap ~params p_warm ~input))

(* NFA-mode units carry their compressed executor in the artifact: the
   warm run must step the loaded (unmarshalled) executor to exactly the
   cold run's report, byte for byte. *)
let test_cold_then_warm_nfa_executor () =
  let regexes = List.map (fun s -> (s, parse s)) (rules @ [ "(wget|curl).*http" ]) in
  let input = input ^ " wget http curl xhttp wgethttp" in
  with_dir (fun dir ->
      let p_cold, _, st_cold = Runner.prepare ~cache_dir:dir rap ~params regexes in
      check bool "first run misses" true (st_cold = Runner.Cache_miss);
      check bool "an NFA-mode unit is cached" true
        (Array.exists
           (fun (c : Program.compiled) ->
             match c.Program.kind with Program.U_nfa _ -> true | _ -> false)
           p_cold.Mapper.units);
      let p_warm, _, st_warm = Runner.prepare ~cache_dir:dir rap ~params regexes in
      check bool "second run hits" true (st_warm = Runner.Cache_hit);
      let cold = Runner.run rap ~params p_cold ~input in
      check bool "the NFA-mode rule matches" true (cold.Runner.match_reports > 0);
      check string "cold vs warm report" (Runner.render_report cold)
        (Runner.render_report (Runner.run rap ~params p_warm ~input)))

let test_cache_off_and_miss_keys () =
  with_dir (fun dir ->
      let _, _, st = Runner.prepare rap ~params (regexes ()) in
      check bool "no dir = cache off" true (st = Runner.Cache_off);
      let _, _, _ = Runner.prepare ~cache_dir:dir rap ~params (regexes ()) in
      (* a different rule set or architecture must not hit the artifact *)
      let _, _, st2 =
        Runner.prepare ~cache_dir:dir rap ~params [ ("zz+", parse "zz+") ]
      in
      check bool "different sources miss" true (st2 = Runner.Cache_miss);
      let _, _, st3 = Runner.prepare ~cache_dir:dir Arch.bvap ~params (regexes ()) in
      check bool "different arch misses" true (st3 = Runner.Cache_miss))

let corrupt_byte path at =
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let at = if at < String.length raw then at else String.length raw - 1 in
  let b = Bytes.of_string raw in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x5A));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let artifact_path dir =
  let key =
    Program_cache.key ~arch_tag:(Runner.arch_tag rap)
      ~params_tag:(Runner.params_tag params)
      ~sources:rules
  in
  Program_cache.path ~dir ~key

let test_corruption_rejected () =
  (* flip one byte in the payload (CRC), the version byte, and the magic
     — each must invalidate and fall back to a cold compile that then
     repairs the artifact *)
  List.iter
    (fun at ->
      with_dir (fun dir ->
          let p_cold, _, _ = Runner.prepare ~cache_dir:dir rap ~params (regexes ()) in
          corrupt_byte (artifact_path dir) at;
          let p2, _, st = Runner.prepare ~cache_dir:dir rap ~params (regexes ()) in
          (match st with
          | Runner.Cache_invalid _ -> ()
          | _ -> fail "corrupt artifact was not rejected");
          check string "cold fallback placement identical" (Runner.fingerprint p_cold)
            (Runner.fingerprint p2);
          (* the overwrite repaired it *)
          let _, _, st2 = Runner.prepare ~cache_dir:dir rap ~params (regexes ()) in
          check bool "artifact repaired on next run" true (st2 = Runner.Cache_hit)))
    [ 2 (* magic *); 7 (* version byte *); 500 (* payload *) ]

let test_truncation_rejected () =
  with_dir (fun dir ->
      let _ = Runner.prepare ~cache_dir:dir rap ~params (regexes ()) in
      let path = artifact_path dir in
      let ic = open_in_bin path in
      let raw = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub raw 0 (String.length raw / 2));
      close_out oc;
      match Runner.prepare ~cache_dir:dir rap ~params (regexes ()) with
      | _, _, Runner.Cache_invalid _ -> ()
      | _ -> fail "truncated artifact was not rejected")

let test_store_lookup_roundtrip () =
  with_dir (fun dir ->
      let units, errors = Runner.compile_for rap ~params (regexes ()) in
      let p = Runner.place rap ~params units in
      let key = "0123456789abcdef0123456789abcdef" in
      (match Program_cache.store ~dir ~key p errors with
      | Ok () -> ()
      | Error msg -> fail ("store failed: " ^ msg));
      (match Program_cache.lookup ~dir ~key with
      | Program_cache.Hit (p2, errors2) ->
          check string "placement round-trips" (Runner.fingerprint p) (Runner.fingerprint p2);
          check int "errors round-trip" (List.length errors) (List.length errors2)
      | _ -> fail "expected a hit");
      check bool "other key misses" true
        (Program_cache.lookup ~dir ~key:(String.map (fun _ -> 'f') key) = Program_cache.Miss))

(* An artifact written by a different OCaml compiler must be [Invalid],
   decided from the plain version prefix BEFORE Marshal.from_string sees
   a single payload byte — Marshal images are not cross-version stable
   and probing one can crash.  The fake artifact carries deliberately
   non-Marshal bytes where the image would be: if lookup's order ever
   regresses, this test dies inside Marshal instead of failing an
   assertion. *)
let test_version_skew_rejected_before_unmarshal () =
  with_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let key = "fedcba9876543210fedcba9876543210" in
      let payload ver rest =
        let b = Buffer.create 64 in
        let n = String.length ver in
        for i = 0 to 3 do
          Buffer.add_char b (Char.chr ((n lsr (8 * i)) land 0xFF))
        done;
        Buffer.add_string b ver;
        Buffer.add_string b rest;
        Buffer.contents b
      in
      let save p =
        Artifact.save
          ~path:(Program_cache.path ~dir ~key)
          ~magic:"RAPPROG" ~version:Program_cache.version p
      in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      save (payload "9.99.9" "these bytes are not a marshal image");
      (match Program_cache.lookup ~dir ~key with
      | Program_cache.Invalid detail ->
          check bool "detail names the foreign version" true (contains detail "9.99.9")
      | _ -> fail "foreign-version artifact must be Invalid");
      (* same version but garbage image: still a clean Invalid *)
      save (payload Sys.ocaml_version "still not a marshal image");
      (match Program_cache.lookup ~dir ~key with
      | Program_cache.Invalid _ -> ()
      | _ -> fail "garbage image must be Invalid");
      (* truncated version prefix: shorter than its own length field *)
      save "\xff\x00\x00\x00v";
      match Program_cache.lookup ~dir ~key with
      | Program_cache.Invalid _ -> ()
      | _ -> fail "truncated prefix must be Invalid")

let test_mask_tables_hash_consed () =
  (* many states share character classes, so the 256-entry label tables
     and successor masks must collapse to a handful of physical rows of
     the flat packed mask table *)
  let nbva = Nbva.compile ~threshold:2 (parse "a{14}b|a{9}c|[ab]{4,30}d") in
  let nwords = Bitvec.words_for (Nbva.num_states nbva) in
  let table name = List.assoc name (Nbva.plan_tables nbva) in
  (* rows stored, against the rows the plan indexes: one per byte, one
     per state, and the initial and final rows *)
  let physical = Array.length (table "masks") / nwords in
  let logical = Array.length (table "labels_row") + Array.length (table "succ_row") + 2 in
  check bool "tables are shared" true (physical < logical / 4);
  (* the dedup is structural (equal rows share one offset in the flat
     table), so the Marshal image — what the placement cache stores —
     must stay below the bytes an unshared table of [logical] full-width
     rows would occupy on its own *)
  let image = Marshal.to_string nbva [] in
  check bool "marshalled image benefits from sharing" true
    (String.length image < logical * nwords * 8)

let suite =
  [
    test_case "cold compile then warm hit (compile-count probe)" `Quick test_cold_then_warm;
    test_case "cold then warm with an NFA-mode executor" `Quick test_cold_then_warm_nfa_executor;
    test_case "cache off / distinct keys miss" `Quick test_cache_off_and_miss_keys;
    test_case "corruption rejected then repaired" `Quick test_corruption_rejected;
    test_case "truncation rejected" `Quick test_truncation_rejected;
    test_case "store/lookup round-trip" `Quick test_store_lookup_roundtrip;
    test_case "compiler-version skew rejected before unmarshal" `Quick
      test_version_skew_rejected_before_unmarshal;
    test_case "mask tables hash-consed and shared in Marshal" `Quick test_mask_tables_hash_consed;
  ]
