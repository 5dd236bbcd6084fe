(* The compiled tables the simulator steps on: pinned digests on the real
   suites, and the mask-row layout of the NBVA execution plan. *)

open Alcotest

let params = Program.default_params

(* One digest over a placement's compiled tables, in placement order:
   every unit's NBVA plan tables and byte tables, then every bin's
   Shift-And tables. *)
let tables_digest (p : Mapper.placement) =
  let b = Buffer.create 65536 in
  let add_words name words =
    Buffer.add_string b name;
    Array.iter
      (fun w ->
        Buffer.add_char b ' ';
        Buffer.add_string b (string_of_int w))
      words;
    Buffer.add_char b '\n'
  in
  let add_nbva a =
    List.iter (fun (name, words) -> add_words name words) (Nbva.plan_tables a);
    List.iter
      (fun (name, bytes) ->
        Buffer.add_string b name;
        Buffer.add_bytes b bytes;
        Buffer.add_char b '\n')
      (Nbva.plan_bytes a)
  in
  Array.iter
    (fun (c : Program.compiled) ->
      match c.Program.kind with
      | Program.U_nfa u -> add_nbva u.Program.exec
      | Program.U_nbva u -> add_nbva u.Program.nbva
      | Program.U_lnfa _ -> Buffer.add_string b "lnfa\n")
    p.Mapper.units;
  Array.iter
    (fun sa ->
      List.iter
        (fun (name, vs) ->
          Array.iter
            (fun v ->
              add_words name (Array.init (Bitvec.words_for (Bitvec.width v)) (Bitvec.get_word v)))
            vs)
        (Shift_and.tables sa))
    p.Mapper.bin_tables;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* (suite, scale, tables digest, placement fingerprint) under the RAP
   architecture and the default parameters.  A change that means to
   change a compiled table updates these strings and says why. *)
let pinned =
  [
    ("RegexLib", 1, "f1891fc296cdb2f32c6a48181f7c9fb9", "d7ad1e926d8a032808e996a25a4aa370");
    ("SpamAssassin", 1, "5548e48b95e4240b745f2f741ef0d33b", "b2f881eba51a4231d6eb77cb19a576da");
    ("Snort", 1, "7ab035ecb279b386cf16d24d76e39d5b", "eeab94d7873bb68c64c5606fbd54c609");
    ("Suricata", 1, "c3b4b96be43add2239579f1c27134e58", "36dd9a3a287c0b9de1ca45d78105eb0b");
    ("Yara", 1, "e1d65204f1e3d928a7dccf54eaf5dcb9", "6caaa161a09eb2c5a0b4c70d4598df01");
    ("ClamAV", 1, "1c0431edb344a96935cce15457e54b98", "7c2318d1c75b64298767a9cff9491e09");
    ("Prosite", 1, "d542cbd712f6b4cad501eeb073675e06", "e8fa88db01bc6415873fbcd4dea8621d");
    ("Snort", 4, "057e5c9f36ce142197abaafeb67bf539", "6813026869b61f02dd17c6d10a0e8579");
  ]

let placement_of name scale =
  let arch = Rap.rap_arch () in
  let suite = Benchmarks.by_name ~scale name in
  let units, _ = Runner.compile_for arch ~params suite.Benchmarks.regexes in
  Runner.place arch ~params units

let test_pinned_tables () =
  check (list string) "every suite pinned"
    (List.map (fun (s : Benchmarks.t) -> s.Benchmarks.name) (Benchmarks.all ()))
    (List.filter_map (fun (name, scale, _, _) -> if scale = 1 then Some name else None) pinned);
  List.iter
    (fun (name, scale, tables, fp) ->
      let p = placement_of name scale in
      let tag = Printf.sprintf "%s x%d" name scale in
      check string (tag ^ " tables") tables (tables_digest p);
      check string (tag ^ " fingerprint") fp (Runner.fingerprint p))
    pinned

(* Mask rows, decoded from the plan tables and checked against masks
   computed straight from the automaton: [labels_row] and [succ_row]
   point at rows equal to each byte's Plain-STE mask and each state's
   successor mask, and [masks] holds exactly the distinct masks in their
   first-occurrence order — bytes 0 to 255, then states, then the
   initial, final and BV masks. *)
let rows_match (a : Nbva.t) =
  let n = Nbva.num_states a in
  let nw = Bitvec.words_for n and bpw = Bitvec.bits_per_word in
  let table name = List.assoc name (Nbva.plan_tables a) in
  let masks = table "masks" and labels_row = table "labels_row" and succ_row = table "succ_row" in
  let mask mem =
    let m = Array.make nw 0 in
    for q = 0 to n - 1 do
      if mem q then m.(q / bpw) <- m.(q / bpw) lor (1 lsl (q mod bpw))
    done;
    m
  in
  let label b =
    mask (fun q ->
        match a.Nbva.stes.(q) with Nbva.Plain cc -> Charclass.mem_byte cc b | Nbva.Bv _ -> false)
  in
  let succ q = mask (fun s -> Array.mem s a.Nbva.succs.(q)) in
  let labels = List.init 256 label and succs = List.init n succ in
  let others =
    [
      mask (fun q -> a.Nbva.initial.(q));
      mask (fun q -> a.Nbva.finals.(q));
      mask (fun q -> match a.Nbva.stes.(q) with Nbva.Bv _ -> true | Nbva.Plain _ -> false);
    ]
  in
  let first_seen =
    List.rev
      (List.fold_left
         (fun seen m -> if List.mem m seen then seen else m :: seen)
         [] (labels @ succs @ others))
  in
  let rows = List.init (Array.length masks / nw) (fun i -> Array.sub masks (i * nw) nw) in
  let row_at off = Array.sub masks off nw in
  Array.length masks mod nw = 0
  && rows = first_seen
  && List.length (List.sort_uniq compare rows) = List.length rows
  && List.for_all (fun b -> row_at labels_row.(b) = List.nth labels b) (List.init 256 Fun.id)
  && List.for_all (fun q -> row_at succ_row.(q) = List.nth succs q) (List.init n Fun.id)

let prop_mask_rows =
  QCheck2.Test.make ~name:"mask rows: decoded = direct, distinct, first-occurrence order"
    ~count:300 ~print:Gen.ast_print (Gen.gen_ast ())
    (fun r -> rows_match (Nbva.compile ~threshold:2 r) && rows_match (Nbva.compile ~threshold:8 r))

let prop_mask_rows_wide =
  QCheck2.Test.make ~name:"mask rows over several words" ~count:100 ~print:Gen.ast_print
    Gen.gen_wide_ast
    (fun r -> rows_match (Nbva.compile ~threshold:8 r))

let suite =
  [
    test_case "suite tables and fingerprints pinned" `Quick test_pinned_tables;
    QCheck_alcotest.to_alcotest prop_mask_rows;
    QCheck_alcotest.to_alcotest prop_mask_rows_wide;
  ]
