type t = {
  name : string;
  regexes : (string * Ast.t) list;
  make_input : chars:int -> string;
}

(* Mode mixture per suite (Fig 1), as generator weights out of 100. *)
type profile = {
  seed : int;
  count : int;  (* regexes at scale 1 *)
  nfa_w : int;
  nbva_w : int;
  lnfa_w : int;
  alphabet : Synth.alphabet;
  min_bound : int;  (* counted-repetition bounds for the NBVA share *)
  max_bound : int;
  network_style : bool;  (* Snort/Suricata flavour for NFA/NBVA shares *)
  embed_per_mille : int;  (* pattern-fragment rate in the input stream *)
}

let profiles =
  [
    ( "RegexLib",
      { seed = 101; count = 120; nfa_w = 60; nbva_w = 15; lnfa_w = 25;
        alphabet = Synth.Text; min_bound = 10; max_bound = 24; network_style = false; embed_per_mille = 6 } );
    ( "SpamAssassin",
      { seed = 102; count = 140; nfa_w = 20; nbva_w = 10; lnfa_w = 70;
        alphabet = Synth.Text; min_bound = 8; max_bound = 16; network_style = false; embed_per_mille = 6 } );
    ( "Snort",
      { seed = 103; count = 150; nfa_w = 40; nbva_w = 45; lnfa_w = 15;
        alphabet = Synth.Text; min_bound = 12; max_bound = 96; network_style = true; embed_per_mille = 2 } );
    ( "Suricata",
      { seed = 104; count = 150; nfa_w = 38; nbva_w = 46; lnfa_w = 16;
        alphabet = Synth.Text; min_bound = 12; max_bound = 96; network_style = true; embed_per_mille = 2 } );
    ( "Yara",
      { seed = 105; count = 130; nfa_w = 10; nbva_w = 70; lnfa_w = 20;
        alphabet = Synth.Binary; min_bound = 32; max_bound = 128; network_style = false; embed_per_mille = 4 } );
    ( "ClamAV",
      { seed = 106; count = 160; nfa_w = 5; nbva_w = 85; lnfa_w = 10;
        alphabet = Synth.Binary; min_bound = 64; max_bound = 480; network_style = false; embed_per_mille = 12 } );
    ( "Prosite",
      { seed = 107; count = 140; nfa_w = 5; nbva_w = 0; lnfa_w = 95;
        alphabet = Synth.Protein; min_bound = 8; max_bound = 16; network_style = false; embed_per_mille = 6 } );
  ]

let gen_regex st (p : profile) =
  match
    Distributions.weighted st
      [ (p.nfa_w, `Nfa); (max p.nbva_w 0, `Nbva); (p.lnfa_w, `Lnfa) ]
  with
  | `Nfa ->
      if p.network_style then Synth.network_rule st ~bounded:false
      else Synth.complex_validation st
  | `Nbva ->
      if p.network_style then Synth.network_rule st ~bounded:true
      else Synth.counted_signature st ~min_bound:p.min_bound ~max_bound:p.max_bound p.alphabet
  | `Lnfa -> (
      match p.alphabet with
      | Synth.Protein -> Synth.motif st
      | Synth.Text | Synth.Binary -> Synth.keyword_line st p.alphabet)

(* Input streams: background noise over the suite's alphabet, with pattern
   fragments embedded at a rate that keeps reporting under ~10%. *)
let make_input_fn ?(embed_per_mille = 6) ~seed ~alphabet ~fragments ~chars () =
  let st = Distributions.rng (seed * 31 + 17) in
  let buf = Buffer.create chars in
  let noise () =
    let c =
      match alphabet with
      | Synth.Text -> Distributions.alnum_char st
      | Synth.Protein -> Distributions.protein_char st
      | Synth.Binary -> Distributions.hex_byte_char st
    in
    Buffer.add_char buf c
  in
  let fragments = Array.of_list fragments in
  while Buffer.length buf < chars do
    if Array.length fragments > 0 && Distributions.int_in st 0 999 < embed_per_mille then begin
      (* embed a (possibly truncated) fragment of a real pattern *)
      let f = Distributions.choose st fragments in
      let take = Distributions.int_in st 1 (min 12 (String.length f)) in
      Buffer.add_string buf (String.sub f 0 take)
    end
    else noise ()
  done;
  Buffer.sub buf 0 chars

(* A literal fragment that the regex can match (first literal run). *)
let fragment_of ast =
  let buf = Buffer.create 8 in
  let rec walk r =
    match r with
    | Ast.Epsilon -> ()
    | Ast.Class cc -> (
        match Charclass.choose cc with Some c -> Buffer.add_char buf c | None -> ())
    | Ast.Concat (a, b) ->
        walk a;
        walk b
    | Ast.Alt (a, _) -> walk a
    | Ast.Star _ -> ()
    | Ast.Repeat (a, m, _) ->
        for _ = 1 to min m 8 do
          walk a
        done
  in
  walk ast;
  Buffer.contents buf

let build ?(scale = 1) (name, (p : profile)) =
  let st = Distributions.rng p.seed in
  let n = p.count * scale in
  let regexes =
    List.init n (fun _ ->
        let ast = gen_regex st p in
        (Ast.to_string ast, ast))
  in
  let fragments =
    List.filteri (fun i _ -> i mod 7 = 0) regexes
    |> List.map (fun (_, ast) -> fragment_of ast)
    |> List.filter (fun s -> String.length s > 0)
  in
  {
    name;
    regexes;
    make_input =
      (fun ~chars ->
        make_input_fn ~embed_per_mille:p.embed_per_mille ~seed:p.seed ~alphabet:p.alphabet
          ~fragments ~chars ());
  }

let by_name ?scale name =
  match List.assoc_opt name profiles with
  | Some p -> build ?scale (name, p)
  | None -> raise Not_found

let all ?scale () = List.map (build ?scale) profiles

(* ANMLZoo-style suites: pre-unfolded except ClamAV (Table 4). *)
let anml_profiles =
  [
    ("Brill", 201, `Lines);
    ("ClamAV", 202, `Bounded);
    ("Dotstar", 203, `Dotstar);
    ("PowerEN", 204, `Mixed);
    ("Snort", 205, `Mixed);
  ]

let anmlzoo ?(scale = 1) () =
  List.map
    (fun (name, seed, style) ->
      let st = Distributions.rng seed in
      let n = 100 * scale in
      let gen () =
        match style with
        | `Lines -> Synth.keyword_line st Synth.Text
        | `Bounded -> Synth.counted_signature st ~min_bound:48 ~max_bound:200 Synth.Binary
        | `Dotstar ->
            Ast.concat_list
              [
                Synth.keyword_line st Synth.Text;
                Ast.star (Ast.cls Charclass.dot);
                Synth.keyword_line st Synth.Text;
              ]
        | `Mixed ->
            if Distributions.int_in st 0 1 = 0 then
              Synth.unfolded (Synth.network_rule st ~bounded:true)
            else Synth.network_rule st ~bounded:false
      in
      let regexes =
        List.init n (fun _ ->
            let ast = gen () in
            (Ast.to_string ast, ast))
      in
      let fragments =
        List.filteri (fun i _ -> i mod 9 = 0) regexes
        |> List.map (fun (_, ast) -> fragment_of ast)
        |> List.filter (fun s -> String.length s > 0)
      in
      let alphabet = if name = "ClamAV" then Synth.Binary else Synth.Text in
      {
        name;
        regexes;
        make_input = (fun ~chars -> make_input_fn ~seed ~alphabet ~fragments ~chars ());
      })
    anml_profiles
