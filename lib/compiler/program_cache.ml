(* See program_cache.mli. *)

let magic = "RAPPROG"

(* Bump whenever any type reachable from [entry] changes layout: the
   version byte in the Artifact envelope is the only thing standing
   between an old artifact and Marshal reading it as garbage.
   v2: Nbva exec plans became flat packed mask tables, Bitvec grew a
   slice representation.
   v3: the compiler version moved out of the marshalled entry into a
   plain length-prefixed prefix of the payload, so it is checked
   BEFORE Marshal touches any bytes — Marshal is not cross-version
   stable, and probing a foreign-version artifact with it risks a
   crash rather than a clean [Invalid].
   v4: [Program.compiled] grew the [hint] execution-strategy field and
   [Program.params] grew the two DFA budget fields.
   v5: [Nbva.exec_plan] grew the idle fast path's [wake] table and the
   [top_mask] of the activation words.
   v6: [Program.nfa_unit] carries its compressed executor ([exec]), so
   a warm load skips the threshold-2 compile along with the rest.
   v7: [Program.compiled] lost the [hint] field and [Program.params]
   the DFA budgets, with the lazy-DFA stepper they steered.
   v8: [Mapper.placement] carries each bin's compiled Shift-And tables
   ([bin_tables]), and [Shift_and.t] its [wake] bytes. *)
let version = 8

type entry = {
  e_key : string;
  e_placement : Mapper.placement;
  e_errors : Compile_error.t list;
}

type lookup_result =
  | Hit of Mapper.placement * Compile_error.t list
  | Miss
  | Invalid of string

let key ~arch_tag ~params_tag ~sources =
  let b = Buffer.create 256 in
  Buffer.add_string b arch_tag;
  Buffer.add_char b '\000';
  Buffer.add_string b params_tag;
  Buffer.add_char b '\000';
  List.iter
    (fun s ->
      Buffer.add_string b s;
      Buffer.add_char b '\001')
    sources;
  Digest.to_hex (Digest.string (Buffer.contents b))

let path ~dir ~key = Filename.concat dir (Printf.sprintf "rap-%s.prog" key)

(* Payload layout (v3): a 4-byte LE length, [Sys.ocaml_version] as plain
   bytes, then the marshalled [entry].  The prefix needs no Marshal to
   read, so the version gate runs on bytes Marshal never sees. *)
let store ~dir ~key placement errors =
  match
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let b = Buffer.create 4096 in
    let ver = Sys.ocaml_version in
    let n = String.length ver in
    for i = 0 to 3 do
      Buffer.add_char b (Char.chr ((n lsr (8 * i)) land 0xFF))
    done;
    Buffer.add_string b ver;
    Buffer.add_string b
      (Marshal.to_string { e_key = key; e_placement = placement; e_errors = errors } []);
    Artifact.save ~path:(path ~dir ~key) ~magic ~version (Buffer.contents b)
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

let lookup ~dir ~key =
  match Artifact.load ~path:(path ~dir ~key) ~magic ~version with
  | Ok None -> Miss
  | Error detail -> Invalid detail
  | Ok (Some payload) ->
      if String.length payload < 4 then Invalid "truncated version prefix"
      else begin
        let n = ref 0 in
        for i = 3 downto 0 do
          n := (!n lsl 8) lor Char.code payload.[i]
        done;
        let n = !n in
        if n < 0 || 4 + n > String.length payload then Invalid "truncated version prefix"
        else begin
          let ocaml = String.sub payload 4 n in
          if ocaml <> Sys.ocaml_version then
            Invalid (Printf.sprintf "built by OCaml %s, this is %s" ocaml Sys.ocaml_version)
          else
            match (Marshal.from_string payload (4 + n) : entry) with
            | exception Failure msg -> Invalid ("unmarshalable payload: " ^ msg)
            | e ->
                if e.e_key <> key then Invalid "key mismatch (artifact renamed or collided)"
                else Hit (e.e_placement, e.e_errors)
        end
      end
