let state_id q = Printf.sprintf "q%d" q

let symbol_set_of_class cc = Charclass.to_string cc

let class_of_symbol_set s =
  (* the symbol set is a single class in our concrete syntax *)
  match Parser.parse_result s with
  | Ok { Parser.ast = Ast.Class cc; _ } -> Ok cc
  | Ok _ -> Error (Printf.sprintf "symbol set %S is not a single character class" s)
  | Error e -> Error (Printf.sprintf "bad symbol set %S: %s" s e)

let network_to_json ~id (nfa : Nfa.t) =
  let nodes =
    List.init (Nfa.num_states nfa) (fun q ->
        Json.Obj
          [
            ("id", Json.String (state_id q));
            ("type", Json.String "hState");
            ( "enable",
              Json.String
                (if nfa.Nfa.initial.(q) then "onStartAndActivateIn" else "onActivateIn") );
            ("report", Json.Bool nfa.Nfa.finals.(q));
            ( "attributes",
              Json.Obj [ ("symbolSet", Json.String (symbol_set_of_class nfa.Nfa.labels.(q))) ]
            );
            ( "outputConnections",
              Json.List
                (Array.to_list nfa.Nfa.succs.(q)
                |> List.map (fun q' -> Json.Obj [ ("id", Json.String (state_id q')) ])) );
          ])
  in
  Json.Obj
    [
      ("id", Json.String id);
      ("acceptsEmpty", Json.Bool nfa.Nfa.accepts_empty);
      ("nodes", Json.List nodes);
    ]

let ( let* ) r f = Result.bind r f

let field ?(where = "network") key conv j =
  match Option.bind (Json.member key j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or malformed %S in %s" key where)

let network_of_json j =
  let* nodes = field "nodes" Json.to_list_opt j in
  let accepts_empty =
    Option.value ~default:false (Option.bind (Json.member "acceptsEmpty" j) Json.to_bool_opt)
  in
  (* first pass: ids in order *)
  let* ids =
    List.fold_left
      (fun acc node ->
        let* acc = acc in
        let* id = field ~where:"node" "id" Json.to_string_opt node in
        Ok (id :: acc))
      (Ok []) nodes
    |> Result.map List.rev
  in
  let index = Hashtbl.create 16 in
  List.iteri (fun i id -> Hashtbl.replace index id i) ids;
  if Hashtbl.length index <> List.length ids then Error "duplicate node ids"
  else
    let n = List.length nodes in
    let labels = Array.make n Charclass.full in
    let initial = ref [] and finals = ref [] and edges = ref [] in
    let* () =
      List.fold_left
        (fun acc node ->
          let* () = acc in
          let* id = field ~where:"node" "id" Json.to_string_opt node in
          let q = Hashtbl.find index id in
          let* enable = field ~where:id "enable" Json.to_string_opt node in
          if enable = "onStartAndActivateIn" then initial := q :: !initial;
          (match Option.bind (Json.member "report" node) Json.to_bool_opt with
          | Some true -> finals := q :: !finals
          | Some false | None -> ());
          let* attrs =
            match Json.member "attributes" node with
            | Some a -> Ok a
            | None -> Error (Printf.sprintf "node %s has no attributes" id)
          in
          let* symbol_set = field ~where:id "symbolSet" Json.to_string_opt attrs in
          let* cc = class_of_symbol_set symbol_set in
          labels.(q) <- cc;
          let conns =
            Option.value ~default:[]
              (Option.bind (Json.member "outputConnections" node) Json.to_list_opt)
          in
          List.fold_left
            (fun acc conn ->
              let* () = acc in
              let* target = field ~where:"connection" "id" Json.to_string_opt conn in
              match Hashtbl.find_opt index target with
              | Some q' ->
                  edges := (q, q') :: !edges;
                  Ok ()
              | None -> Error (Printf.sprintf "connection to unknown node %S" target))
            (Ok ()) conns)
        (Ok ()) nodes
    in
    Ok (Nfa.make ~labels ~edges:!edges ~initial:!initial ~finals:!finals ~accepts_empty)

let file_to_string ?pretty networks =
  Json.to_string ?pretty
    (Json.Obj
       [
         ("format", Json.String "mnrl-like");
         ("version", Json.String "1.0");
         ( "networks",
           Json.List (List.map (fun (id, nfa) -> network_to_json ~id nfa) networks) );
       ])

let file_of_string s =
  match Json.of_string_result s with
  | Error e -> Error e
  | Ok j -> (
      match Option.bind (Json.member "networks" j) Json.to_list_opt with
      | None -> Error "missing \"networks\" array"
      | Some nets ->
          List.fold_left
            (fun acc net ->
              let* acc = acc in
              let* id = field "id" Json.to_string_opt net in
              let* nfa = network_of_json net in
              Ok ((id, nfa) :: acc))
            (Ok []) nets
          |> Result.map List.rev)

let save ~path networks =
  let oc = open_out path in
  output_string oc (file_to_string ~pretty:true networks);
  close_out oc

let load ~path =
  if not (Sys.file_exists path) then Error (path ^ ": no such file")
  else begin
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    file_of_string s
  end
