type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string * int

(* ---------------- printing ---------------- *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let to_string ?(pretty = false) t =
  let buf = Buffer.create 256 in
  let nl indent =
    if pretty then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ')
    end
  in
  let rec emit indent = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Buffer.add_string buf (Printf.sprintf "%.1f" f)
        else Buffer.add_string buf (Printf.sprintf "%.12g" f)
    | String s -> Buffer.add_string buf (escape_string s)
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            nl (indent + 2);
            emit (indent + 2) item)
          items;
        nl indent;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            nl (indent + 2);
            Buffer.add_string buf (escape_string k);
            Buffer.add_string buf (if pretty then ": " else ":");
            emit (indent + 2) v)
          fields;
        nl indent;
        Buffer.add_char buf '}'
  in
  emit 0 t;
  Buffer.contents buf

(* ---------------- parsing ---------------- *)

type cursor = { src : string; mutable pos : int }

let error cur msg = raise (Parse_error (msg, cur.pos))
let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let skip_ws cur =
  while
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
        cur.pos <- cur.pos + 1;
        true
    | _ -> false
  do
    ()
  done

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> cur.pos <- cur.pos + 1
  | _ -> error cur (Printf.sprintf "expected '%c'" c)

let parse_literal cur word value =
  let n = String.length word in
  if cur.pos + n <= String.length cur.src && String.sub cur.src cur.pos n = word then begin
    cur.pos <- cur.pos + n;
    value
  end
  else error cur (Printf.sprintf "expected %s" word)

let parse_string_body cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek cur with
    | None -> error cur "unterminated string"
    | Some '"' -> cur.pos <- cur.pos + 1
    | Some '\\' -> (
        cur.pos <- cur.pos + 1;
        match peek cur with
        | None -> error cur "dangling escape"
        | Some c ->
            cur.pos <- cur.pos + 1;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if cur.pos + 4 > String.length cur.src then error cur "short \\u escape";
                let hex = String.sub cur.src cur.pos 4 in
                cur.pos <- cur.pos + 4;
                let code =
                  try int_of_string ("0x" ^ hex) with _ -> error cur "bad \\u escape"
                in
                (* BMP only; encode as UTF-8 *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
            | c -> error cur (Printf.sprintf "unknown escape '\\%c'" c));
            loop ())
    | Some c ->
        cur.pos <- cur.pos + 1;
        Buffer.add_char buf c;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_num_char c =
    (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
  in
  while (match peek cur with Some c when is_num_char c -> true | _ -> false) do
    cur.pos <- cur.pos + 1
  done;
  let text = String.sub cur.src start (cur.pos - start) in
  match int_of_string_opt text with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> error cur "malformed number")

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> error cur "unexpected end of input"
  | Some '{' ->
      cur.pos <- cur.pos + 1;
      skip_ws cur;
      if peek cur = Some '}' then begin
        cur.pos <- cur.pos + 1;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec fields_loop () =
          skip_ws cur;
          let key = parse_string_body cur in
          skip_ws cur;
          expect cur ':';
          let value = parse_value cur in
          fields := (key, value) :: !fields;
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              cur.pos <- cur.pos + 1;
              fields_loop ()
          | Some '}' -> cur.pos <- cur.pos + 1
          | _ -> error cur "expected ',' or '}'"
        in
        fields_loop ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      cur.pos <- cur.pos + 1;
      skip_ws cur;
      if peek cur = Some ']' then begin
        cur.pos <- cur.pos + 1;
        List []
      end
      else begin
        let items = ref [] in
        let rec items_loop () =
          let v = parse_value cur in
          items := v :: !items;
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              cur.pos <- cur.pos + 1;
              items_loop ()
          | Some ']' -> cur.pos <- cur.pos + 1
          | _ -> error cur "expected ',' or ']'"
        in
        items_loop ();
        List (List.rev !items)
      end
  | Some '"' -> String (parse_string_body cur)
  | Some 't' -> parse_literal cur "true" (Bool true)
  | Some 'f' -> parse_literal cur "false" (Bool false)
  | Some 'n' -> parse_literal cur "null" Null
  | Some _ -> parse_number cur

let of_string s =
  let cur = { src = s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then error cur "trailing garbage";
  v

let of_string_result s =
  match of_string s with
  | v -> Ok v
  | exception Parse_error (msg, pos) -> Error (Printf.sprintf "%s at offset %d" msg pos)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let to_list_opt = function List l -> Some l | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
