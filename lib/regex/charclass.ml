(* A character class is a 256-bit set stored as four immutable int64 words.
   Word [i] holds bytes [64*i .. 64*i+63], bit [b land 63] within a word. *)

type t = { w0 : int64; w1 : int64; w2 : int64; w3 : int64 }

let empty = { w0 = 0L; w1 = 0L; w2 = 0L; w3 = 0L }
let full = { w0 = -1L; w1 = -1L; w2 = -1L; w3 = -1L }

let word cc i =
  match i with
  | 0 -> cc.w0
  | 1 -> cc.w1
  | 2 -> cc.w2
  | _ -> cc.w3

let set_word cc i v =
  match i with
  | 0 -> { cc with w0 = v }
  | 1 -> { cc with w1 = v }
  | 2 -> { cc with w2 = v }
  | _ -> { cc with w3 = v }

let of_byte b =
  if b < 0 || b > 255 then invalid_arg "Charclass.of_byte";
  let i = b lsr 6 and bit = Int64.shift_left 1L (b land 63) in
  set_word empty i bit

let singleton c = of_byte (Char.code c)

let union a b =
  { w0 = Int64.logor a.w0 b.w0;
    w1 = Int64.logor a.w1 b.w1;
    w2 = Int64.logor a.w2 b.w2;
    w3 = Int64.logor a.w3 b.w3 }

let complement a =
  { w0 = Int64.lognot a.w0;
    w1 = Int64.lognot a.w1;
    w2 = Int64.lognot a.w2;
    w3 = Int64.lognot a.w3 }

let of_range lo hi =
  if lo > hi then invalid_arg "Charclass.of_range";
  let rec loop acc b =
    if b > Char.code hi then acc else loop (union acc (of_byte b)) (b + 1)
  in
  loop empty (Char.code lo)

let of_string s =
  let acc = ref empty in
  String.iter (fun c -> acc := union !acc (singleton c)) s;
  !acc

let of_list cs = List.fold_left (fun acc c -> union acc (singleton c)) empty cs

let mem_byte cc b =
  let w = word cc (b lsr 6) in
  Int64.logand (Int64.shift_right_logical w (b land 63)) 1L <> 0L

let mem cc c = mem_byte cc (Char.code c)
let is_empty cc = cc.w0 = 0L && cc.w1 = 0L && cc.w2 = 0L && cc.w3 = 0L
let is_full cc = cc.w0 = -1L && cc.w1 = -1L && cc.w2 = -1L && cc.w3 = -1L

let low_nibbles cc h =
  Int64.to_int (Int64.shift_right_logical (word cc (h lsr 2)) ((h land 3) * 16)) land 0xFFFF

let popcount64 x =
  let rec loop acc x = if x = 0L then acc else loop (acc + 1) (Int64.logand x (Int64.sub x 1L)) in
  loop 0 x

let cardinal cc = popcount64 cc.w0 + popcount64 cc.w1 + popcount64 cc.w2 + popcount64 cc.w3

let equal a b = a.w0 = b.w0 && a.w1 = b.w1 && a.w2 = b.w2 && a.w3 = b.w3

(* Bit index of [b], a power of two below 2^32: de Bruijn multiply and
   look-up. *)
let debruijn32 =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let bit_index32 b =
  Char.code (String.unsafe_get debruijn32 (((b * 0x077CB531) land 0xFFFFFFFF) lsr 27))

(* Each 64-bit word is scanned as two native 32-bit halves, jumping from
   set bit to set bit ([x land -x]) instead of probing all 64 positions:
   the cost is one step per member, not per possible member. *)
let iter f cc =
  for i = 0 to 7 do
    let w = word cc (i lsr 1) in
    let half = if i land 1 = 0 then w else Int64.shift_right_logical w 32 in
    let x = ref (Int64.to_int half land 0xFFFFFFFF) in
    while !x <> 0 do
      let low = !x land - !x in
      f ((i * 32) + bit_index32 low);
      x := !x lxor low
    done
  done

let fold f cc init =
  let acc = ref init in
  iter (fun b -> acc := f b !acc) cc;
  !acc

let to_bytes cc = List.rev (fold (fun b acc -> b :: acc) cc [])

let choose cc =
  let exception Found of int in
  try
    iter (fun b -> raise (Found b)) cc;
    None
  with Found b -> Some (Char.chr b)

let digit = of_range '0' '9'
let word = union digit (union (of_range 'a' 'z') (union (of_range 'A' 'Z') (singleton '_')))
let space = of_list [ ' '; '\t'; '\n'; '\r'; '\011'; '\012' ]
let dot = complement (singleton '\n')

(* Printing: compress runs of consecutive bytes into ranges; escape the
   characters that are special inside a PCRE class. *)

let escape_class_char b =
  match Char.chr b with
  | ']' -> "\\]"
  | '\\' -> "\\\\"
  | '^' -> "\\^"
  | '-' -> "\\-"
  | '\n' -> "\\n"
  | '\t' -> "\\t"
  | '\r' -> "\\r"
  | c when b >= 32 && b < 127 -> String.make 1 c
  | _ -> Printf.sprintf "\\x%02x" b

let ranges cc =
  let bs = to_bytes cc in
  let rec group acc = function
    | [] -> List.rev acc
    | b :: rest -> (
        match acc with
        | (lo, hi) :: tl when b = hi + 1 -> group ((lo, b) :: tl) rest
        | _ -> group ((b, b) :: acc) rest)
  in
  group [] bs

let body cc =
  let buf = Buffer.create 16 in
  List.iter
    (fun (lo, hi) ->
      if hi = lo then Buffer.add_string buf (escape_class_char lo)
      else if hi = lo + 1 then (
        Buffer.add_string buf (escape_class_char lo);
        Buffer.add_string buf (escape_class_char hi))
      else (
        Buffer.add_string buf (escape_class_char lo);
        Buffer.add_char buf '-';
        Buffer.add_string buf (escape_class_char hi)))
    (ranges cc);
  Buffer.contents buf

let escape_literal c =
  match c with
  | '.' | '*' | '+' | '?' | '(' | ')' | '[' | ']' | '{' | '}' | '|' | '\\' | '^' | '$' ->
      "\\" ^ String.make 1 c
  | '\n' -> "\\n"
  | '\t' -> "\\t"
  | '\r' -> "\\r"
  | c when Char.code c >= 32 && Char.code c < 127 -> String.make 1 c
  | c -> Printf.sprintf "\\x%02x" (Char.code c)

let to_string cc =
  if is_full cc then "[\\x00-\\xff]"
  else if equal cc dot then "."
  else if equal cc digit then "\\d"
  else if equal cc word then "\\w"
  else if equal cc space then "\\s"
  else if is_empty cc then "[]"
  else
    match cardinal cc with
    | 1 -> (
        match choose cc with Some c -> escape_literal c | None -> assert false)
    | n when n > 128 -> "[^" ^ body (complement cc) ^ "]"
    | _ -> "[" ^ body cc ^ "]"

let pp fmt cc = Format.pp_print_string fmt (to_string cc)
