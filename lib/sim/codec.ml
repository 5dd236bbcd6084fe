(* See codec.mli. *)

let w_u8 b n = Buffer.add_char b (Char.chr (n land 0xFF))

let w_u32 b n =
  if n < 0 || n > 0xFFFF_FFFF then
    invalid_arg (Printf.sprintf "Codec.w_u32: %d does not fit in 32 bits" n);
  Buffer.add_int32_le b (Int32.of_int n)

let w_i64 b n = Buffer.add_int64_le b (Int64.of_int n)
let w_f64 b f = Buffer.add_int64_le b (Int64.bits_of_float f)

let w_str b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

let w_array w b xs =
  w_u32 b (Array.length xs);
  Array.iter (w b) xs

exception Corrupt of string

type cursor = { data : string; mutable at : int }

(* Claim the next [n] bytes and return their offset. *)
let take cur n =
  let at = cur.at in
  if at + n > String.length cur.data then raise (Corrupt "truncated payload");
  cur.at <- at + n;
  at

let r_u8 cur = Char.code cur.data.[take cur 1]
let r_u32 cur = Int32.to_int (String.get_int32_le cur.data (take cur 4)) land 0xFFFF_FFFF
let r_i64 cur = Int64.to_int (String.get_int64_le cur.data (take cur 8))
let r_f64 cur = Int64.float_of_bits (String.get_int64_le cur.data (take cur 8))

let r_str cur =
  let n = r_u32 cur in
  String.sub cur.data (take cur n) n

(* Every element encodes to at least one byte, so a count beyond the
   remaining bytes is truncation — refused before [Array.init] could
   allocate for it. *)
let r_array r cur =
  let n = r_u32 cur in
  if n > String.length cur.data - cur.at then raise (Corrupt "truncated payload");
  Array.init n (fun _ -> r cur)

let decode ?(at = 0) r s =
  let cur = { data = s; at } in
  match r cur with
  | v -> if cur.at <> String.length s then Error "trailing bytes" else Ok v
  | exception Corrupt detail -> Error detail
