(* A class is the union over high nibbles [h] of [{h} x rows.(h)], with
   [rows.(h)] its set of low nibbles under [h]. *)
let nibble_rows cc = Array.init 16 (Charclass.low_nibbles cc)

(* Greedy cover: group the symbols by high nibble; each group is trivially
   a product (one high nibble x its low set); then merge groups with
   identical low sets into one code.  A product is the case of one
   distinct set, the empty class that of none. *)
let mzp_code_count cc =
  let rows = nibble_rows cc in
  let codes = ref 0 in
  for h = 0 to 15 do
    let l = rows.(h) in
    let seen = ref (l = 0) in
    for h' = 0 to h - 1 do
      if rows.(h') = l then seen := true
    done;
    if not !seen then incr codes
  done;
  !codes

let fits_single_code cc = mzp_code_count cc = 1
let cam_columns_for_class cc = Int.max 1 (mzp_code_count cc)
