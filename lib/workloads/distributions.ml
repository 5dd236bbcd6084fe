type rng = Random.State.t

let rng seed = Random.State.make [| seed; 0x5eed; seed * 7919 |]
let int_in st lo hi = lo + Random.State.int st (hi - lo + 1)
let choose st arr = arr.(Random.State.int st (Array.length arr))

let weighted st choices =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 choices in
  if total <= 0 then invalid_arg "Distributions.weighted";
  let pick = Random.State.int st total in
  let rec go acc = function
    | [] -> invalid_arg "Distributions.weighted"
    | (w, x) :: rest -> if pick < acc + w then x else go (acc + w) rest
  in
  go 0 choices

let lower_char st = Char.chr (int_in st (Char.code 'a') (Char.code 'z'))

let alnum_char st =
  let pool = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789" in
  pool.[Random.State.int st (String.length pool)]

let protein_char st =
  let pool = "ACDEFGHIKLMNPQRSTVWY" in
  pool.[Random.State.int st (String.length pool)]

let hex_byte_char st =
  let pool = "0123456789abcdef" in
  pool.[Random.State.int st (String.length pool)]

