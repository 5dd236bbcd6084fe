type category =
  | State_matching
  | State_transition
  | Bv_processing
  | Global_routing
  | Controller
  | Leakage
  | Io

let all_categories =
  [ State_matching; State_transition; Bv_processing; Global_routing; Controller; Leakage; Io ]

let category_name = function
  | State_matching -> "state-matching"
  | State_transition -> "state-transition"
  | Bv_processing -> "bv-processing"
  | Global_routing -> "global-routing"
  | Controller -> "controller"
  | Leakage -> "leakage"
  | Io -> "io"

let index = function
  | State_matching -> 0
  | State_transition -> 1
  | Bv_processing -> 2
  | Global_routing -> 3
  | Controller -> 4
  | Leakage -> 5
  | Io -> 6

type t = float array

let create () = Array.make 7 0.
let add t cat pj = t.(index cat) <- t.(index cat) +. pj

let accumulate t pjs =
  for i = 0 to Array.length t - 1 do
    let pj = pjs.(i) in
    if pj <> 0. then t.(i) <- t.(i) +. pj
  done
let get_pj t cat = t.(index cat)
let total_pj t = Array.fold_left ( +. ) 0. t
let total_uj t = total_pj t /. 1e6

let merge_into ~dst src =
  Array.iteri (fun i v -> dst.(i) <- dst.(i) +. v) src

let breakdown t =
  List.filter_map
    (fun cat ->
      let v = get_pj t cat in
      if v > 0. then Some (cat, v) else None)
    all_categories

let pp fmt t =
  Format.fprintf fmt "@[<v>total %.3f uJ@," (total_uj t);
  List.iter
    (fun (cat, pj) -> Format.fprintf fmt "  %-16s %10.3f uJ@," (category_name cat) (pj /. 1e6))
    (breakdown t);
  Format.fprintf fmt "@]"
