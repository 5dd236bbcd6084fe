type t = {
  width : int;
  num_patterns : int;
  labels_mask : Bitvec.t array;  (* indexed by byte: positions whose class matches *)
  initial_mask : Bitvec.t;  (* first position of each pattern *)
  final_mask : Bitvec.t;  (* final positions *)
  offsets : int array;  (* start bit of each pattern *)
}

let build patterns =
  (* [patterns] : (labels, finals) list; packed contiguously *)
  let width = List.fold_left (fun acc (ls, _) -> acc + Array.length ls) 0 patterns in
  if width = 0 then invalid_arg "Shift_and: no states";
  let labels_mask = Array.init 256 (fun _ -> Bitvec.create width) in
  let initial_mask = Bitvec.create width in
  let final_mask = Bitvec.create width in
  let offset = ref 0 in
  let offsets = ref [] in
  List.iter
    (fun (labels, finals) ->
      offsets := !offset :: !offsets;
      Bitvec.set initial_mask !offset;
      Array.iteri
        (fun i cc ->
          let pos = !offset + i in
          if finals.(i) then Bitvec.set final_mask pos;
          Charclass.iter (fun b -> Bitvec.set labels_mask.(b) pos) cc)
        labels;
      offset := !offset + Array.length labels)
    patterns;
  {
    width;
    num_patterns = List.length patterns;
    labels_mask;
    initial_mask;
    final_mask;
    offsets = Array.of_list (List.rev !offsets);
  }

let of_lnfa (l : Lnfa.t) = build [ (l.Lnfa.labels, l.Lnfa.finals) ]

let of_line labels =
  let l = Lnfa.of_line labels in
  build [ (l.Lnfa.labels, l.Lnfa.finals) ]

let of_bin lines =
  build
    (List.map
       (fun labels ->
         let l = Lnfa.of_line labels in
         (l.Lnfa.labels, l.Lnfa.finals))
       lines)

let width t = t.width
let num_patterns t = t.num_patterns

(* The engine's live mask vectors, by name — the regions the integrity
   layer CRC-seals and repairs.  [labels] is the 256-entry per-byte
   table; [initial]/[final] are single masks wrapped as 1-arrays so the
   surface is uniform. *)
let tables t =
  [
    ("labels", t.labels_mask);
    ("initial", [| t.initial_mask |]);
    ("final", [| t.final_mask |]);
  ]

type state = Bitvec.t

let state_words t = Bitvec.words_for t.width
let start t = Bitvec.create t.width
let start_in arena t = Bitvec.alloc_in arena t.width

let step t states c =
  (* next = (states << 1) OR maskInitial; states = next AND labels[c] *)
  Bitvec.shift_left1 states ~carry_in:false;
  Bitvec.or_in states t.initial_mask;
  Bitvec.and_in states t.labels_mask.(Char.code c);
  Bitvec.intersects states t.final_mask

(* From the all-zero state one step leaves [initial AND labels[c]]. *)
let asleep t states c =
  Bitvec.is_zero states && not (Bitvec.intersects t.initial_mask t.labels_mask.(Char.code c))

let active_count _t states = Bitvec.popcount states
let state_vector states = states

let final_hits t states = Bitvec.popcount_and states t.final_mask

let pattern_offsets t = t.offsets

let run t input =
  let states = start t in
  let acc = ref [] in
  String.iteri (fun p c -> if step t states c then acc := p :: !acc) input;
  List.rev !acc

let count_matches t input = List.length (run t input)

let trace t input =
  let states = start t in
  let acc = ref [] in
  String.iter
    (fun c ->
      let hit = step t states c in
      acc := (Bitvec.copy states, hit) :: !acc)
    input;
  List.rev !acc
