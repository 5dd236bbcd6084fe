type bin = {
  members : (int * Program.lnfa_line) list;
  slots : int;
  region_states : int;
  max_len : int;
  tiles : int;
  single_code : bool;
}

let capacity_per_tile ~single_code =
  (* a single-code bin tile stores 128 states in the CAM plus 64 one-hot
     states in the local switch ("LNFA utilizes both CAM and local switches
     for storage of CCs", sect 5.4); switch-path-only bins get the 64
     one-hot slots *)
  if single_code then Circuit.tile_cam_cols + (Circuit.tile_cam_cols / 2)
  else Circuit.tile_cam_cols / 2

let rec pow2_floor x = if x <= 1 then 1 else 2 * pow2_floor (x / 2)

let make_bin ~single_code ~slots members =
  (* Regex-sliced mapping (sect 3.2): every member line is padded to the
     longest line of the bin and cut into [tiles] equal segments; each tile
     holds one segment ("region") per member.  [tiles] is the smallest
     count whose per-tile load fits the tile capacity. *)
  let cap = capacity_per_tile ~single_code in
  let m = List.length members in
  let max_len =
    List.fold_left (fun acc (_, l) -> max acc (Array.length l.Program.labels)) 0 members
  in
  let rec fit tiles =
    let segment = (max_len + tiles - 1) / tiles in
    if m * segment <= cap || tiles >= Circuit.tiles_per_array then (tiles, segment)
    else fit (tiles + 1)
  in
  let tiles, region_states = fit (max 1 ((m * max_len) / cap)) in
  { members; slots; region_states; max_len; tiles; single_code }

(* Largest power-of-two slot count (<= limit) such that a full bin of
   lines of length [len] still fits one array. *)
let fitting_slots ~single_code ~limit len =
  let cap = capacity_per_tile ~single_code in
  let rec search slots =
    if slots <= 1 then 1
    else if slots * len <= cap * Circuit.tiles_per_array then slots
    else search (slots / 2)
  in
  search (pow2_floor limit)

let pack_group ~single_code ~max_bin_size lines =
  (* sort by decreasing length (§4.3) *)
  let sorted =
    List.sort
      (fun (_, a) (_, b) ->
        compare (Array.length b.Program.labels) (Array.length a.Program.labels))
      lines
  in
  let rec fill acc current current_slots current_count = function
    | [] -> if current = [] then acc else make_bin ~single_code ~slots:current_slots current :: acc
    | ((_, line) as item) :: rest ->
        let len = Array.length line.Program.labels in
        let wanted = fitting_slots ~single_code ~limit:max_bin_size len in
        if current = [] then fill acc [ item ] wanted 1 rest
        else if current_count < current_slots && wanted >= current_slots then
          fill acc (item :: current) current_slots (current_count + 1) rest
        else
          (* close the bin: either full, or the next line needs a smaller
             slot count (it is longer than the current geometry allows) *)
          fill (make_bin ~single_code ~slots:current_slots current :: acc) [ item ] wanted 1 rest
  in
  fill [] [] 0 0 sorted

let pack ~max_bin_size lines =
  let max_bin_size = max 1 (min max_bin_size Circuit.max_bin_size) in
  let cam_path, switch_path =
    List.partition (fun (_, l) -> l.Program.single_code) lines
  in
  pack_group ~single_code:true ~max_bin_size cam_path
  @ pack_group ~single_code:false ~max_bin_size switch_path

let shift_and b = Shift_and.of_bin (List.map (fun (_, l) -> l.Program.labels) b.members)
