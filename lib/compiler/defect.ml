type t = {
  chip_arrays : int option;
  spare_cols : int;
  dead : (int * int, unit) Hashtbl.t;
  stuck_cam : (int * int, int) Hashtbl.t;  (* (array, tile) -> stuck CAM columns *)
  stuck_switch : (int * int, int) Hashtbl.t;  (* (array, tile) -> stuck switch rows *)
  trivial : bool;
}

let default_spare_cols = 4

let none =
  {
    chip_arrays = None;
    spare_cols = default_spare_cols;
    dead = Hashtbl.create 1;
    stuck_cam = Hashtbl.create 1;
    stuck_switch = Hashtbl.create 1;
    trivial = true;
  }

let create ?chip_arrays ?(spare_cols = default_spare_cols) ?(dead_tiles = [])
    ?(stuck_cam_cols = []) ?(stuck_switch_rows = []) () =
  let dead = Hashtbl.create 16 in
  List.iter (fun (a, t) -> Hashtbl.replace dead (a, t) ()) dead_tiles;
  (* count distinct stuck sites per tile; a column listed twice is one
     defect *)
  let count sites =
    let seen = Hashtbl.create 64 and per_tile = Hashtbl.create 16 in
    List.iter
      (fun (a, t, c) ->
        if not (Hashtbl.mem seen (a, t, c)) then begin
          Hashtbl.replace seen (a, t, c) ();
          let k = (a, t) in
          Hashtbl.replace per_tile k (1 + Option.value ~default:0 (Hashtbl.find_opt per_tile k))
        end)
      sites;
    per_tile
  in
  {
    chip_arrays;
    spare_cols;
    dead;
    stuck_cam = count stuck_cam_cols;
    stuck_switch = count stuck_switch_rows;
    trivial =
      chip_arrays = None && dead_tiles = [] && stuck_cam_cols = [] && stuck_switch_rows = [];
  }

let is_trivial t = t.trivial

let array_exists t i =
  match t.chip_arrays with None -> true | Some n -> i < n

let is_dead_tile t ~array_id ~tile = Hashtbl.mem t.dead (array_id, tile)

let tile_loss t ~array_id ~tile =
  let k = (array_id, tile) in
  let cam = Option.value ~default:0 (Hashtbl.find_opt t.stuck_cam k) in
  let sw = Option.value ~default:0 (Hashtbl.find_opt t.stuck_switch k) in
  let repaired = min cam t.spare_cols in
  ((cam - repaired) + sw, repaired)

let usable_cols t ~array_id ~tile ~nominal =
  if is_dead_tile t ~array_id ~tile then 0
  else
    let lost, _ = tile_loss t ~array_id ~tile in
    max 0 (nominal - lost)

let pp fmt t =
  if t.trivial then Format.fprintf fmt "pristine chip"
  else begin
    let sum h = Hashtbl.fold (fun _ n acc -> acc + n) h 0 in
    Format.fprintf fmt "chip: %s arrays, %d dead tile(s), %d stuck CAM col(s), %d stuck switch row(s), %d spare col(s)/tile"
      (match t.chip_arrays with None -> "unbounded" | Some n -> string_of_int n)
      (Hashtbl.length t.dead) (sum t.stuck_cam) (sum t.stuck_switch) t.spare_cols
  end
