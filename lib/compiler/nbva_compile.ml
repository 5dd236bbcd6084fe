let tile_cols = Circuit.tile_cam_cols

(* One CC column + one set1 column + the vector itself must fit a tile,
   and the vector must respect the 4064-bit ceiling. *)
let max_single_bv_bits ~depth =
  min ((tile_cols - 2) * depth) Circuit.max_bv_bits_per_tile

let rec split_oversized ~depth r =
  let limit = max_single_bv_bits ~depth in
  match r with
  | Ast.Epsilon | Ast.Class _ -> r
  | Ast.Concat (a, b) -> Ast.concat (split_oversized ~depth a) (split_oversized ~depth b)
  | Ast.Alt (a, b) -> Ast.alt (split_oversized ~depth a) (split_oversized ~depth b)
  | Ast.Star a -> Ast.star (split_oversized ~depth a)
  | Ast.Repeat ((Ast.Class _ as cc), m, Some n) when m = n && m > limit ->
      (* cc{m} -> cc{limit} cc{limit} ... cc{rem}  (Example 4.3) *)
      let rec chunks m acc =
        if m = 0 then acc
        else if m <= limit then Ast.repeat cc m (Some m) :: acc
        else chunks (m - limit) (Ast.repeat cc limit (Some limit) :: acc)
      in
      Ast.concat_list (List.rev (chunks m []))
  | Ast.Repeat ((Ast.Class _ as cc), 0, Some k) when k > limit ->
      (* cc{0,k} = cc{0,limit} cc{0,limit} ... cc{0,rem} *)
      let rec chunks k acc =
        if k = 0 then acc
        else if k <= limit then Ast.repeat cc 0 (Some k) :: acc
        else chunks (k - limit) (Ast.repeat cc 0 (Some limit) :: acc)
      in
      Ast.concat_list (List.rev (chunks k []))
  | Ast.Repeat (a, m, n) -> Ast.repeat (split_oversized ~depth a) m n

(* Steps 1-4 of the pipeline. *)
let rewrite ~(params : Program.params) r =
  r
  |> Rewrite.unfold_for_nbva ~threshold:params.Program.unfold_threshold
  |> Rewrite.split_bounded
  |> split_oversized ~depth:params.Program.bv_depth
  |> Rewrite.pad_to_depth ~depth:params.Program.bv_depth

(* Tile partitioning.  States are taken in construction order (Glushkov
   position order follows the regex left to right, so consecutive states
   are usually connected); a greedy scan closes a tile when the next state
   would violate a constraint.  Export pressure (the 32-STE global-routing
   bound per tile) is checked after the fact and repairs by early closing. *)

type building = {
  mutable states : int list; (* reversed *)
  mutable cc_cols : int;
  mutable set1_cols : int;
  mutable bv_cols : int;
  mutable bv_bits : int;
  mutable bvs : Program.bv_alloc list;
  mutable has_rexact : bool;
  mutable has_rall : bool;
}

let fresh () =
  {
    states = [];
    cc_cols = 0;
    set1_cols = 0;
    bv_cols = 0;
    bv_bits = 0;
    bvs = [];
    has_rexact = false;
    has_rall = false;
  }

let finish (b : building) : Program.nbva_tile =
  {
    Program.states = List.rev b.states;
    cc_cols = b.cc_cols;
    set1_cols = b.set1_cols;
    bv_cols = b.bv_cols;
    bvs = List.rev b.bvs;
  }

(* Shared partition loop, parameterised by the per-state demand model.
   [demand q] returns (cc cols, set1 cols, bv cols, bv bits, slots, alloc);
   [slots] is the BVM slot demand (0 on RAP, where BVs live in the CAM). *)
let partition ~depth ~max_slots ~max_bits ~bits_cap nbva demand =
  let n = Nbva.num_states nbva in
  let tiles = ref [] in
  let cur = ref (fresh ()) in
  let slots_used = ref 0 in
  let tile_of_state = Array.make n (-1) in
  let tile_index = ref 0 in
  let close () =
    if !cur.states <> [] then begin
      tiles := finish !cur :: !tiles;
      incr tile_index;
      slots_used := 0;
      cur := fresh ()
    end
  in
  for q = 0 to n - 1 do
    let cc, set1, bvc, bits, slots, alloc = demand q in
    let total_cols b = b.cc_cols + b.set1_cols + b.bv_cols in
    if cc + set1 + bvc > tile_cols || slots > max_slots then
      invalid_arg "Nbva_compile: a single state exceeds the tile capacity";
    let b = !cur in
    let fits =
      total_cols b + cc + set1 + bvc <= tile_cols
      && b.bv_bits + bits <= max_bits
      && !slots_used + slots <= max_slots
      &&
      match alloc with
      | Some { Program.read = Nbva.Read_exact _; _ } -> not b.has_rall
      | Some { Program.read = Nbva.Read_all; _ } -> not b.has_rexact
      | None -> true
    in
    if not fits then close ();
    let b = !cur in
    b.states <- q :: b.states;
    b.cc_cols <- b.cc_cols + cc;
    b.set1_cols <- b.set1_cols + set1;
    b.bv_cols <- b.bv_cols + bvc;
    b.bv_bits <- b.bv_bits + bits;
    slots_used := !slots_used + slots;
    (match alloc with
    | Some a ->
        b.bvs <- a :: b.bvs;
        (match a.Program.read with
        | Nbva.Read_exact _ -> b.has_rexact <- true
        | Nbva.Read_all -> b.has_rall <- true)
    | None -> ());
    tile_of_state.(q) <- !tile_index
  done;
  close ();
  let ntiles = Array.of_list (List.rev !tiles) in
  let cross_edges =
    let acc = ref [] in
    Array.iteri
      (fun p succs ->
        Array.iter
          (fun q -> if tile_of_state.(p) <> tile_of_state.(q) then acc := (p, q) :: !acc)
          succs)
      nbva.Nbva.succs;
    List.rev !acc
  in
  { Program.nbva; depth; ntiles; tile_of_state; cross_edges; bv_bits_cap = bits_cap }

let compile ~(params : Program.params) r =
  let depth = params.Program.bv_depth in
  let nbva = Nbva.of_ast (rewrite ~params r) in
  let demand q =
    match nbva.Nbva.stes.(q) with
    | Nbva.Plain cc -> (Encoding.cam_columns_for_class cc, 0, 0, 0, 0, None)
    | Nbva.Bv { cc; size; read } ->
        let width = (size + depth - 1) / depth in
        ( Encoding.cam_columns_for_class cc,
          1,
          width,
          size,
          0,
          Some { Program.ste = q; size; width; read } )
  in
  partition ~depth ~max_slots:max_int ~max_bits:Circuit.max_bv_bits_per_tile
    ~bits_cap:Circuit.max_bv_bits_per_tile nbva demand

(* BVAP geometry: 8 slots of 256 bits per tile (its BVM is shared between
   two tiles); BVs occupy whole slots — the fixed provisioning the paper
   contrasts with RAP's dynamic allocation. *)
let bvap_slot_bits = 256
let bvap_slots_per_tile = 8

let compile_bvap ~(params : Program.params) r =
  (* BVAP has no per-benchmark depth: its MFCB streams fixed 128-bit
     words.  Splitting uses the slot limit instead of the column limit. *)
  let slot_limit = bvap_slot_bits * bvap_slots_per_tile in
  let params = { params with Program.bv_depth = 32 } in
  let r' =
    r
    |> Rewrite.unfold_for_nbva ~threshold:params.Program.unfold_threshold
    |> Rewrite.split_bounded
  in
  (* split any repetition too large even for a whole tile's BVM *)
  let rec cap_split ast =
    match ast with
    | Ast.Epsilon | Ast.Class _ -> ast
    | Ast.Concat (a, b) -> Ast.concat (cap_split a) (cap_split b)
    | Ast.Alt (a, b) -> Ast.alt (cap_split a) (cap_split b)
    | Ast.Star a -> Ast.star (cap_split a)
    | Ast.Repeat ((Ast.Class _ as cc), m, Some n) when m = n && m > slot_limit ->
        let rec chunks m acc =
          if m = 0 then acc
          else if m <= slot_limit then Ast.repeat cc m (Some m) :: acc
          else chunks (m - slot_limit) (Ast.repeat cc slot_limit (Some slot_limit) :: acc)
        in
        Ast.concat_list (List.rev (chunks m []))
    | Ast.Repeat ((Ast.Class _ as cc), 0, Some k) when k > slot_limit ->
        let rec chunks k acc =
          if k = 0 then acc
          else if k <= slot_limit then Ast.repeat cc 0 (Some k) :: acc
          else chunks (k - slot_limit) (Ast.repeat cc 0 (Some slot_limit) :: acc)
        in
        Ast.concat_list (List.rev (chunks k []))
    | Ast.Repeat (a, m, n) -> Ast.repeat (cap_split a) m n
  in
  let nbva = Nbva.of_ast (cap_split r') in
  let demand q =
    match nbva.Nbva.stes.(q) with
    | Nbva.Plain cc -> (Encoding.cam_columns_for_class cc, 0, 0, 0, 0, None)
    | Nbva.Bv { cc; size; read } ->
        let slots = (size + bvap_slot_bits - 1) / bvap_slot_bits in
        (* bv_cols records BVM slot columns (4 128-bit columns per slot)
           so the energy model can scale BVM accesses *)
        ( Encoding.cam_columns_for_class cc,
          0,
          0,
          slots * bvap_slot_bits,
          slots,
          Some { Program.ste = q; size; width = 4 * slots; read } )
  in
  partition ~depth:32 ~max_slots:bvap_slots_per_tile ~max_bits:max_int
    ~bits_cap:(bvap_slot_bits * bvap_slots_per_tile) nbva demand
