let max_exports = 32

let compile ?(tile_capacity_cols = Circuit.tile_cam_cols)
    ?(col_demand = Encoding.cam_columns_for_class) r =
  let tile_cols = tile_capacity_cols in
  let nfa = Glushkov.compile r in
  let n = Nfa.num_states nfa in
  let col_demand = Array.map col_demand nfa.Nfa.labels in
  (* Greedy slicing with export repair: place states [lo, hi) in a tile,
     shrinking hi while the states exporting edges beyond hi (or before lo)
     exceed the global-routing budget. *)
  (* Exported wires: distinct external destinations reached from the
     slice.  Sources targeting the same external state share one wire (the
     local switch ORs them before the global port). *)
  let exports lo hi =
    let dests = Hashtbl.create 8 in
    for p = lo to hi - 1 do
      Array.iter
        (fun q -> if q < lo || q >= hi then Hashtbl.replace dests q ())
        nfa.Nfa.succs.(p)
    done;
    Hashtbl.length dests
  in
  let boundaries = ref [] in
  let lo = ref 0 in
  while !lo < n do
    let cols = ref 0 in
    let hi = ref !lo in
    while !hi < n && !cols + col_demand.(!hi) <= tile_cols do
      cols := !cols + col_demand.(!hi);
      incr hi
    done;
    (* export repair: shrink until the bound holds (at least one state) *)
    while !hi > !lo + 1 && exports !lo !hi > max_exports do
      decr hi
    done;
    boundaries := (!lo, !hi) :: !boundaries;
    lo := !hi
  done;
  let slices = Array.of_list (List.rev !boundaries) in
  let ntile = Array.length slices in
  let tile_of_state = Array.make n (-1) in
  Array.iteri
    (fun t (lo, hi) ->
      for q = lo to hi - 1 do
        tile_of_state.(q) <- t
      done)
    slices;
  let tile_states = Array.map (fun (lo, hi) -> hi - lo) slices in
  let tile_cols_used =
    Array.map
      (fun (lo, hi) ->
        let acc = ref 0 in
        for q = lo to hi - 1 do
          acc := !acc + col_demand.(q)
        done;
        !acc)
      slices
  in
  let cross_edges =
    let acc = ref [] in
    Array.iteri
      (fun p succs ->
        Array.iter
          (fun q -> if tile_of_state.(p) <> tile_of_state.(q) then acc := (p, q) :: !acc)
          succs)
      nfa.Nfa.succs;
    List.rev !acc
  in
  ignore ntile;
  (* threshold 2 gives maximal compression; the rewriting preserves the
     left-to-right order of unfolded positions, which is what lets the
     engine project executor bits back onto [tile_of_state] *)
  let exec = Nbva.compile ~threshold:2 r in
  { Program.nfa; exec; tile_of_state; tile_states; tile_cols = tile_cols_used; cross_edges }

let fits_array (u : Program.nfa_unit) =
  Array.length u.Program.tile_states <= Circuit.tiles_per_array
