let nibble_product cc =
  if Charclass.is_empty cc then None
  else begin
    let hi = ref 0 and lo = ref 0 in
    Charclass.iter
      (fun b ->
        hi := !hi lor (1 lsl (b lsr 4));
        lo := !lo lor (1 lsl (b land 0xf)))
      cc;
    (* the class is a product iff |cc| = |hi| * |lo| *)
    let popcount x =
      let rec loop acc x = if x = 0 then acc else loop (acc + 1) (x land (x - 1)) in
      loop 0 x
    in
    if Charclass.cardinal cc = popcount !hi * popcount !lo then Some (!hi, !lo) else None
  end

let mzp_code_count cc =
  if Charclass.is_empty cc then 0
  else
    match nibble_product cc with
    | Some _ -> 1
    | None ->
        (* greedy cover: group remaining symbols by high nibble; each group
           is trivially a product (one high nibble x its low set); then
           merge groups with identical low sets into one code *)
        let by_hi = Array.make 16 0 in
        Charclass.iter (fun b -> by_hi.(b lsr 4) <- by_hi.(b lsr 4) lor (1 lsl (b land 0xf))) cc;
        let seen = Hashtbl.create 8 in
        Array.iter (fun lo -> if lo <> 0 then Hashtbl.replace seen lo ()) by_hi;
        Hashtbl.length seen

let fits_single_code cc = mzp_code_count cc = 1
let cam_columns_for_class cc = Int.max 1 (mzp_code_count cc)
