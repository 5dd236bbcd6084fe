type read_action = Read_exact of int | Read_all

type ste =
  | Plain of Charclass.t
  | Bv of { cc : Charclass.t; size : int; read : read_action }

(* Bit-parallel execution plan, built once per automaton: one bit per STE,
   in state order.  All mask vectors live in one flat [masks] table of
   hash-consed [nwords]-word rows — the per-byte label rows have bits only
   at Plain positions (the per-symbol AND therefore leaves every BV
   position clear, and the scalar BV pass sets exactly the BV bits that
   fire), and [labels_row]/[succ_row] map a byte or state to its row's
   word offset.  The kernels index [masks] directly, so a step touches one
   contiguous int array instead of chasing per-mask boxes. *)
type exec_plan = {
  nwords : int;  (* words per mask row: Bitvec.words_for (num states) *)
  masks : int array;  (* hash-consed rows, each nwords long *)
  labels_row : int array;  (* indexed by byte: row offset of its Plain-STE mask *)
  succ_row : int array;  (* per state: row offset of its successor mask *)
  initial_row : int;
  final_row : int;
  bv_states : int array;  (* dense indices of BV-STEs, ascending *)
  bv_row : int;  (* row offset of the mask of BV-STE positions *)
  bv_vecs : int array;
      (* per BV-STE, three words: its vector's word offset in the
         run-state arena, its width in bits, and m for Read_exact m or
         0 for Read_all *)
  bv_match : Bytes.t;  (* 256 bytes per BV-STE: does byte b match its class *)
  wake : Bytes.t;  (* 256 bytes: does byte b lie in the class of some initial STE *)
  top_mask : int;  (* the valid bits of the top activation word *)
}

type t = {
  stes : ste array;
  succs : int array array;
  preds : int array array;
  initial : bool array;
  initial_states : int array;
  finals : bool array;
  accepts_empty : bool;
  plan : exec_plan;
}

let cc_of = function Plain cc -> cc | Bv { cc; _ } -> cc
let num_states t = Array.length t.stes

let num_bv_stes t =
  Array.fold_left (fun acc s -> match s with Bv _ -> acc + 1 | Plain _ -> acc) 0 t.stes

let total_bv_bits t =
  Array.fold_left (fun acc s -> match s with Bv { size; _ } -> acc + size | Plain _ -> acc) 0 t.stes

(* Generalised Glushkov: leaves are plain classes or whole BV chunks.  A BV
   chunk cc{m} (exact, m >= 2) is non-nullable; cc{0,k} is nullable — its
   nullability realises the 0-repetition bypass edge for free. *)

module ISet = Set.Make (Int)

let bpw = Bitvec.bits_per_word

(* Mask rows of [nwords] words, hash-consed into one flat table in the
   order they are first interned.  An open-addressing table of row
   offsets finds a row by its words. *)
module Rows = struct
  type t = {
    nwords : int;
    mutable tbl : int array;  (* the distinct rows so far, packed; doubles when full *)
    mutable used : int;  (* words of [tbl] in use *)
    mutable slots : int array;
        (* a row's offset in [tbl], or -1 for an empty slot; at most half
           full, doubles when it would be more *)
  }

  let create ~nwords =
    { nwords; tbl = Array.make (16 * nwords) 0; used = 0; slots = Array.make 32 (-1) }

  (* Set bit [q] of the row at word offset [off] of [a]. *)
  let set_bit (a : int array) off q =
    let i = off + (q / bpw) in
    a.(i) <- a.(i) lor (1 lsl (q mod bpw))

  let equal_at (a : int array) i (b : int array) j n =
    let k = ref 0 in
    while !k < n && Int.equal a.(i + !k) b.(j + !k) do
      incr k
    done;
    !k = n

  let hash (a : int array) off n =
    let h = ref 0 in
    for k = off to off + n - 1 do
      let x = (!h lxor a.(k)) * 0x2127599bf4325c37 in
      h := x lxor (x lsr 29)
    done;
    !h

  (* The slot of the row equal to the [nwords] words of [a] at [off], or
     the empty slot where it belongs. *)
  let find r a off =
    let nw = r.nwords and mask = Array.length r.slots - 1 in
    let s = ref (hash a off nw land mask) in
    while r.slots.(!s) >= 0 && not (equal_at r.tbl r.slots.(!s) a off nw) do
      s := (!s + 1) land mask
    done;
    !s

  (* The offset in the table of the row equal to the [nwords] words of
     [a] at [off]; a new row is appended. *)
  let intern r a off =
    let nw = r.nwords in
    let s = find r a off in
    if r.slots.(s) >= 0 then r.slots.(s)
    else begin
      let o = r.used in
      if o + nw > Array.length r.tbl then begin
        let tbl = Array.make (2 * Array.length r.tbl) 0 in
        Array.blit r.tbl 0 tbl 0 o;
        r.tbl <- tbl
      end;
      Array.blit a off r.tbl o nw;
      r.used <- o + nw;
      r.slots.(s) <- o;
      if 2 * (o / nw + 1) > Array.length r.slots then begin
        (* rehash every row into twice the slots *)
        r.slots <- Array.make (2 * Array.length r.slots) (-1);
        for i = 0 to o / nw do
          r.slots.(find r r.tbl (i * nw)) <- i * nw
        done
      end;
      o
    end

  let contents r = Array.sub r.tbl 0 r.used
end

type info = { nullable : bool; first : ISet.t; last : ISet.t }

let of_ast r =
  let stes = ref [] in
  let count = ref 0 in
  let edges = ref [] in
  let new_state ste =
    let id = !count in
    incr count;
    stes := ste :: !stes;
    id
  in
  let connect lasts firsts =
    ISet.iter (fun p -> ISet.iter (fun q -> edges := (p, q) :: !edges) firsts) lasts
  in
  let leaf ste nullable =
    let p = new_state ste in
    { nullable; first = ISet.singleton p; last = ISet.singleton p }
  in
  let rec go r =
    match r with
    | Ast.Epsilon -> { nullable = true; first = ISet.empty; last = ISet.empty }
    | Ast.Class cc -> leaf (Plain cc) false
    | Ast.Concat (a, b) ->
        let ia = go a in
        let ib = go b in
        connect ia.last ib.first;
        {
          nullable = ia.nullable && ib.nullable;
          first = (if ia.nullable then ISet.union ia.first ib.first else ia.first);
          last = (if ib.nullable then ISet.union ia.last ib.last else ib.last);
        }
    | Ast.Alt (a, b) ->
        let ia = go a in
        let ib = go b in
        {
          nullable = ia.nullable || ib.nullable;
          first = ISet.union ia.first ib.first;
          last = ISet.union ia.last ib.last;
        }
    | Ast.Star a ->
        let ia = go a in
        connect ia.last ia.first;
        { ia with nullable = true }
    | Ast.Repeat (a, 0, Some 1) ->
        (* plain optionality: no counter needed *)
        let ia = go a in
        { ia with nullable = true }
    | Ast.Repeat (Ast.Class cc, m, Some n) when m = n && m >= 1 ->
        leaf (Bv { cc; size = m; read = Read_exact m }) false
    | Ast.Repeat (Ast.Class cc, 0, Some k) when k >= 2 ->
        leaf (Bv { cc; size = k; read = Read_all }) true
    | Ast.Repeat _ ->
        invalid_arg "Nbva.of_ast: residual repetition not of the form cc{m} or cc{0,k}"
  in
  let info = go r in
  let stes = Array.of_list (List.rev !stes) in
  let n = Array.length stes in
  let succ_lists = Array.make n [] and pred_lists = Array.make n [] in
  List.iter
    (fun (p, q) ->
      succ_lists.(p) <- q :: succ_lists.(p);
      pred_lists.(q) <- p :: pred_lists.(q))
    !edges;
  let finish l = Array.of_list (List.sort_uniq Int.compare l) in
  let initial = Array.make n false and finals = Array.make n false in
  ISet.iter (fun q -> initial.(q) <- true) info.first;
  ISet.iter (fun q -> finals.(q) <- true) info.last;
  let succs = Array.map finish succ_lists in
  (* Hash-cons the mask rows while packing them into one flat word table:
     states sharing a character class produce equal per-byte masks (most
     of the 256 entries collapse to a handful), and unfolded chains
     produce many equal successor masks.  Each distinct mask becomes one
     [nwords]-long row of [masks]; equal masks share a row offset.
     Sharing cuts compiled-program memory.  Safe: the kernels only ever
     read these rows (blit/AND/OR sources).  Rows are built as plain
     words and interned in first-occurrence order — bytes 0 to 255, then
     states, then the initial, final and BV masks — so the table's layout
     is a function of the automaton alone. *)
  let nwords = Bitvec.words_for n in
  let rows = Rows.create ~nwords in
  let labels = Array.make (256 * nwords) 0 in
  let bv_states = ref [] in
  Array.iteri
    (fun q ste ->
      match ste with
      | Plain cc -> Charclass.iter (fun b -> Rows.set_bit labels (b * nwords) q) cc
      | Bv _ -> bv_states := q :: !bv_states)
    stes;
  let labels_row = Array.make 256 0 in
  for b = 0 to 255 do
    (* neighbouring bytes mostly share a row: compare with the last one
       before hashing *)
    labels_row.(b) <-
      (if b > 0 && Rows.equal_at labels ((b - 1) * nwords) labels (b * nwords) nwords then
         labels_row.(b - 1)
       else Rows.intern rows labels (b * nwords))
  done;
  let scratch = Array.make nwords 0 in
  let row_of_states mem =
    Array.fill scratch 0 nwords 0;
    for q = 0 to n - 1 do
      if mem q then Rows.set_bit scratch 0 q
    done;
    Rows.intern rows scratch 0
  in
  let succ_row =
    Array.map
      (fun ss ->
        Array.fill scratch 0 nwords 0;
        Array.iter (fun s -> Rows.set_bit scratch 0 s) ss;
        Rows.intern rows scratch 0)
      succs
  in
  let initial_row = row_of_states (fun q -> initial.(q)) in
  let final_row = row_of_states (fun q -> finals.(q)) in
  let bv_row = row_of_states (fun q -> match stes.(q) with Bv _ -> true | Plain _ -> false) in
  let masks = Rows.contents rows in
  let bv_states = Array.of_list (List.rev !bv_states) in
  let nbv = Array.length bv_states in
  let bv_match = Bytes.make (nbv * 256) '\000' in
  let bv_vecs = Array.make (3 * nbv) 0 in
  (* the vectors follow the three masks in state order: [start]'s layout *)
  let off = ref (3 * nwords) in
  Array.iteri
    (fun i q ->
      match stes.(q) with
      | Bv { cc; read; size } ->
          Charclass.iter (fun b -> Bytes.set bv_match ((i * 256) + b) '\001') cc;
          bv_vecs.(3 * i) <- !off;
          bv_vecs.((3 * i) + 1) <- size;
          bv_vecs.((3 * i) + 2) <- (match read with Read_exact m -> m | Read_all -> 0);
          off := !off + Bitvec.words_for size
      | Plain _ -> assert false)
    bv_states;
  (* From the all-zero state only the initial STEs can fire, so a byte
     leaves that state exactly when it lies in the class of some initial
     STE — Plain or BV alike. *)
  let wake = Bytes.make 256 '\000' in
  Array.iteri
    (fun q ste -> if initial.(q) then Charclass.iter (fun b -> Bytes.set wake b '\001') (cc_of ste))
    stes;
  let rem = n mod Bitvec.bits_per_word in
  {
    stes;
    succs;
    preds = Array.map finish pred_lists;
    initial;
    initial_states = Array.of_list (ISet.elements info.first);
    finals;
    accepts_empty = info.nullable;
    plan =
      {
        nwords;
        masks;
        labels_row;
        succ_row;
        initial_row;
        final_row;
        bv_states;
        bv_row;
        bv_vecs;
        bv_match;
        wake;
        top_mask = (1 lsl (if n > 0 && rem = 0 then Bitvec.bits_per_word else rem)) - 1;
      };
  }

let compile ~threshold r =
  of_ast (Rewrite.split_bounded (Rewrite.unfold_for_nbva ~threshold r))

(* Execution.

   All mutable state packs into one {!Arena}: the next/avail scratch
   masks first, then the live words — the active mask followed by every
   BV vector in state order, one contiguous range.  The flat layout makes
   snapshot/clone a single word blit (the engine layer leans on this for
   rollbacks and service sessions), lets the kernel below run over raw
   int arrays with zero steady-state allocation, and makes the idle test
   one OR over the words from [act_off] up to [live_hi].  There is no
   active/next pointer swap: [step] copies next back into active, so
   [outputs] is a stable arena view and a raw word snapshot needs no
   swap parity on the side. *)

type run_state = {
  st_arena : Arena.t;
  st_words : int array;  (* [Arena.words st_arena]; never reallocated *)
  nxt_off : int;  (* nwords: scratch successor activation *)
  av_off : int;  (* nwords: scratch availability this symbol *)
  act_off : int;  (* nwords: output activation after the last symbol *)
  vec_lo : int;  (* start of the BV vectors: [act_off + nwords] *)
  live_hi : int;  (* end of the live range that starts at [act_off] *)
  active_v : Bitvec.t;  (* arena views of the three masks above *)
  next_v : Bitvec.t;
  avail_v : Bitvec.t;
  vectors : Bitvec.t option array;  (* per-STE arena slice, None for Plain *)
  mutable changed : bool;  (* a live word may have changed since [set_changed st false] *)
  mutable live : bool;  (* a live word was non-zero after the last step *)
}

let state_words t =
  let n = num_states t in
  Array.fold_left
    (fun acc s ->
      match s with Bv { size; _ } -> acc + Bitvec.words_for size | Plain _ -> acc)
    (3 * Bitvec.words_for n) t.stes

let start t =
  let n = num_states t in
  (* the state words plus a trailing guard word: an armed canary past the
     live vectors makes runtime corruption that sweeps past them
     detectable *)
  let arena = Arena.create ~capacity:(state_words t + 1) in
  let nw = Bitvec.words_for n in
  let nxt_off = Arena.alloc arena nw in
  let av_off = Arena.alloc arena nw in
  let act_off = Arena.alloc arena nw in
  let vectors =
    Array.map
      (function Bv { size; _ } -> Some (Bitvec.alloc_in arena size) | Plain _ -> None)
      t.stes
  in
  let live_hi = Arena.used arena in
  Arena.guard arena;
  {
    st_arena = arena;
    st_words = Arena.words arena;
    nxt_off;
    av_off;
    act_off;
    vec_lo = act_off + nw;
    live_hi;
    active_v = Bitvec.of_arena arena ~off:act_off ~width:n;
    next_v = Bitvec.of_arena arena ~off:nxt_off ~width:n;
    avail_v = Bitvec.of_arena arena ~off:av_off ~width:n;
    vectors;
    changed = true;
    live = false;
  }

let run_arena st = st.st_arena

let mask_all = (1 lsl bpw) - 1

(* Four plan tables hold INDICES, not data: [succ_row] and [labels_row]
   point into the flat mask table, [bv_states] names states, and
   [bv_vecs] points into the per-stream arena (a vector's offset, and
   its width, which sets how many words follow it); the BV row
   ([bv_row]) ranks a BV-STE's position into its dense index.  The
   kernels feed them to unsafe accesses, so a corrupted index word (a
   soft error in a long-lived process, or a chaos-harness flip) is a
   wild read or write — a segfault or silent heap corruption.
   Range-checking each index at its fetch turns that into a catchable
   exception the integrity layer's seal check then attributes and
   heals: a vector's words must lie inside the arena's vector range, a
   read position inside its vector, and [bv_states] and the BV row must
   agree on every BV-STE's position.  Pure data corruption (mask words,
   [bv_match] bytes) stays unchecked: it is in bounds by construction,
   and the checksum sweep and the sentinel own it.  The kernel marks the
   state changed before it raises, so a caller that goes on without a
   rollback re-projects it. *)
let corrupt_index () = invalid_arg "Nbva: corrupt plan table (index out of range)"

let corrupt st =
  st.changed <- true;
  corrupt_index ()

(* One BV-STE's vector update: dense index [i], state [q], both checked
   by the caller, on the vector's raw arena words.  If the byte matches
   the class the vector shifts left one bit ([Bitvec.shift_left1]) and
   takes bit 0 when the state is available; otherwise it clears.  A
   zero vector that would stay zero (the byte is outside the class, or
   the state is not available) is left alone: it neither changes nor
   fires.  Returns the OR of the vector's words after the update, and
   sets [q]'s bit in the next-activation words [nxt] when the read
   action fires. *)
let bv_update p st ~matches ~avail ~nxt i q =
  let w = st.st_words in
  let off = Array.unsafe_get p.bv_vecs (3 * i) and size = Array.unsafe_get p.bv_vecs ((3 * i) + 1) in
  (* written so that no sum can overflow: a width past the vector range
     or an offset near [max_int] is as corrupt as one out of range *)
  if size < 0 || size > (st.live_hi - st.vec_lo) * bpw then corrupt st;
  let nwv = Bitvec.words_for size in
  if off < st.vec_lo || off > st.live_hi - nwv then corrupt st;
  let was = ref 0 in
  for k = off to off + nwv - 1 do
    was := !was lor Array.unsafe_get w k
  done;
  if (matches && avail) || !was <> 0 then begin
    st.changed <- true;
    let now = ref 0 in
    if matches then begin
      let rem = size mod bpw in
      let top = if size = 0 then 0 else if rem = 0 then mask_all else (1 lsl rem) - 1 in
      let carry = ref (if avail then 1 else 0) in
      for k = off to off + nwv - 1 do
        let x = Array.unsafe_get w k in
        let y = ((x lsl 1) lor !carry) land mask_all in
        let y = if k = off + nwv - 1 then y land top else y in
        Array.unsafe_set w k y;
        now := !now lor y;
        carry := (x lsr (bpw - 1)) land 1
      done
    end
    else
      for k = off to off + nwv - 1 do
        Array.unsafe_set w k 0
      done;
    let m = Array.unsafe_get p.bv_vecs ((3 * i) + 2) in
    let fires =
      if m > 0 then begin
        if m > size then corrupt st;
        let b = m - 1 in
        (Array.unsafe_get w (off + (b / bpw)) lsr (b mod bpw)) land 1 = 1
      end
      else !now <> 0
    in
    if fires then begin
      let wq = nxt + (q / bpw) in
      Array.unsafe_set w wq (Array.unsafe_get w wq lor (1 lsl (q mod bpw)))
    end;
    !now
  end
  else 0

(* Bit-parallel kernel: availability and Plain-STE activation are computed
   word-parallel straight over the arena's int array and the plan's flat
   mask table; only BV-STEs get a scalar vector update, with the
   class-membership test folded into the precomputed [bv_match] byte
   table.  When no vector is live — one OR over the vectors' contiguous
   words — the only BV-STEs a byte can start are the available ones, so
   the step visits the set bits of [avail AND bv_row] instead of every
   BV-STE.  Every buffer lives in the arena, so the steady-state loop
   allocates nothing — not even closures or boxed intermediates.

   The step also notes whether it changed the live words: the copy-back
   compares every new activation word with the old one, and every
   vector update counts as a change.  A change sets [changed]; nothing
   here clears it, so it stays set until the caller has used it.  The
   copy-back and the vector updates also OR up the live words they
   leave, which sets [live]. *)
let step t st c =
  let p = t.plan in
  let nw = p.nwords in
  let w = st.st_words in
  let masks = p.masks in
  let act = st.act_off and nxt = st.nxt_off and av = st.av_off in
  let row_limit = Array.length masks - nw in
  let changed = ref false in
  (* avail = initial OR (union of successor masks of active states); the
     initial row is copied word by word, since [Array.blit] is a C call *)
  let irow = p.initial_row in
  for i = 0 to nw - 1 do
    Array.unsafe_set w (av + i) (Array.unsafe_get masks (irow + i))
  done;
  let succ_row = p.succ_row in
  for j = 0 to nw - 1 do
    let aw = ref (Array.unsafe_get w (act + j)) in
    if !aw <> 0 then begin
      let base = j * bpw in
      while !aw <> 0 do
        let row = Array.unsafe_get succ_row (base + Bitvec.lsb_index !aw) in
        if row < 0 || row > row_limit then corrupt st;
        for i = 0 to nw - 1 do
          Array.unsafe_set w (av + i)
            (Array.unsafe_get w (av + i) lor Array.unsafe_get masks (row + i))
        done;
        aw := !aw land (!aw - 1)
      done
    end
  done;
  (* Plain STEs, all at once: next = avail AND labels[c] *)
  let lrow = Array.unsafe_get p.labels_row (Char.code c) in
  if lrow < 0 || lrow > row_limit then corrupt st;
  for i = 0 to nw - 1 do
    Array.unsafe_set w (nxt + i)
      (Array.unsafe_get w (av + i) land Array.unsafe_get masks (lrow + i))
  done;
  (* BV-STEs: every one while a vector is live, else the available ones *)
  let vlive = ref 0 in
  for k = st.vec_lo to st.live_hi - 1 do
    vlive := !vlive lor Array.unsafe_get w k
  done;
  let nbv = Array.length p.bv_states and cb = Char.code c in
  let brow = p.bv_row in
  if brow < 0 || brow > row_limit then corrupt st;
  let vnow = ref 0 in
  if !vlive <> 0 then
    for i = 0 to nbv - 1 do
      let q = Array.unsafe_get p.bv_states i in
      if q < 0 || q >= nw * bpw
         || (Array.unsafe_get masks (brow + (q / bpw)) lsr (q mod bpw)) land 1 = 0
      then corrupt st;
      let matches = Bytes.unsafe_get p.bv_match ((i * 256) + cb) <> '\000' in
      let avail = (Array.unsafe_get w (av + (q / bpw)) lsr (q mod bpw)) land 1 = 1 in
      vnow := !vnow lor bv_update p st ~matches ~avail ~nxt i q
    done
  else begin
    (* a candidate's dense index is its rank among the BV row's bits *)
    let rank = ref 0 in
    for j = 0 to nw - 1 do
      let row = Array.unsafe_get masks (brow + j) in
      let m = Array.unsafe_get w (av + j) land row in
      let m = ref (if j = nw - 1 then m land p.top_mask else m) in
      while !m <> 0 do
        let low = !m land - !m in
        let q = (j * bpw) + Bitvec.lsb_index low in
        let i = !rank + Bitvec.popcount_word (row land (low - 1)) in
        if i >= nbv || Array.unsafe_get p.bv_states i <> q then corrupt st;
        if Bytes.unsafe_get p.bv_match ((i * 256) + cb) <> '\000' then
          vnow := !vnow lor bv_update p st ~matches:true ~avail:true ~nxt i q;
        m := !m land (!m - 1)
      done;
      rank := !rank + Bitvec.popcount_word row
    done
  end;
  (* copy next back into active and test finals on the way.  The top
     word drops bits past the automaton width: only a corrupted mask row
     can raise them, and an activation bit there would index [succ_row]
     out of range at the next symbol. *)
  let frow = p.final_row in
  let hit = ref false and anow = ref 0 in
  for i = 0 to nw - 1 do
    let x = Array.unsafe_get w (nxt + i) in
    let x = if i = nw - 1 then x land p.top_mask else x in
    if x <> Array.unsafe_get w (act + i) then changed := true;
    Array.unsafe_set w (act + i) x;
    anow := !anow lor x;
    if x land Array.unsafe_get masks (frow + i) <> 0 then hit := true
  done;
  if !changed then st.changed <- true;
  st.live <- !anow lor !vnow <> 0;
  !hit

(* The idle skip's two facts: the bytes that leave the all-zero state
   non-zero, and whether the live words are all zero. *)
let wake_bytes t = t.plan.wake

let changed st = st.changed
let set_changed st b = st.changed <- b
let live st = st.live

let idle st =
  let w = st.st_words in
  let acc = ref 0 in
  for i = st.act_off to st.live_hi - 1 do
    acc := !acc lor Array.unsafe_get w i
  done;
  !acc = 0

let fold_live f acc st =
  let w = st.st_words in
  let acc = ref acc in
  for i = st.act_off to st.live_hi - 1 do
    acc := f !acc (Array.unsafe_get w i)
  done;
  !acc

(* Some predecessor of [q] fired on the previous symbol, or [q] is
   initial.  A loop, not [Array.exists]: its closure would allocate once
   per state per symbol. *)
let available t st q =
  t.initial.(q)
  ||
  let preds = t.preds.(q) in
  let found = ref false and i = ref 0 in
  while (not !found) && !i < Array.length preds do
    found := Bitvec.get st.active_v (Array.unsafe_get preds !i);
    incr i
  done;
  !found

(* The pre-bit-parallel scalar kernel, kept as the differential-testing
   reference: one pass over all states probing predecessor lists.  Must
   stay bit-identical to [step] (asserted by test/test_nbva_diff.ml).
   Availability reads only [active_v], which the pass does not write, so
   it is probed only where it matters: when the byte is in the class.
   It sets [changed] on every step. *)
let step_reference t st c =
  let n = num_states t in
  let hit = ref false in
  Bitvec.clear st.next_v;
  for q = 0 to n - 1 do
    let active =
      match t.stes.(q) with
      | Plain cc -> Charclass.mem cc c && available t st q
      | Bv { cc; read; size = _ } -> (
          let v = match st.vectors.(q) with Some v -> v | None -> corrupt_index () in
          if Charclass.mem cc c then begin
            Bitvec.shift_left1 v ~carry_in:false;
            if available t st q then Bitvec.set v 0
          end
          else Bitvec.clear v;
          match read with
          | Read_exact m -> Bitvec.get v (m - 1)
          | Read_all -> not (Bitvec.is_zero v))
    in
    if active then begin
      Bitvec.set st.next_v q;
      if t.finals.(q) then hit := true
    end
  done;
  Bitvec.blit ~src:st.next_v ~dst:st.active_v;
  st.changed <- true;
  st.live <- not (idle st);
  !hit

type kernel = Bit_parallel | Reference

let kernel = ref Bit_parallel

let step_selected t st c =
  match !kernel with Bit_parallel -> step t st c | Reference -> step_reference t st c

(* The plan's backing tables, by name, as the live references the kernel
   reads — the integrity layer seals these with a checksum at run start and
   repairs them from pristine copies when a sweep finds them corrupted.
   [step_reference] deliberately reads none of them (it probes
   [preds]/[initial]/[stes] instead), which is what makes shadow replay
   a detector for mask-table corruption. *)
let plan_tables t =
  let p = t.plan in
  [
    ("masks", p.masks);
    ("labels_row", p.labels_row);
    ("succ_row", p.succ_row);
    ("bv_states", p.bv_states);
    ("bv_vecs", p.bv_vecs);
  ]

let plan_bytes t = [ ("bv_match", t.plan.bv_match); ("wake", t.plan.wake) ]

let outputs st = st.active_v
let vectors st = st.vectors

let reports t st =
  let p = t.plan in
  let w = st.st_words in
  let masks = p.masks in
  let acc = ref 0 in
  for i = 0 to p.nwords - 1 do
    acc := !acc + Bitvec.popcount_word (Array.unsafe_get w (st.act_off + i) land Array.unsafe_get masks (p.final_row + i))
  done;
  !acc

let match_ends t input =
  let st = start t in
  let acc = ref [] in
  String.iteri (fun p c -> if step_selected t st c then acc := p :: !acc) input;
  List.rev !acc
