open Alcotest

(* The bits of [v], lowest first, and the indices of its set bits in
   increasing order, read one [Bitvec.get] at a time. *)
let bits v = Array.init (Bitvec.width v) (Bitvec.get v)
let set_bits v = List.filter (Bitvec.get v) (List.init (Bitvec.width v) Fun.id)

let test_create () =
  let v = Bitvec.create 100 in
  check int "width" 100 (Bitvec.width v);
  check bool "zero" true (Bitvec.is_zero v);
  check int "popcount" 0 (Bitvec.popcount v)

let test_set_get () =
  let v = Bitvec.create 130 in
  Bitvec.set v 0;
  Bitvec.set v 61;
  Bitvec.set v 62;
  Bitvec.set v 129;
  check bool "bit 0" true (Bitvec.get v 0);
  check bool "bit 61 (word edge)" true (Bitvec.get v 61);
  check bool "bit 62 (next word)" true (Bitvec.get v 62);
  check bool "bit 129 (top)" true (Bitvec.get v 129);
  check bool "bit 1" false (Bitvec.get v 1);
  check int "popcount" 4 (Bitvec.popcount v);
  Bitvec.reset v 61;
  check bool "reset" false (Bitvec.get v 61);
  check_raises "oob get" (Invalid_argument "Bitvec: index out of bounds") (fun () ->
      ignore (Bitvec.get v 130))

let test_shift_left_drops_overflow () =
  let v = Bitvec.create 5 in
  Bitvec.set v 4;
  Bitvec.shift_left1 v ~carry_in:false;
  check bool "top bit dropped" true (Bitvec.is_zero v);
  Bitvec.set v 0;
  Bitvec.shift_left1 v ~carry_in:true;
  check bool "shifted" true (Bitvec.get v 1);
  check bool "carry in" true (Bitvec.get v 0)

let test_shift_chain () =
  (* push a single bit across a word boundary and off the end *)
  let v = Bitvec.create 70 in
  Bitvec.set v 0;
  for _ = 1 to 69 do
    Bitvec.shift_left1 v ~carry_in:false
  done;
  check bool "at position 69" true (Bitvec.get v 69);
  check int "only one bit" 1 (Bitvec.popcount v);
  Bitvec.shift_left1 v ~carry_in:false;
  check bool "gone" true (Bitvec.is_zero v)

let test_bulk_ops () =
  let a = Bitvec.create 64 and b = Bitvec.create 64 in
  Bitvec.set a 1;
  Bitvec.set a 10;
  Bitvec.set b 10;
  Bitvec.set b 20;
  let u = Bitvec.copy a in
  Bitvec.or_in u b;
  check int "or" 3 (Bitvec.popcount u);
  let i = Bitvec.copy a in
  Bitvec.and_in i b;
  check int "and" 1 (Bitvec.popcount i);
  check bool "and bit" true (Bitvec.get i 10);
  check bool "intersects" true (Bitvec.intersects a b);
  Bitvec.reset b 10;
  check bool "no longer intersects" false (Bitvec.intersects a b);
  check_raises "width mismatch" (Invalid_argument "Bitvec: width mismatch") (fun () ->
      Bitvec.or_in a (Bitvec.create 65))

let test_fill_and_iter () =
  let v = Bitvec.create 67 in
  Bitvec.fill_ones v;
  check int "all ones" 67 (Bitvec.popcount v);
  Bitvec.shift_left1 v ~carry_in:false;
  check int "after shift" 66 (Bitvec.popcount v);
  check bool "bit 0 cleared" false (Bitvec.get v 0);
  check (list int) "set bits after shift" (List.init 66 succ) (set_bits v)

(* SWAR popcount at the word-size boundaries: 61 (partial top word), 62
   (exactly one full word), 63 (spills one bit into a second word), and
   the two-word analogues.  fill_ones + normalize must keep dropped bits
   out of the count. *)
let test_popcount_width_boundaries () =
  List.iter
    (fun width ->
      let v = Bitvec.create width in
      Bitvec.fill_ones v;
      check int (Printf.sprintf "all ones at width %d" width) width (Bitvec.popcount v);
      Bitvec.shift_left1 v ~carry_in:false;
      check int (Printf.sprintf "top bit dropped at width %d" width) (width - 1)
        (Bitvec.popcount v);
      (* sparse: only the extreme bits *)
      let s = Bitvec.create width in
      Bitvec.set s 0;
      Bitvec.set s (width - 1);
      check int (Printf.sprintf "extremes at width %d" width)
        (if width = 1 then 1 else 2)
        (Bitvec.popcount s))
    [ 1; 61; 62; 63; 123; 124; 125 ]

(* [words_for] is the bound of every word loop: one word up to 62 bits
   (and for width 0), two up to 124, three past that.  [clear] zeroes
   exactly those words of an arena slice and leaves its neighbours. *)
let test_words_for_boundaries () =
  List.iter
    (fun (width, words) ->
      check int (Printf.sprintf "words_for %d" width) words (Bitvec.words_for width);
      let a = Arena.create ~capacity:(words + 2) in
      let before = Bitvec.alloc_in a 62 in
      let v = Bitvec.alloc_in a width in
      let after = Bitvec.alloc_in a 62 in
      Bitvec.fill_ones before;
      Bitvec.fill_ones v;
      Bitvec.fill_ones after;
      Bitvec.clear v;
      check bool (Printf.sprintf "cleared at width %d" width) true (Bitvec.is_zero v);
      check int (Printf.sprintf "cleared words at width %d" width) 0
        (Array.fold_left ( lor ) 0 (Array.sub (Arena.words a) 1 words));
      check int (Printf.sprintf "neighbours kept at width %d" width) 124
        (Bitvec.popcount before + Bitvec.popcount after))
    [ (0, 1); (1, 1); (62, 1); (63, 2); (124, 2); (125, 3) ]

let test_popcount_matches_naive () =
  (* alternating and byte-patterned fills, counted bit by bit *)
  List.iter
    (fun (width, keep) ->
      let v = Bitvec.create width in
      for i = 0 to width - 1 do
        if keep i then Bitvec.set v i
      done;
      check int (Printf.sprintf "width %d" width) (List.length (set_bits v)) (Bitvec.popcount v))
    [
      (61, fun i -> i mod 2 = 0);
      (62, fun i -> i mod 3 = 0);
      (63, fun i -> i mod 2 = 1);
      (200, fun i -> i mod 7 < 3);
      (62, fun _ -> true);
    ]

let test_popcount_and () =
  let a = Bitvec.create 130 and b = Bitvec.create 130 in
  List.iter (Bitvec.set a) [ 0; 5; 61; 62; 100; 129 ];
  List.iter (Bitvec.set b) [ 5; 61; 99; 129 ];
  check int "intersection count" 3 (Bitvec.popcount_and a b);
  (* agrees with the allocating formulation *)
  let scratch = Bitvec.copy a in
  Bitvec.and_in scratch b;
  check int "matches copy+and_in+popcount" (Bitvec.popcount scratch) (Bitvec.popcount_and a b);
  check int "empty intersection" 0 (Bitvec.popcount_and a (Bitvec.create 130));
  check_raises "width mismatch" (Invalid_argument "Bitvec: width mismatch") (fun () ->
      ignore (Bitvec.popcount_and a (Bitvec.create 131)))

(* Arena-slice representation at the byte/word boundary widths (0, 1,
   63, 64, 65, 127, 128): copies and blits between slices and
   self-backed vectors, popcount_and, and shift-overflow drop semantics
   must be identical to self-backed vectors, and every op must stay
   inside its own arena window — the all-ones guard slices on either
   side catch any overrun. *)
let test_arena_slice_boundary_widths () =
  List.iter
    (fun width ->
      let ctx = Printf.sprintf "width %d" width in
      let arena = Arena.create ~capacity:(2 + (3 * Bitvec.words_for width)) in
      let glo = Bitvec.alloc_in arena 62 in
      let v = Bitvec.alloc_in arena width in
      let ghi = Bitvec.alloc_in arena 62 in
      Bitvec.fill_ones glo;
      Bitvec.fill_ones ghi;
      for i = 0 to width - 1 do
        if i mod 3 = 0 || i = width - 1 then Bitvec.set v i
      done;
      let self = Bitvec.copy v in
      check bool (ctx ^ ": slice -> self copy") true (bits self = bits v);
      Bitvec.clear v;
      Bitvec.blit ~src:self ~dst:v;
      check bool (ctx ^ ": self -> slice blit") true (Bitvec.equal self v);
      check int (ctx ^ ": popcount_and slice/self")
        (Bitvec.popcount v)
        (Bitvec.popcount_and v self);
      if width > 0 then begin
        Bitvec.fill_ones v;
        Bitvec.shift_left1 v ~carry_in:false;
        check int (ctx ^ ": top bit dropped") (width - 1) (Bitvec.popcount v);
        for _ = 1 to width - 1 do
          Bitvec.shift_left1 v ~carry_in:false
        done;
        check bool (ctx ^ ": all bits shifted out") true (Bitvec.is_zero v)
      end
      else begin
        Bitvec.fill_ones v;
        check bool (ctx ^ ": width 0 stays empty") true (Bitvec.is_zero v);
        Bitvec.shift_left1 v ~carry_in:true;
        check bool (ctx ^ ": width-0 shift is a no-op") true (Bitvec.is_zero v)
      end;
      check bool
        (ctx ^ ": guard slices untouched")
        true
        (Bitvec.popcount glo = 62 && Bitvec.popcount ghi = 62))
    [ 0; 1; 63; 64; 65; 127; 128 ]

let test_arena_slice_aliasing () =
  let arena = Arena.create ~capacity:(2 * Bitvec.words_for 65) in
  let a = Bitvec.alloc_in arena 65 in
  let b = Bitvec.alloc_in arena 65 in
  Bitvec.set a 64;
  Bitvec.set b 0;
  check bool "neighbor write invisible" false (Bitvec.get a 0);
  check int "a popcount" 1 (Bitvec.popcount a);
  let a' = Bitvec.of_arena arena ~off:0 ~width:65 in
  check bool "aliased view sees a's bits" true (Bitvec.get a' 64 && Bitvec.equal a a');
  Bitvec.reset a' 64;
  check bool "write through the alias" true (Bitvec.is_zero a);
  Bitvec.set a 3;
  let c = Bitvec.copy a in
  Bitvec.reset a 3;
  check bool "copy is self-backed" true (Bitvec.get c 3);
  check_raises "slice outside arena"
    (Invalid_argument "Bitvec.of_arena: slice outside the arena's allocated words") (fun () ->
      ignore (Bitvec.of_arena arena ~off:3 ~width:65))

let test_arena_snapshot_restore () =
  let arena = Arena.create ~capacity:8 in
  let a = Bitvec.alloc_in arena 62 in
  let b = Bitvec.alloc_in arena 124 in
  Bitvec.set a 5;
  Bitvec.set b 100;
  let snap = Arena.snapshot arena in
  check int "snapshot covers the used prefix" 3 (Array.length snap);
  Bitvec.clear a;
  Bitvec.set b 7;
  Arena.restore arena snap;
  check bool "a restored" true (Bitvec.get a 5);
  check bool "b restored" true (Bitvec.get b 100 && not (Bitvec.get b 7));
  check_raises "layout mismatch"
    (Invalid_argument "Arena.restore: snapshot does not match this arena") (fun () ->
      Arena.restore arena (Array.make 2 0))

let prop_popcount_and_agrees =
  QCheck2.Test.make ~name:"popcount_and = popcount of intersection" ~count:300
    QCheck2.Gen.(triple (int_range 1 150) (int_bound max_int) (int_bound max_int))
    (fun (width, seed_a, seed_b) ->
      let fill seed =
        let v = Bitvec.create width in
        for i = 0 to width - 1 do
          if (seed lsr (i mod 60)) land 1 = 1 && (i * 7919) mod 13 < 6 then Bitvec.set v i
        done;
        v
      in
      let a = fill seed_a and b = fill seed_b in
      let scratch = Bitvec.copy a in
      Bitvec.and_in scratch b;
      Bitvec.popcount_and a b = Bitvec.popcount scratch
      && Bitvec.popcount a = List.length (set_bits a))

let prop_shift_left_equals_multiply =
  (* compare against an int reference for widths <= 30 *)
  QCheck2.Test.make ~name:"shift_left1 matches integer shift" ~count:300
    QCheck2.Gen.(pair (int_range 1 30) (int_bound 0x3FFFFFFF))
    (fun (width, bits) ->
      let bits = bits land ((1 lsl width) - 1) in
      let v = Bitvec.create width in
      for i = 0 to width - 1 do
        if (bits lsr i) land 1 = 1 then Bitvec.set v i
      done;
      Bitvec.shift_left1 v ~carry_in:false;
      let expected = (bits lsl 1) land ((1 lsl width) - 1) in
      List.fold_left (fun acc i -> acc lor (1 lsl i)) 0 (set_bits v) = expected)

(* Word-level kernel surface (get_word / set_word / popcount_word /
   lsb_index) on arena-shared slices at the edge widths
   the flat kernels hit: the ops must agree with the bit-level API and
   never touch the neighbouring slices. *)
let prop_word_ops_on_shared_slices =
  QCheck2.Test.make ~name:"word ops on arena slices match bit-level API" ~count:300
    QCheck2.Gen.(
      triple (oneofl [ 0; 1; 61; 62; 63; 64; 65; 123; 124; 125 ]) (int_bound max_int)
        (int_bound max_int))
    (fun (width, seed, wword) ->
      let nw = Bitvec.words_for width in
      let arena = Arena.create ~capacity:(2 + (3 * nw)) in
      let glo = Bitvec.alloc_in arena 62 in
      let v = Bitvec.alloc_in arena width in
      let ghi = Bitvec.alloc_in arena 62 in
      Bitvec.fill_ones glo;
      Bitvec.fill_ones ghi;
      for i = 0 to width - 1 do
        if (seed lsr (i mod 60)) land 1 = 1 then Bitvec.set v i
      done;
      (* get_word reassembles the exact bit pattern *)
      let via_words = ref true in
      for i = 0 to width - 1 do
        let w = Bitvec.get_word v (i / Bitvec.bits_per_word) in
        let bit = (w lsr (i mod Bitvec.bits_per_word)) land 1 = 1 in
        if bit <> Bitvec.get v i then via_words := false
      done;
      (* popcount_word folded over the backing words = popcount *)
      let folded = ref 0 in
      for i = 0 to nw - 1 do
        folded := !folded + Bitvec.popcount_word (Bitvec.get_word v i)
      done;
      let fold_ok = !folded = Bitvec.popcount v in
      (* lsb_index of the first nonzero word = index of the lowest set bit *)
      let lsb_ok =
        if Bitvec.is_zero v then true
        else begin
          let first = ref 0 in
          while Bitvec.get_word v !first = 0 do
            incr first
          done;
          (!first * Bitvec.bits_per_word) + Bitvec.lsb_index (Bitvec.get_word v !first)
          = List.hd (set_bits v)
        end
      in
      (* set_word masks the top word to width and round-trips *)
      let set_ok =
        if width = 0 then begin
          Bitvec.set_word v 0 wword;
          Bitvec.is_zero v
        end
        else begin
          let before = bits v in
          Bitvec.set_word v (nw - 1) (Bitvec.get_word v (nw - 1));
          let same = bits v = before in
          Bitvec.set_word v (nw - 1) wword;
          let top_bits = width - ((nw - 1) * Bitvec.bits_per_word) in
          let mask = if top_bits >= Bitvec.bits_per_word then max_int else (1 lsl top_bits) - 1 in
          same && Bitvec.get_word v (nw - 1) = wword land mask && Bitvec.popcount v >= 0
        end
      in
      let oob_ok =
        match Bitvec.get_word v nw with
        | exception Invalid_argument _ -> true
        | _ -> false
      in
      !via_words && fold_ok && lsb_ok && set_ok && oob_ok
      && Bitvec.popcount glo = 62 && Bitvec.popcount ghi = 62)

let suite =
  [
    test_case "create" `Quick test_create;
    test_case "set/get across words" `Quick test_set_get;
    test_case "shift drops overflow" `Quick test_shift_left_drops_overflow;
    test_case "shift across word boundary" `Quick test_shift_chain;
    test_case "bulk operations" `Quick test_bulk_ops;
    test_case "fill and iterate" `Quick test_fill_and_iter;
    test_case "popcount width boundaries (61/62/63)" `Quick test_popcount_width_boundaries;
    test_case "words_for and clear at word boundaries" `Quick test_words_for_boundaries;
    test_case "popcount matches naive count" `Quick test_popcount_matches_naive;
    test_case "popcount_and" `Quick test_popcount_and;
    test_case "arena slices at boundary widths" `Quick test_arena_slice_boundary_widths;
    test_case "arena slice aliasing and isolation" `Quick test_arena_slice_aliasing;
    test_case "arena snapshot/restore" `Quick test_arena_snapshot_restore;
    QCheck_alcotest.to_alcotest prop_popcount_and_agrees;
    QCheck_alcotest.to_alcotest prop_word_ops_on_shared_slices;
    QCheck_alcotest.to_alcotest prop_shift_left_equals_multiply;
  ]
