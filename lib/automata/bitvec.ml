(* Backed by a window of an int array (62 usable tagged-int bits per cell
   keeps all operations allocation-free on 64-bit OCaml).  A vector is a
   slice [words.(off .. off + words_for width - 1)]: self-backed vectors
   from [create] own a private array at offset 0, arena slices from
   [of_arena] view a shared {!Arena} pool — same operations either way,
   and every loop is bounded by the width, never by the backing array's
   length. *)

let bits_per_word = 62
let mask_all = (1 lsl bits_per_word) - 1

type t = { width : int; off : int; words : int array }

let nwords width = (width + bits_per_word - 1) / bits_per_word

(* Even a width-0 vector owns one word so ops never special-case. *)
let words_for width = max 1 (nwords width)

let create width =
  if width < 0 then invalid_arg "Bitvec.create";
  { width; off = 0; words = Array.make (words_for width) 0 }

let width t = t.width

let of_arena arena ~off ~width =
  if width < 0 then invalid_arg "Bitvec.of_arena: negative width";
  if off < 0 || off + words_for width > Arena.used arena then
    invalid_arg "Bitvec.of_arena: slice outside the arena's allocated words";
  { width; off; words = Arena.words arena }

let alloc_in arena width =
  if width < 0 then invalid_arg "Bitvec.alloc_in: negative width";
  let off = Arena.alloc arena (words_for width) in
  { width; off; words = Arena.words arena }

let copy t =
  let n = words_for t.width in
  { width = t.width; off = 0; words = Array.sub t.words t.off n }

(* Mask for the partial top word so that dropped bits never reappear. *)
let top_mask t =
  let rem = t.width mod bits_per_word in
  if rem = 0 then mask_all else (1 lsl rem) - 1

let normalize t =
  if t.width > 0 then begin
    let last = t.off + nwords t.width - 1 in
    t.words.(last) <- t.words.(last) land top_mask t
  end
  else t.words.(t.off) <- 0

let check_index t i = if i < 0 || i >= t.width then invalid_arg "Bitvec: index out of bounds"

let get t i =
  check_index t i;
  (t.words.(t.off + (i / bits_per_word)) lsr (i mod bits_per_word)) land 1 = 1

let set t i =
  check_index t i;
  let w = t.off + (i / bits_per_word) in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let reset t i =
  check_index t i;
  let w = t.off + (i / bits_per_word) in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let clear t = Array.fill t.words t.off (words_for t.width) 0

let fill_ones t =
  Array.fill t.words t.off (words_for t.width) mask_all;
  normalize t

(* The scan loops below accumulate with a ref instead of a local [rec]
   helper: ocamlopt unboxes non-escaping refs but allocates a closure for
   every capturing local function, and [is_zero] sits on the kernels'
   per-symbol path, which must not allocate. *)
let is_zero t =
  let acc = ref 0 in
  for i = t.off to t.off + words_for t.width - 1 do
    acc := !acc lor t.words.(i)
  done;
  !acc = 0

let equal a b =
  a.width = b.width
  &&
  let acc = ref 0 in
  for i = 0 to words_for a.width - 1 do
    acc := !acc lor (a.words.(a.off + i) lxor b.words.(b.off + i))
  done;
  !acc = 0

(* SWAR popcount over one 62-bit word.  The usual 64-bit masks are
   truncated to 62 bits (0x55... does not fit in a tagged int); the byte
   sum lands in bits 56..62 of the product, which a 63-bit int retains
   because the count never exceeds 62. *)
let popcount_word w =
  let w = w - ((w lsr 1) land 0x1555555555555555) in
  let w = (w land 0x3333333333333333) + ((w lsr 2) land 0x3333333333333333) in
  let w = (w + (w lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (w * 0x0101010101010101) lsr 56

let popcount t =
  let acc = ref 0 in
  for i = t.off to t.off + words_for t.width - 1 do
    acc := !acc + popcount_word t.words.(i)
  done;
  !acc

let check_same a b = if a.width <> b.width then invalid_arg "Bitvec: width mismatch"

let popcount_and a b =
  check_same a b;
  let acc = ref 0 in
  for i = 0 to words_for a.width - 1 do
    acc := !acc + popcount_word (a.words.(a.off + i) land b.words.(b.off + i))
  done;
  !acc

let or_in dst src =
  check_same dst src;
  for i = 0 to words_for dst.width - 1 do
    dst.words.(dst.off + i) <- dst.words.(dst.off + i) lor src.words.(src.off + i)
  done

let and_in dst src =
  check_same dst src;
  for i = 0 to words_for dst.width - 1 do
    dst.words.(dst.off + i) <- dst.words.(dst.off + i) land src.words.(src.off + i)
  done

let andnot_in dst src =
  check_same dst src;
  for i = 0 to words_for dst.width - 1 do
    dst.words.(dst.off + i) <- dst.words.(dst.off + i) land lnot src.words.(src.off + i)
  done

let blit ~src ~dst =
  check_same src dst;
  Array.blit src.words src.off dst.words dst.off (words_for src.width)

let blit_words t dst off = Array.blit t.words t.off dst off (words_for t.width)

let check_word t i =
  if i < 0 || i >= words_for t.width then invalid_arg "Bitvec: word index out of bounds"

let get_word t i =
  check_word t i;
  t.words.(t.off + i)

let set_word t i w =
  check_word t i;
  t.words.(t.off + i) <- w land mask_all;
  (* a top-word store may have raised bits at or beyond [width] *)
  if i = words_for t.width - 1 then normalize t

let intersects a b =
  check_same a b;
  let acc = ref 0 in
  for i = 0 to words_for a.width - 1 do
    acc := !acc lor (a.words.(a.off + i) land b.words.(b.off + i))
  done;
  !acc <> 0

let shift_left1 t ~carry_in =
  let n = words_for t.width in
  let carry = ref (if carry_in then 1 else 0) in
  for i = t.off to t.off + n - 1 do
    let w = t.words.(i) in
    t.words.(i) <- ((w lsl 1) lor !carry) land mask_all;
    carry := (w lsr (bits_per_word - 1)) land 1
  done;
  normalize t

let shift_right1 t ~carry_in =
  let n = words_for t.width in
  let carry = ref (if carry_in then 1 else 0) in
  for i = t.off + n - 1 downto t.off do
    let w = t.words.(i) in
    t.words.(i) <- (w lsr 1) lor (!carry lsl (bits_per_word - 1));
    carry := w land 1
  done;
  (* carry_in enters at the true top bit of the width, not of the word *)
  if carry_in && t.width > 0 then begin
    normalize t;
    let i = t.width - 1 in
    let w = t.off + (i / bits_per_word) in
    t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))
  end
  else normalize t

(* Number of trailing zeros of [b], which has exactly one set bit. *)
let ntz_one b =
  let n = ref 0 and b = ref b in
  if !b land 0xFFFFFFFF = 0 then begin
    n := !n + 32;
    b := !b lsr 32
  end;
  if !b land 0xFFFF = 0 then begin
    n := !n + 16;
    b := !b lsr 16
  end;
  if !b land 0xFF = 0 then begin
    n := !n + 8;
    b := !b lsr 8
  end;
  if !b land 0xF = 0 then begin
    n := !n + 4;
    b := !b lsr 4
  end;
  if !b land 0x3 = 0 then begin
    n := !n + 2;
    b := !b lsr 2
  end;
  if !b land 0x1 = 0 then incr n;
  !n

let lsb_index w = ntz_one (w land -w)

(* ctz-style scan: zero words are skipped whole, and within a word each
   iteration jumps straight to the lowest set bit ([w land -w]) instead of
   probing all 62 positions. *)
let iter_set f t =
  for i = 0 to words_for t.width - 1 do
    let w = ref t.words.(t.off + i) in
    if !w <> 0 then begin
      let base = i * bits_per_word in
      while !w <> 0 do
        f (base + ntz_one (!w land - !w));
        w := !w land (!w - 1)
      done
    end
  done

(* Byte serialization: little-endian bit order within each byte,
   ceil(width/8) bytes, independent of the 62-bit word layout. *)
let to_bytes t =
  let nbytes = (t.width + 7) / 8 in
  let b = Bytes.make nbytes '\000' in
  for i = 0 to t.width - 1 do
    if get t i then
      Bytes.unsafe_set b (i / 8)
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get b (i / 8)) lor (1 lsl (i mod 8))))
  done;
  b

let of_bool_array bs =
  let t = create (Array.length bs) in
  Array.iteri (fun i b -> if b then set t i) bs;
  t

let to_bool_array t = Array.init t.width (get t)

let pp fmt t =
  for i = t.width - 1 downto 0 do
    Format.pp_print_char fmt (if get t i then '1' else '0')
  done
