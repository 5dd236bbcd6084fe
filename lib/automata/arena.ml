(* See arena.mli. *)

type t = { words : int array; mutable used : int; mutable guards : int list }

let create ~capacity =
  if capacity < 0 then invalid_arg "Arena.create: negative capacity";
  { words = Array.make (Int.max 1 capacity) 0; used = 0; guards = [] }

(* A canary's value depends on its offset, so two guards swapped by a
   wild blit still read as corrupt. *)
let canary off = 0x2F0E1D3C4B5A6978 lxor (off * 0x9E3779B9)

let used t = t.used
let words t = t.words

let alloc t n =
  if n < 0 then invalid_arg "Arena.alloc: negative size";
  let off = t.used in
  if off + n > Array.length t.words then
    invalid_arg
      (Printf.sprintf "Arena.alloc: %d words requested, %d of %d free" n
         (Array.length t.words - off) (Array.length t.words));
  t.used <- off + n;
  off

let guard t =
  let off = alloc t 1 in
  t.words.(off) <- canary off;
  t.guards <- off :: t.guards

let guards_ok t = List.for_all (fun off -> t.words.(off) = canary off) t.guards

let rearm_guards t = List.iter (fun off -> t.words.(off) <- canary off) t.guards

let snapshot t = Array.sub t.words 0 t.used

let restore t snap =
  if Array.length snap <> t.used then
    invalid_arg "Arena.restore: snapshot does not match this arena";
  Array.blit snap 0 t.words 0 t.used
