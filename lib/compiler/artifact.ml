(* See artifact.mli. *)

(* ---- CRC-32 (reflected, poly 0xEDB88320 — the zlib/POSIX cksum one) ---- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

(* The running register over [len] more bytes of [s] from [pos]: a CRC
   over pieces equals the CRC of their concatenation. *)
let crc32_range c s ~pos ~len =
  let table = Lazy.force crc_table in
  let c = ref c in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (String.unsafe_get s i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c

let crc32_update c s = crc32_range c s ~pos:0 ~len:(String.length s)
let crc32_pieces pieces = List.fold_left crc32_update 0xFFFFFFFF pieces lxor 0xFFFFFFFF

(* ---- framing ---- *)

(* Everything before the payload: magic, version, CRC and length. *)
let header ~magic ~version pieces =
  let b = Buffer.create (String.length magic + 13) in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr (version land 0xFF));
  let crc = crc32_pieces pieces in
  for i = 0 to 3 do
    Buffer.add_char b (Char.chr ((crc lsr (8 * i)) land 0xFF))
  done;
  let len = Int64.of_int (List.fold_left (fun acc p -> acc + String.length p) 0 pieces) in
  for i = 0 to 7 do
    Buffer.add_char b (Char.chr (Int64.to_int (Int64.shift_right_logical len (8 * i)) land 0xFF))
  done;
  Buffer.contents b

(* The payload's offset in [raw], its CRC checked in place: the payload
   is never cut out. *)
let unframe ~magic ~version raw =
  let ml = String.length magic in
  let header_len = ml + 1 + 4 + 8 in
  if String.length raw < header_len then Error "shorter than the header"
  else if not (String.starts_with ~prefix:magic raw) then Error "bad magic"
  else
    let v = Char.code raw.[ml] in
    if v <> version then
      Error (Printf.sprintf "unsupported version %d (this build reads version %d)" v version)
    else begin
      let byte at = Char.code raw.[at] in
      let crc = ref 0 in
      for i = 0 to 3 do
        crc := !crc lor (byte (ml + 1 + i) lsl (8 * i))
      done;
      let len = ref 0L in
      for i = 0 to 7 do
        len := Int64.logor !len (Int64.shift_left (Int64.of_int (byte (ml + 5 + i))) (8 * i))
      done;
      let len = Int64.to_int !len in
      if len < 0 || header_len + len <> String.length raw then Error "payload length mismatch"
      else if crc32_range 0xFFFFFFFF raw ~pos:header_len ~len lxor 0xFFFFFFFF <> !crc then
        Error "CRC mismatch"
      else Ok header_len
    end

(* ---- filesystem ---- *)

(* Flush a directory's entry table to stable storage.  rename() makes an
   artifact visible to other processes, but the new directory entry
   itself lives in the page cache until the *directory* is fsynced — on
   a power cut right after the rename, some filesystems recover with the
   old entry (or none).  Durability failures are deliberately swallowed:
   a filesystem that rejects fsync on a directory fd (some network
   mounts) still gets the rename's atomicity, just not its durability,
   and callers treat both the same way they always did. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* The pieces go to the file one after another, never joined in
   memory.  A failed write or rename removes the temp file before the
   error propagates, so a failure leaves nothing beside [path]. *)
let write_pieces ~path pieces =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  match
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        List.iter (output_string oc) pieces;
        flush oc;
        (* the data must be durable before the rename commits it: renaming
           an unsynced temp file can leave a zero-length artifact after a
           crash, which the CRC would catch but durability should prevent *)
        try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
    (* the rename is the commit point: readers only ever see the previous
       complete artifact or this one, never a torn write *)
    Sys.rename tmp path
  with
  | () -> fsync_dir (Filename.dirname path)
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (try Sys.remove tmp with Sys_error _ -> ());
      Printexc.raise_with_backtrace e bt

let write ~path data = write_pieces ~path [ data ]

let save_pieces ~path ~magic ~version pieces =
  write_pieces ~path (header ~magic ~version pieces :: pieces)

let save ~path ~magic ~version payload = save_pieces ~path ~magic ~version [ payload ]

let load ~path ~magic ~version =
  if not (Sys.file_exists path) then Ok None
  else
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error msg -> Error ("unreadable: " ^ msg)
    | raw -> ( match unframe ~magic ~version raw with Ok at -> Ok (Some (raw, at)) | Error e -> Error e)
