(* See input_stream.mli. *)

let default_chunk = 64 * 1024
let default_read_all_limit = 1 lsl 30

type source = Src_string of string | Src_channel of { ic : in_channel; seekable : bool }

type t = {
  chunk : int;
  source : source;
  buf : bytes;  (* reused read buffer for channel sources *)
  len : int option;
  mutable position : int;
  mutable closed : bool;
}

let fail detail = raise (Sim_error.Error (Sim_error.Stream_failed { detail }))

let make ?(chunk = default_chunk) source len =
  if chunk <= 0 then invalid_arg "Input_stream: chunk size must be positive";
  let buf = match source with Src_string _ -> Bytes.empty | Src_channel _ -> Bytes.create chunk in
  { chunk; source; buf; len; position = 0; closed = false }

let of_string ?chunk s = make ?chunk (Src_string s) (Some (String.length s))

(* Files always stream through the channel reader.  It reads with read(2)
   into the channel buffer, so a file truncated while it is being read
   (log rotation with copytruncate) ends the stream early; a memory
   mapping would fault on the vanished pages instead. *)
let of_file ?chunk path =
  match open_in_bin path with
  | ic ->
      (* Only regular files are seekable with a knowable length:
         [in_channel_length] on a fifo/device raises, and an lseek on
         one is meaningless, so classify by fstat instead of assuming.
         Chunk delivery is identical either way — the channel reader
         already handles short reads. *)
      let seekable, len =
        match Unix.fstat (Unix.descr_of_in_channel ic) with
        | { Unix.st_kind = Unix.S_REG; st_size; _ } -> (true, Some st_size)
        | _ -> (false, None)
        | exception Unix.Unix_error _ -> (false, None)
      in
      make ?chunk (Src_channel { ic; seekable }) len
  | exception Sys_error msg -> fail (Printf.sprintf "cannot open %S: %s" path msg)

let of_stdin ?chunk () = make ?chunk (Src_channel { ic = stdin; seekable = false }) None
let length t = t.len
let pos t = t.position
let chunk_size t = t.chunk

let next t =
  if t.closed then None
  else
    match t.source with
    | Src_string s ->
        let remaining = String.length s - t.position in
        if remaining <= 0 then None
        else begin
          let n = min t.chunk remaining in
          let c =
            if t.position = 0 && n = String.length s then s else String.sub s t.position n
          in
          t.position <- t.position + n;
          Some c
        end
    | Src_channel { ic; _ } -> (
        (* fill the buffer from possibly-short reads (pipes deliver less
           than requested) so chunk boundaries stay deterministic for a
           given chunk size regardless of the transport *)
        let filled = ref 0 in
        (try
           let rec fill () =
             if !filled < t.chunk then begin
               let n = input ic t.buf !filled (t.chunk - !filled) in
               if n > 0 then begin
                 filled := !filled + n;
                 fill ()
               end
             end
           in
           fill ()
         with
        | End_of_file -> ()
        | Sys_error msg -> fail ("read error: " ^ msg));
        if !filled = 0 then None
        else begin
          t.position <- t.position + !filled;
          Some (Bytes.sub_string t.buf 0 !filled)
        end)

let seek t off =
  if off < 0 then fail (Printf.sprintf "cannot seek to negative offset %d" off);
  match t.source with
  | Src_string s ->
      if off > String.length s then
        fail (Printf.sprintf "seek offset %d beyond input of %d bytes" off (String.length s));
      t.position <- off
  | Src_channel { ic; seekable } ->
      if not seekable then
        fail "input is not seekable (stdin or non-regular file); resume needs a regular file or a literal";
      (match t.len with
      | Some l when off > l -> fail (Printf.sprintf "seek offset %d beyond input of %d bytes" off l)
      | _ -> ());
      (try seek_in ic off with Sys_error msg -> fail ("seek error: " ^ msg));
      t.position <- off

let too_large bytes limit =
  raise (Sim_error.Error (Sim_error.Input_too_large { bytes; limit }))

let read_all ?(max_bytes = default_read_all_limit) t =
  if max_bytes < 0 then invalid_arg "Input_stream.read_all: negative max_bytes";
  (* a known remaining length over the cap fails before buffering a byte *)
  (match t.len with
  | Some l when l - t.position > max_bytes -> too_large (l - t.position) max_bytes
  | _ -> ());
  let b = Buffer.create (match t.len with Some l -> max 16 (l - t.position) | None -> 4096) in
  let rec drain () =
    match next t with
    | Some c ->
        if Buffer.length b + String.length c > max_bytes then
          too_large (Buffer.length b + String.length c) max_bytes;
        Buffer.add_string b c;
        drain ()
    | None -> ()
  in
  drain ();
  Buffer.contents b

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.source with
    | Src_string _ -> ()
    | Src_channel { ic; _ } -> if ic != stdin then close_in_noerr ic
  end
