(* See wire.mli. *)

type class_ = Interactive | Bulk

let class_name = function Interactive -> "interactive" | Bulk -> "bulk"

let class_of_string = function
  | "interactive" -> Ok Interactive
  | "bulk" -> Ok Bulk
  | other -> Error (Printf.sprintf "unknown stream class %S (interactive|bulk)" other)

type request =
  | Open of { name : string; class_ : class_; deadline_s : float option }
  | Chunk of string
  | Finish
  | Stats
  | Ping
  | Shutdown

type reply =
  | Accepted of { id : int }
  | Overloaded of { depth : int; capacity : int; retry_after_s : float }
  | Quarantined of { name : string; faults : int }
  | Rejected of { reason : string }
  | Report of { id : int; degraded : int; recovered : bool; text : string }
  | Failed of { id : int; error : Sim_error.t }
  | Stats_ok of { json : string }
  | Pong
  | Shutting_down

(* A frame carries the encoded message, not the bare payload: a Chunk at
   the server's max_input adds a tag byte and a length prefix, so the
   frame limit needs headroom over the input limit or a full-limit chunk
   dies with a framing error instead of the typed Too_large shed. *)
let frame_slop = 64
let default_max_frame = (64 * 1024 * 1024) + frame_slop

(* ---- request codec ---- *)

open Codec

let encode_request r =
  let b = Buffer.create 64 in
  (match r with
  | Open { name; class_; deadline_s } ->
      w_u8 b 1;
      w_str b name;
      w_u8 b (match class_ with Interactive -> 0 | Bulk -> 1);
      (match deadline_s with
      | None -> w_u8 b 0
      | Some d ->
          w_u8 b 1;
          w_f64 b d)
  | Chunk data ->
      w_u8 b 2;
      w_str b data
  | Finish -> w_u8 b 3
  | Stats -> w_u8 b 4
  | Ping -> w_u8 b 5
  | Shutdown -> w_u8 b 6);
  Buffer.contents b

let decode_request =
  decode (fun cur ->
      match r_u8 cur with
      | 1 ->
          let name = r_str cur in
          let class_ =
            match r_u8 cur with
            | 0 -> Interactive
            | 1 -> Bulk
            | c -> raise (Corrupt (Printf.sprintf "unknown class tag %d" c))
          in
          let deadline_s =
            match r_u8 cur with
            | 0 -> None
            | 1 ->
                (* a NaN deadline compares false both ways and an infinite
                   one never passes, so neither would ever expire; zero or
                   less expires the request before it runs *)
                let d = r_f64 cur in
                if Float.is_finite d && d > 0. then Some d
                else raise (Corrupt (Printf.sprintf "deadline %h is not a finite positive number" d))
            | t -> raise (Corrupt (Printf.sprintf "unknown option tag %d" t))
          in
          Open { name; class_; deadline_s }
      | 2 -> Chunk (r_str cur)
      | 3 -> Finish
      | 4 -> Stats
      | 5 -> Ping
      | 6 -> Shutdown
      | tag -> raise (Corrupt (Printf.sprintf "unknown request tag %d" tag)))

(* ---- reply codec ---- *)

let encode_reply r =
  let b = Buffer.create 256 in
  (match r with
  | Accepted { id } ->
      w_u8 b 0x81;
      w_i64 b id
  | Overloaded { depth; capacity; retry_after_s } ->
      w_u8 b 0x82;
      w_u32 b depth;
      w_u32 b capacity;
      w_f64 b retry_after_s
  | Quarantined { name; faults } ->
      w_u8 b 0x83;
      w_str b name;
      w_u32 b faults
  | Rejected { reason } ->
      w_u8 b 0x84;
      w_str b reason
  | Report { id; degraded; recovered; text } ->
      w_u8 b 0x85;
      w_i64 b id;
      w_u32 b degraded;
      w_u8 b (if recovered then 1 else 0);
      w_str b text
  | Failed { id; error } ->
      w_u8 b 0x86;
      w_i64 b id;
      w_str b (Sim_error.to_wire error)
  | Stats_ok { json } ->
      w_u8 b 0x87;
      w_str b json
  | Pong -> w_u8 b 0x88
  | Shutting_down -> w_u8 b 0x89);
  Buffer.contents b

let decode_reply =
  decode (fun cur ->
      match r_u8 cur with
      | 0x81 -> Accepted { id = r_i64 cur }
      | 0x82 ->
          let depth = r_u32 cur in
          let capacity = r_u32 cur in
          Overloaded { depth; capacity; retry_after_s = r_f64 cur }
      | 0x83 ->
          let name = r_str cur in
          Quarantined { name; faults = r_u32 cur }
      | 0x84 -> Rejected { reason = r_str cur }
      | 0x85 ->
          let id = r_i64 cur in
          let degraded = r_u32 cur in
          let recovered = r_u8 cur <> 0 in
          Report { id; degraded; recovered; text = r_str cur }
      | 0x86 -> (
          let id = r_i64 cur in
          match Sim_error.of_wire (r_str cur) with
          | Ok error -> Failed { id; error }
          | Error detail -> raise (Corrupt ("bad error payload: " ^ detail)))
      | 0x87 -> Stats_ok { json = r_str cur }
      | 0x88 -> Pong
      | 0x89 -> Shutting_down
      | tag -> raise (Corrupt (Printf.sprintf "unknown reply tag %d" tag)))

(* ---- framing ---- *)

let add_frame b payload =
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_string b payload

(* The declared payload length of the frame whose header starts at
   [off], checked against the limit before anything is allocated for
   the payload. *)
let frame_length ~max_frame buf off =
  let len = Int32.to_int (Bytes.get_int32_le buf off) in
  if len < 0 || len > max_frame then
    Error (Printf.sprintf "frame length %d exceeds limit %d" len max_frame)
  else Ok len

(* ---- blocking transport ---- *)

let stream_fail detail = raise (Sim_error.Error (Sim_error.Stream_failed { detail }))

let rec write_all fd buf off len =
  if len > 0 then begin
    let n =
      try Unix.write fd buf off len
      with
      | Unix.Unix_error (Unix.EINTR, _, _) -> 0
      | Unix.Unix_error (e, _, _) ->
          stream_fail (Printf.sprintf "socket write: %s" (Unix.error_message e))
    in
    write_all fd buf (off + n) (len - n)
  end

let write_frame fd payload =
  let b = Buffer.create (4 + String.length payload) in
  add_frame b payload;
  write_all fd (Buffer.to_bytes b) 0 (Buffer.length b)

(* [Some bytes] only when exactly [len] bytes arrive; [None] for EOF at
   offset 0 (the caller decides whether a boundary EOF is clean) *)
let read_exactly fd len =
  let buf = Bytes.create len in
  let rec go off =
    if off = len then Some buf
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> if off = 0 then None else stream_fail "unexpected EOF mid-frame"
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) ->
          stream_fail (Printf.sprintf "socket read: %s" (Unix.error_message e))
  in
  go 0

let read_frame ~max_frame fd =
  match read_exactly fd 4 with
  | None -> None
  | Some hdr -> (
      match frame_length ~max_frame hdr 0 with
      | Error detail -> stream_fail detail
      | Ok 0 -> Some ""
      | Ok len -> (
          match read_exactly fd len with
          | None -> stream_fail "unexpected EOF mid-frame"
          | Some payload -> Some (Bytes.unsafe_to_string payload)))

let send_request fd r = write_frame fd (encode_request r)

let recv_reply ?(max_frame = default_max_frame) fd =
  match read_frame ~max_frame fd with
  | None -> None
  | Some payload -> (
      match decode_reply payload with
      | Ok r -> Some r
      | Error detail -> stream_fail (Printf.sprintf "undecodable reply: %s" detail))

(* ---- incremental reader ---- *)

type reader = {
  max_frame : int;
  mutable buf : Bytes.t;  (* [lo, hi) holds unconsumed bytes *)
  mutable lo : int;
  mutable hi : int;
}

let create_reader ?(max_frame = default_max_frame) () =
  { max_frame; buf = Bytes.create 4096; lo = 0; hi = 0 }

(* Feeds rarely end on a frame boundary (a 64 KiB read against 64 KiB
   Chunk frames almost never does), so the buffer is seldom empty when a
   feed arrives, and growing it whenever its tail fills would keep every
   byte a connection streams.  A feed that does not fit behind the
   unconsumed bytes moves them to the front instead; the buffer grows
   only when they and the feed do not fit at all. *)
let reader_feed r src n =
  if n > 0 then begin
    if r.hi + n > Bytes.length r.buf then begin
      let live = r.hi - r.lo in
      if live + n <= Bytes.length r.buf then Bytes.blit r.buf r.lo r.buf 0 live
      else begin
        let nb = Bytes.create (max (live + n) (2 * Bytes.length r.buf)) in
        Bytes.blit r.buf r.lo nb 0 live;
        r.buf <- nb
      end;
      r.lo <- 0;
      r.hi <- live
    end;
    Bytes.blit src 0 r.buf r.hi n;
    r.hi <- r.hi + n
  end

let reader_next r =
  if r.hi - r.lo < 4 then Ok None
  else
    match frame_length ~max_frame:r.max_frame r.buf r.lo with
    | Error detail -> Error detail
    | Ok len when r.hi - r.lo < 4 + len -> Ok None
    | Ok len ->
        let payload = Bytes.sub_string r.buf (r.lo + 4) len in
        r.lo <- r.lo + 4 + len;
        if r.lo = r.hi then begin
          r.lo <- 0;
          r.hi <- 0
        end;
        Ok (Some payload)
