(* See sim_error.mli. *)

type t =
  | Array_crashed of { array_id : int; attempts : int; detail : string }
  | Array_timeout of { array_id : int; attempts : int; deadline_s : float }
  | Checkpoint_corrupt of { path : string; detail : string }
  | Checkpoint_mismatch of { detail : string }
  | Stream_failed of { detail : string }
  | Deadline_expired of { waited_s : float; deadline_s : float }
  | Input_too_large of { bytes : int; limit : int }
  | Integrity_violation of { array_id : int; region : string; detail : string }

exception Error of t

let label = function
  | Array_crashed _ -> "array-crashed"
  | Array_timeout _ -> "array-timeout"
  | Checkpoint_corrupt _ -> "checkpoint-corrupt"
  | Checkpoint_mismatch _ -> "checkpoint-mismatch"
  | Stream_failed _ -> "stream-failed"
  | Deadline_expired _ -> "deadline-expired"
  | Input_too_large _ -> "input-too-large"
  | Integrity_violation _ -> "integrity-violation"

let array_id = function
  | Array_crashed { array_id; _ }
  | Array_timeout { array_id; _ }
  | Integrity_violation { array_id; _ } ->
      Some array_id
  | Checkpoint_corrupt _ | Checkpoint_mismatch _ | Stream_failed _ | Deadline_expired _
  | Input_too_large _ ->
      None

let message = function
  | Array_crashed { array_id; attempts; detail } ->
      Printf.sprintf "array %d crashed after %d attempt(s): %s" array_id attempts detail
  | Array_timeout { array_id; attempts; deadline_s } ->
      Printf.sprintf "array %d exceeded its %.3fs deadline on %d attempt(s)" array_id
        deadline_s attempts
  | Checkpoint_corrupt { path; detail } ->
      Printf.sprintf "checkpoint %s is corrupt: %s" path detail
  | Checkpoint_mismatch { detail } ->
      Printf.sprintf "checkpoint does not match this run: %s" detail
  | Stream_failed { detail } -> Printf.sprintf "input stream failed: %s" detail
  | Deadline_expired { waited_s; deadline_s } ->
      Printf.sprintf "request expired after %.3fs in queue (deadline %.3fs)" waited_s
        deadline_s
  | Input_too_large { bytes; limit } ->
      Printf.sprintf
        "input of %d bytes exceeds the %d-byte whole-input limit; use the streaming path"
        bytes limit
  | Integrity_violation { array_id; region; detail } ->
      Printf.sprintf "array %d failed an integrity check in %s: %s" array_id region detail

let pp fmt e = Format.fprintf fmt "[%s] %s" (label e) (message e)

(* ---- wire codec ----

   One tag byte, then the constructor's fields in declaration order, in
   the shared {!Codec} vocabulary. *)

let to_wire e =
  let open Codec in
  let b = Buffer.create 64 in
  (match e with
  | Array_crashed { array_id; attempts; detail } ->
      w_u8 b 0;
      w_u32 b array_id;
      w_u32 b attempts;
      w_str b detail
  | Array_timeout { array_id; attempts; deadline_s } ->
      w_u8 b 1;
      w_u32 b array_id;
      w_u32 b attempts;
      w_f64 b deadline_s
  | Checkpoint_corrupt { path; detail } ->
      w_u8 b 2;
      w_str b path;
      w_str b detail
  | Checkpoint_mismatch { detail } ->
      w_u8 b 3;
      w_str b detail
  | Stream_failed { detail } ->
      w_u8 b 4;
      w_str b detail
  | Deadline_expired { waited_s; deadline_s } ->
      w_u8 b 5;
      w_f64 b waited_s;
      w_f64 b deadline_s
  | Input_too_large { bytes; limit } ->
      w_u8 b 6;
      w_u32 b bytes;
      w_u32 b limit
  | Integrity_violation { array_id; region; detail } ->
      w_u8 b 7;
      w_u32 b array_id;
      w_str b region;
      w_str b detail);
  Buffer.contents b

let of_wire =
  let open Codec in
  decode (fun cur ->
      match r_u8 cur with
      | 0 ->
          let array_id = r_u32 cur in
          let attempts = r_u32 cur in
          Array_crashed { array_id; attempts; detail = r_str cur }
      | 1 ->
          let array_id = r_u32 cur in
          let attempts = r_u32 cur in
          Array_timeout { array_id; attempts; deadline_s = r_f64 cur }
      | 2 ->
          let path = r_str cur in
          Checkpoint_corrupt { path; detail = r_str cur }
      | 3 -> Checkpoint_mismatch { detail = r_str cur }
      | 4 -> Stream_failed { detail = r_str cur }
      | 5 ->
          let waited_s = r_f64 cur in
          Deadline_expired { waited_s; deadline_s = r_f64 cur }
      | 6 ->
          let bytes = r_u32 cur in
          Input_too_large { bytes; limit = r_u32 cur }
      | 7 ->
          let array_id = r_u32 cur in
          let region = r_str cur in
          Integrity_violation { array_id; region; detail = r_str cur }
      | tag -> raise (Corrupt (Printf.sprintf "unknown error tag %d" tag)))

let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Sim_error.Error (%s: %s)" (label e) (message e))
    | _ -> None)
