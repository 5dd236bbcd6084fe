(* See checkpoint.mli.

   On-disk layout: the shared Artifact envelope (magic "RAPCKPT",
   version 3, CRC-32, payload length — see artifact.mli) around this
   payload, in the Codec vocabulary: fingerprint (string), symbols
   (i64), the degraded list (each error as a Sim_error.to_wire string),
   then per array: cycles and reports (i64), energy by category (f64s),
   mode energy (f64s), and its word rows (i64s): each engine's
   run-state arena, then the array's energy counters.  Arrays and
   strings are u32 length-prefixed.  The words are the arena's and the
   counters' layout, so any change to either must bump [version].
   Version 3 added the counters row; version 2 had none, and its
   energy floats were the restored state. *)

open Codec

let magic = "RAPCKPT"
let version = 3

type array_state = {
  cs_cycles : int;
  cs_reports : int;
  cs_energy_pj : float array;
  cs_mode_pj : float array;
  cs_engines : int array array;
}

type t = {
  ck_fingerprint : string;
  ck_symbols : int;
  ck_degraded : Sim_error.t list;
  ck_arrays : array_state array;
}

type config = { dir : string; every : int }

let default_every = 1 lsl 20
let state_path ~dir = Filename.concat dir "state.ckpt"
let journal_path ~dir = Filename.concat dir "journal.log"

let encode ck =
  let b = Buffer.create 4096 in
  w_str b ck.ck_fingerprint;
  w_i64 b ck.ck_symbols;
  w_array (fun b e -> w_str b (Sim_error.to_wire e)) b (Array.of_list ck.ck_degraded);
  w_array
    (fun b a ->
      w_i64 b a.cs_cycles;
      w_i64 b a.cs_reports;
      w_array w_f64 b a.cs_energy_pj;
      w_array w_f64 b a.cs_mode_pj;
      w_array (w_array w_i64) b a.cs_engines)
    b ck.ck_arrays;
  Buffer.contents b

let decode ~at raw =
  Codec.decode ~at
    (fun cur ->
      let ck_fingerprint = r_str cur in
      let ck_symbols = r_i64 cur in
      let ck_degraded =
        r_array
          (fun cur ->
            match Sim_error.of_wire (r_str cur) with
            | Ok e -> e
            | Error detail -> raise (Corrupt ("bad degraded entry: " ^ detail)))
          cur
        |> Array.to_list
      in
      let ck_arrays =
        r_array
          (fun cur ->
            let cs_cycles = r_i64 cur in
            let cs_reports = r_i64 cur in
            let cs_energy_pj = r_array r_f64 cur in
            let cs_mode_pj = r_array r_f64 cur in
            let cs_engines = r_array (r_array r_i64) cur in
            { cs_cycles; cs_reports; cs_energy_pj; cs_mode_pj; cs_engines })
          cur
      in
      { ck_fingerprint; ck_symbols; ck_degraded; ck_arrays })
    raw

(* ---- filesystem ---- *)

let fs_fail detail = raise (Sim_error.Error (Sim_error.Stream_failed { detail }))

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755
    with Sys_error msg -> fs_fail (Printf.sprintf "cannot create checkpoint dir %S: %s" dir msg)

let save ~dir ck =
  ensure_dir dir;
  let path = state_path ~dir in
  try Artifact.save ~path ~magic ~version (encode ck)
  with Sys_error msg -> fs_fail (Printf.sprintf "cannot write checkpoint %S: %s" path msg)

let load ~dir =
  let path = state_path ~dir in
  let corrupt detail = Error (Sim_error.Checkpoint_corrupt { path; detail }) in
  match Artifact.load ~path ~magic ~version with
  | Ok None -> Ok None
  | Error detail -> corrupt detail
  | Ok (Some (raw, at)) -> (
      match decode ~at raw with Ok ck -> Ok (Some ck) | Error detail -> corrupt detail)

(* ---- request spool: the service's in-flight session journal ----

   One Artifact-framed file per accepted-but-unfinished request.  The
   daemon writes the entry at admission (before execution starts) and
   removes it when the reply is handed to the transport, so a kill -9 at
   any point in between leaves the request on disk for the next daemon
   start to replay.  Same crash-consistency story as the checkpoint
   state file: temp-write + rename, CRC-guarded load. *)

module Spool = struct
  let magic = "RAPSPOOL"
  let version = 1

  type entry = {
    sp_id : int;
    sp_name : string;
    sp_class : string;
    sp_deadline_s : float option;
    sp_input : string;
  }

  let path ~dir ~id = Filename.concat dir (Printf.sprintf "req-%06d.req" id)
  let report_path ~dir ~id = Filename.concat dir (Printf.sprintf "req-%06d.report" id)

  (* The payload is every field in order, the input last as a
     length-prefixed string.  [save] writes it as two pieces: the fields
     up to the input's length prefix, then the input itself, which is
     never copied. *)
  let head e =
    let b = Buffer.create 64 in
    w_i64 b e.sp_id;
    w_str b e.sp_name;
    w_str b e.sp_class;
    (match e.sp_deadline_s with
    | None -> w_u8 b 0
    | Some d ->
        w_u8 b 1;
        w_f64 b d);
    w_u32 b (String.length e.sp_input);
    Buffer.contents b

  let decode ~at raw =
    Codec.decode ~at
      (fun cur ->
        let sp_id = r_i64 cur in
        let sp_name = r_str cur in
        let sp_class = r_str cur in
        let sp_deadline_s =
          match r_u8 cur with
          | 0 -> None
          | 1 -> Some (r_f64 cur)
          | tag -> raise (Corrupt (Printf.sprintf "unknown deadline tag %d" tag))
        in
        let sp_input = r_str cur in
        { sp_id; sp_name; sp_class; sp_deadline_s; sp_input })
      raw

  let save ~dir e =
    ensure_dir dir;
    let path = path ~dir ~id:e.sp_id in
    try Artifact.save_pieces ~path ~magic ~version [ head e; e.sp_input ]
    with Sys_error msg -> fs_fail (Printf.sprintf "cannot spool request %S: %s" path msg)

  let load ~dir ~id =
    let path = path ~dir ~id in
    let corrupt detail = Error (Sim_error.Checkpoint_corrupt { path; detail }) in
    match Artifact.load ~path ~magic ~version with
    | Ok None -> Ok None
    | Error detail -> corrupt detail
    | Ok (Some (raw, at)) -> (
        match decode ~at raw with Ok e -> Ok (Some e) | Error detail -> corrupt detail)

  let remove ~dir ~id = try Sys.remove (path ~dir ~id) with Sys_error _ -> ()

  (* every parseable req-NNNNNN.req, ascending by id; unreadable or
     corrupt files become errors, never silent drops — a recovery that
     quietly loses an accepted request would defeat the spool's point *)
  let list ~dir =
    if not (Sys.file_exists dir) then ([], [])
    else
      let ids =
        Array.to_list (Sys.readdir dir)
        |> List.filter_map (fun f ->
               if Filename.check_suffix f ".req" then
                 Scanf.sscanf_opt f "req-%d.req" (fun id -> id)
               else None)
        |> List.sort_uniq Int.compare
      in
      List.fold_left
        (fun (ok, errs) id ->
          match load ~dir ~id with
          | Ok (Some e) -> (e :: ok, errs)
          | Ok None -> (ok, errs)
          | Error e -> (ok, e :: errs))
        ([], []) ids
      |> fun (ok, errs) -> (List.rev ok, List.rev errs)
end

let journal ~dir line =
  try
    ensure_dir dir;
    let oc =
      open_out_gen [ Open_append; Open_creat ] 0o644 (journal_path ~dir)
    in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> Printf.fprintf oc "%.3f %s\n" (Unix.gettimeofday ()) line)
  with Sys_error _ | Sim_error.Error _ -> ()
