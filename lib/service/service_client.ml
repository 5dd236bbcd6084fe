(* See service_client.mli. *)

type outcome =
  | Done of { id : int; degraded : int; recovered : bool; text : string }
  | Failed of { id : int; error : Sim_error.t }
  | Shed of Wire.reply

let client_fail detail = raise (Sim_error.Error (Sim_error.Stream_failed { detail }))

let connect ?(wait_s = 0.) path =
  let deadline = Unix.gettimeofday () +. wait_s in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
        if Unix.gettimeofday () < deadline then begin
          Unix.sleepf 0.05;
          go ()
        end
        else
          client_fail
            (Printf.sprintf "cannot connect to %s: %s" path (Unix.error_message e))
  in
  go ()

let close fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let with_connection ?wait_s path f =
  let fd = connect ?wait_s path in
  Fun.protect ~finally:(fun () -> close fd) (fun () -> f fd)

let recv fd =
  match Wire.recv_reply fd with
  | Some r -> r
  | None -> client_fail "server closed the connection"

(* The input goes out in Chunk frames of this many bytes. *)
let chunk = 64 * 1024

let request ?(class_ = Wire.Bulk) ?deadline_s fd ~name ~input =
  Wire.send_request fd (Wire.Open { name; class_; deadline_s });
  let len = String.length input in
  let off = ref 0 in
  while !off < len do
    let n = min chunk (len - !off) in
    Wire.send_request fd (Wire.Chunk (String.sub input !off n));
    off := !off + n
  done;
  Wire.send_request fd Wire.Finish;
  match recv fd with
  | Wire.Accepted { id } ->
      (* skip interleaved non-terminal replies (e.g. a Stats_ok another
         caller on this fd requested) until our terminal one arrives *)
      let rec await () =
        match recv fd with
        | Wire.Report { id = rid; degraded; recovered; text } when rid = id ->
            Done { id; degraded; recovered; text }
        | Wire.Failed { id = rid; error } when rid = id -> Failed { id; error }
        | Wire.Shutting_down -> client_fail "server shut down before replying"
        | _ -> await ()
      in
      await ()
  | (Wire.Overloaded _ | Wire.Quarantined _ | Wire.Rejected _ | Wire.Shutting_down) as r ->
      Shed r
  | _ -> client_fail "unexpected reply to Finish"

let stats fd =
  Wire.send_request fd Wire.Stats;
  match recv fd with
  | Wire.Stats_ok { json } -> json
  | _ -> client_fail "unexpected reply to Stats"

let ping fd =
  Wire.send_request fd Wire.Ping;
  match recv fd with Wire.Pong -> true | _ -> false

let shutdown fd =
  Wire.send_request fd Wire.Shutdown;
  match recv fd with
  | Wire.Shutting_down -> ()
  | _ -> client_fail "unexpected reply to Shutdown"
