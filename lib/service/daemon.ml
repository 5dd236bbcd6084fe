(* See daemon.mli. *)

let src = Logs.Src.create "rap.daemon" ~doc:"match service daemon"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  socket_path : string;
  admission : Admission.config;
  write_budget : int;
  max_requests : int option;
}

(* One in-flight Open/Chunk/Finish conversation. *)
type open_state = {
  or_name : string;
  or_class : Wire.class_;
  or_deadline_s : float option;
  or_input : Buffer.t;
  mutable or_rejected : bool;  (* over-limit: swallow chunks until Finish *)
}

type conn = {
  fd : Unix.file_descr;
  reader : Wire.reader;
  out : Buffer.t;
  mutable out_off : int;  (* bytes of [out] already written *)
  mutable open_req : open_state option;
  mutable closing : bool;  (* close once [out] is flushed *)
  mutable dead : bool;  (* removed from the loop; drop its outcomes *)
}

let setup_fail detail = raise (Sim_error.Error (Sim_error.Stream_failed { detail }))

(* [dead] and the fd close travel together: a connection leaves the loop
   only through here, so the daemon can never leak an fd by marking a
   conn dead without closing it (and the dropped client sees EOF rather
   than hanging on a socket nobody will ever write again).  Idempotent:
   a dead conn's fd is already closed and must not be closed twice — the
   number may have been reused. *)
let close_conn conn =
  if not conn.dead then begin
    conn.dead <- true;
    try Unix.close conn.fd with Unix.Unix_error (_, _, _) -> ()
  end

let queue_reply cfg conn reply =
  Wire.add_frame conn.out (Wire.encode_reply reply);
  (* backpressure: a client that queues more than the write budget is a
     slow reader; cut it loose rather than hold its replies in memory *)
  if Buffer.length conn.out - conn.out_off > cfg.write_budget then begin
    Log.warn (fun m -> m "dropping slow client (%d bytes buffered)" (Buffer.length conn.out));
    close_conn conn
  end

let out_pending conn = Buffer.length conn.out - conn.out_off

let flush_conn conn =
  let pending = out_pending conn in
  if pending > 0 then begin
    match Unix.write_substring conn.fd (Buffer.contents conn.out) conn.out_off pending with
    | n ->
        conn.out_off <- conn.out_off + n;
        if conn.out_off = Buffer.length conn.out then begin
          Buffer.clear conn.out;
          conn.out_off <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> close_conn conn
  end

type state = {
  cfg : config;
  adm : Admission.t;
  mutable conns : conn list;
  waiting : (int, conn) Hashtbl.t;  (* request id -> connection to reply to *)
  mutable shutting_down : bool;
}

let handle_frame st conn payload =
  match Wire.decode_request payload with
  | Error detail ->
      queue_reply st.cfg conn (Wire.Rejected { reason = "undecodable request: " ^ detail });
      conn.closing <- true
  | Ok (Wire.Open { name; class_; deadline_s }) ->
      conn.open_req <-
        Some
          {
            or_name = name;
            or_class = class_;
            or_deadline_s = deadline_s;
            or_input = Buffer.create 4096;
            or_rejected = false;
          }
  | Ok (Wire.Chunk data) -> (
      match conn.open_req with
      | None ->
          queue_reply st.cfg conn (Wire.Rejected { reason = "Chunk before Open" });
          conn.closing <- true
      | Some o when o.or_rejected -> ()
      | Some o ->
          let total = Buffer.length o.or_input + String.length data in
          if total > st.cfg.admission.Admission.max_input then begin
            (* refuse while arriving: the full payload is never buffered *)
            o.or_rejected <- true;
            Buffer.clear o.or_input;
            queue_reply st.cfg conn
              (Wire.Rejected
                 {
                   reason =
                     Admission.reject_message
                       (Admission.Too_large
                          { bytes = total; limit = st.cfg.admission.Admission.max_input });
                 })
          end
          else Buffer.add_string o.or_input data)
  | Ok Wire.Finish -> (
      match conn.open_req with
      | None ->
          queue_reply st.cfg conn (Wire.Rejected { reason = "Finish before Open" });
          conn.closing <- true
      | Some o ->
          conn.open_req <- None;
          if not o.or_rejected then
            if st.shutting_down then
              queue_reply st.cfg conn Wire.Shutting_down
            else begin
              match
                Admission.submit ?deadline_s:o.or_deadline_s
                  ~enqueued_at:(Unix.gettimeofday ()) st.adm ~name:o.or_name
                  ~class_:o.or_class ~input:(Buffer.contents o.or_input)
              with
              | Ok id ->
                  Hashtbl.replace st.waiting id conn;
                  queue_reply st.cfg conn (Wire.Accepted { id })
              | Error (Admission.Queue_full { depth; capacity; retry_after_s }) ->
                  queue_reply st.cfg conn (Wire.Overloaded { depth; capacity; retry_after_s })
              | Error (Admission.Quarantined_name { name; faults }) ->
                  queue_reply st.cfg conn (Wire.Quarantined { name; faults })
              | Error (Admission.Too_large _ as r) ->
                  queue_reply st.cfg conn
                    (Wire.Rejected { reason = Admission.reject_message r })
            end)
  | Ok Wire.Stats ->
      queue_reply st.cfg conn (Wire.Stats_ok { json = Admission.stats_json st.adm })
  | Ok Wire.Ping -> queue_reply st.cfg conn Wire.Pong
  | Ok Wire.Shutdown ->
      Log.info (fun m -> m "shutdown requested");
      st.shutting_down <- true;
      queue_reply st.cfg conn Wire.Shutting_down

let read_conn st conn scratch =
  match Unix.read conn.fd scratch 0 (Bytes.length scratch) with
  | 0 -> close_conn conn
  | n ->
      Wire.reader_feed conn.reader scratch n;
      let rec drain () =
        if not (conn.dead || conn.closing) then
          match Wire.reader_next conn.reader with
          | Ok None -> ()
          | Ok (Some payload) ->
              handle_frame st conn payload;
              drain ()
          | Error detail ->
              (* framing is lost; no resynchronisation is possible *)
              queue_reply st.cfg conn (Wire.Rejected { reason = detail });
              conn.closing <- true
      in
      drain ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> close_conn conn

(* Queue [o]'s reply and try to write it at once.  The socket is
   non-blocking, so a slow reader costs nothing here: what does not fit
   goes out with the select loop's flushes. *)
let dispatch_outcome st (o : Admission.outcome) =
  match Hashtbl.find_opt st.waiting o.Admission.o_id with
  | None -> ()  (* client gone; recovered outcomes persist as report files *)
  | Some conn ->
      Hashtbl.remove st.waiting o.Admission.o_id;
      if not conn.dead then begin
        (match o.Admission.o_error with
        | Some error ->
            queue_reply st.cfg conn (Wire.Failed { id = o.Admission.o_id; error })
        | None ->
            let degraded =
              match o.Admission.o_report with
              | Some r -> List.length r.Runner.degraded
              | None -> 0
            in
            queue_reply st.cfg conn
              (Wire.Report
                 {
                   id = o.Admission.o_id;
                   degraded;
                   recovered = o.Admission.o_recovered;
                   text = o.Admission.o_text;
                 }));
        if not conn.dead then flush_conn conn
      end

(* See daemon.mli. *)
let run_round adm ~group reply =
  let k = ref 0 in
  while !k < group && Admission.pending adm > 0 do
    List.iter reply (Admission.run_pending ~max:1 adm);
    incr k
  done

let bind_socket path =
  (try if Sys.file_exists path then Sys.remove path with Sys_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 64
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
     setup_fail (Printf.sprintf "cannot bind %s: %s" path (Unix.error_message e)));
  Unix.set_nonblock fd;
  fd

let serve cfg arch ~params placement =
  let adm = Admission.create cfg.admission arch ~params placement in
  (* replay whatever a previous incarnation left spooled, before any
     live traffic: recovered reports land next to their spool entries *)
  let recovered = Admission.recover adm in
  if recovered <> [] then
    Log.info (fun m -> m "recovered %d spooled request(s)" (List.length recovered));
  if cfg.max_requests = Some 0 then ()
  else begin
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let term = ref false in
    let old_term =
      try Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> term := true))
      with Invalid_argument _ | Sys_error _ -> Sys.Signal_default
    in
    let listen_fd = bind_socket cfg.socket_path in
    let st = { cfg; adm; conns = []; waiting = Hashtbl.create 32; shutting_down = false } in
    let scratch = Bytes.create 65536 in
    Log.info (fun m -> m "listening on %s" cfg.socket_path);
    let served_enough () =
      match cfg.max_requests with
      | Some n -> Admission.completed_count adm >= n
      | None -> false
    in
    let finished () =
      (st.shutting_down || !term || served_enough ())
      && Admission.pending adm = 0
      && List.for_all (fun c -> c.dead || out_pending c = 0) st.conns
    in
    Fun.protect
      ~finally:(fun () ->
        List.iter close_conn st.conns;
        (try Unix.close listen_fd with Unix.Unix_error (_, _, _) -> ());
        (try Sys.remove cfg.socket_path with Sys_error _ -> ());
        ignore (Sys.signal Sys.sigterm old_term))
      (fun () ->
        while not (finished ()) do
          if !term then st.shutting_down <- true;
          st.conns <- List.filter (fun c -> not c.dead) st.conns;
          let rfds =
            (if st.shutting_down then [] else [ listen_fd ])
            @ List.filter_map (fun c -> if c.closing then None else Some c.fd) st.conns
          in
          let wfds = List.filter_map (fun c -> if out_pending c > 0 then Some c.fd else None) st.conns in
          let timeout = if Admission.pending adm > 0 then 0. else 0.2 in
          let readable, writable, _ =
            try Unix.select rfds wfds [] timeout
            with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
          in
          if List.mem listen_fd readable then begin
            let rec accept_all () =
              match Unix.accept listen_fd with
              | fd, _ ->
                  Unix.set_nonblock fd;
                  st.conns <-
                    {
                      fd;
                      (* frame limit: a single Chunk may legitimately carry a
                         max_input-sized payload, plus codec overhead *)
                      reader =
                        Wire.create_reader
                          ~max_frame:
                            (st.cfg.admission.Admission.max_input + Wire.frame_slop)
                          ();
                      out = Buffer.create 4096;
                      out_off = 0;
                      open_req = None;
                      closing = false;
                      dead = false;
                    }
                    :: st.conns;
                  accept_all ()
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
                -> ()
              | exception Unix.Unix_error (e, _, _) ->
                  (* a persistent accept failure (EMFILE, ...) leaves
                     listen_fd readable, so select would return
                     immediately every iteration: pause instead of
                     busy-spinning the daemon at 100% CPU *)
                  Log.warn (fun m -> m "accept: %s; backing off" (Unix.error_message e));
                  Unix.sleepf 0.05
            in
            accept_all ()
          end;
          List.iter
            (fun c -> if (not c.dead) && List.mem c.fd readable then read_conn st c scratch)
            st.conns;
          (* execute between select rounds, [group] requests at a time, so
             admission (and shedding) stays live while work drains; each
             reply goes out as its request is booked *)
          run_round adm ~group:st.cfg.admission.Admission.group (dispatch_outcome st);
          List.iter
            (fun c ->
              if (not c.dead) && (List.mem c.fd writable || out_pending c > 0) then flush_conn c)
            st.conns;
          List.iter
            (fun c -> if (not c.dead) && c.closing && out_pending c = 0 then close_conn c)
            st.conns
        done);
    Log.info (fun m ->
        m "served %d request(s), shed %d" (Admission.completed_count adm)
          (Admission.shed_count adm))
  end
