(* See admission.mli. *)

type config = {
  capacity : int;
  max_input : int;
  group : int;
  jobs : int;
  retries : int;
  backoff_s : float;
  quarantine_after : int;
  state_dir : string option;
  integrity : Integrity.config option;
}

let default_config =
  {
    capacity = 64;
    max_input = 64 * 1024 * 1024;
    group = 4;
    jobs = 1;
    retries = 2;
    backoff_s = 0.05;
    quarantine_after = 3;
    state_dir = None;
    integrity = None;
  }

type reject =
  | Queue_full of { depth : int; capacity : int; retry_after_s : float }
  | Quarantined_name of { name : string; faults : int }
  | Too_large of { bytes : int; limit : int }

let reject_message = function
  | Queue_full { depth; capacity; retry_after_s } ->
      Printf.sprintf "overloaded: %d request(s) queued (capacity %d); retry in %.3fs" depth
        capacity retry_after_s
  | Quarantined_name { name; faults } ->
      Printf.sprintf "stream %S quarantined after %d consecutive fault(s)" name faults
  | Too_large { bytes; limit } ->
      Printf.sprintf "input of %d bytes exceeds the per-request limit of %d" bytes limit

type outcome = {
  o_id : int;
  o_name : string;
  o_class : Wire.class_;
  o_report : Runner.report option;
  o_text : string;
  o_error : Sim_error.t option;
  o_recovered : bool;
  o_queued_s : float;
  o_latency_s : float;
}

type pending_req = {
  p_id : int;
  p_name : string;
  p_class : Wire.class_;
  p_deadline_s : float option;
  p_input : string;
  p_enqueued_at : float;
  p_recovered : bool;
}

type t = {
  cfg : config;
  arch : Arch.t;
  prepared : Runner.prepared;  (* built, and sealed when armed, once per daemon *)
  queue : pending_req Queue.t;
  mutable next_id : int;
  faults : (string, int) Hashtbl.t;  (* consecutive faults per stream name *)
  mutable accepted : int;
  mutable shed : int;
  mutable completed : int;
  mutable failed : int;
  mutable degraded_runs : int;
  mutable spool_replays : int;  (* spooled requests replayed after a crash *)
  mutable quarantine_resets : int;  (* fault counters a clean run took back to 0 *)
  lat_interactive : Sink.Latency.t;
  lat_bulk : Sink.Latency.t;
  lat_queue_wait : Sink.Latency.t;
  mutable last_service_s : float;  (* recent per-request service time estimate *)
}

(* The placement is prepared here, once: every request, retry and spool
   replay clones its executors, and an armed daemon checks every request
   against the seals taken now. *)
let create cfg arch ~params placement =
  ignore params;
  {
    cfg;
    arch;
    prepared = Runner.build ~sealed:(Option.is_some cfg.integrity) placement;
    queue = Queue.create ();
    next_id = 1;
    faults = Hashtbl.create 16;
    accepted = 0;
    shed = 0;
    completed = 0;
    failed = 0;
    degraded_runs = 0;
    spool_replays = 0;
    quarantine_resets = 0;
    lat_interactive = Sink.Latency.create ();
    lat_bulk = Sink.Latency.create ();
    lat_queue_wait = Sink.Latency.create ();
    last_service_s = 0.01;
  }

let journal t line =
  match t.cfg.state_dir with None -> () | Some dir -> Checkpoint.journal ~dir line

let pending t = Queue.length t.queue
let shed_count t = t.shed
let completed_count t = t.completed

let quarantined t =
  Hashtbl.fold
    (fun name n acc -> if n >= t.cfg.quarantine_after then (name, n) :: acc else acc)
    t.faults []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Admission *)

let submit ?deadline_s ?enqueued_at t ~name ~class_ ~input =
  let now = Unix.gettimeofday () in
  let enqueued_at = Option.value enqueued_at ~default:now in
  let bytes = String.length input in
  if bytes > t.cfg.max_input then begin
    t.shed <- t.shed + 1;
    journal t (Printf.sprintf "shed too-large name=%s bytes=%d" name bytes);
    Error (Too_large { bytes; limit = t.cfg.max_input })
  end
  else
    match Hashtbl.find_opt t.faults name with
    | Some n when n >= t.cfg.quarantine_after ->
        t.shed <- t.shed + 1;
        journal t (Printf.sprintf "shed quarantined name=%s faults=%d" name n);
        Error (Quarantined_name { name; faults = n })
    | _ ->
        let depth = Queue.length t.queue in
        if depth >= t.cfg.capacity then begin
          t.shed <- t.shed + 1;
          journal t (Printf.sprintf "shed overloaded name=%s depth=%d" name depth);
          (* the backlog drains one service time per slot: a client that
             waits that long has a real chance of admission *)
          Error
            (Queue_full { depth; capacity = t.cfg.capacity; retry_after_s = t.last_service_s })
        end
        else begin
          let id = t.next_id in
          t.next_id <- id + 1;
          (* spool before enqueueing: from this moment a crash cannot
             lose the request *)
          (match t.cfg.state_dir with
          | None -> ()
          | Some dir ->
              Checkpoint.Spool.save ~dir
                {
                  Checkpoint.Spool.sp_id = id;
                  sp_name = name;
                  sp_class = Wire.class_name class_;
                  sp_deadline_s = deadline_s;
                  sp_input = input;
                });
          Queue.push
            {
              p_id = id;
              p_name = name;
              p_class = class_;
              p_deadline_s = deadline_s;
              p_input = input;
              p_enqueued_at = enqueued_at;
              p_recovered = false;
            }
            t.queue;
          t.accepted <- t.accepted + 1;
          journal t (Printf.sprintf "accept id=%d name=%s bytes=%d" id name bytes);
          Ok id
        end

(* ------------------------------------------------------------------ *)
(* Execution *)

let to_sim_error = function
  | Sim_error.Error e -> e
  | e -> Sim_error.Stream_failed { detail = Printexc.to_string e }

(* Request-level supervision for deadline-free requests only: re-run a
   whole failed request with exponential backoff.  Deadline-carrying
   requests never come through here — their retry budget lives inside
   Scheduler.supervised_for, where the remaining deadline bounds every
   attempt and sleep; a second retry layer on top would multiply the
   client's end-to-end deadline by the retry count. *)
let with_retries t k =
  let rec go attempt =
    match k () with
    | r -> Ok r
    | exception e ->
        if attempt <= t.cfg.retries then begin
          if t.cfg.backoff_s > 0. then
            Unix.sleepf (t.cfg.backoff_s *. float_of_int (1 lsl (attempt - 1)));
          go (attempt + 1)
        end
        else Error (to_sim_error e)
  in
  go 1

(* Fault bookkeeping: a failed execution or a degraded report counts
   against the stream name; a clean run clears it.  Queue-expiry does
   not count — overload is the server's condition, not the stream's. *)
let book_outcome t (o : outcome) =
  t.completed <- t.completed + 1;
  let hist =
    match o.o_class with
    | Wire.Interactive -> t.lat_interactive
    | Wire.Bulk -> t.lat_bulk
  in
  Sink.Latency.observe hist o.o_latency_s;
  Sink.Latency.observe t.lat_queue_wait o.o_queued_s;
  let faulted =
    match (o.o_error, o.o_report) with
    | Some (Sim_error.Deadline_expired _), _ -> false
    | Some _, _ -> true
    | None, Some r -> r.Runner.degraded <> []
    | None, None -> false
  in
  (match o.o_error with Some _ -> t.failed <- t.failed + 1 | None -> ());
  (match o.o_report with
  | Some r when r.Runner.degraded <> [] -> t.degraded_runs <- t.degraded_runs + 1
  | _ -> ());
  if faulted then begin
    let n = 1 + Option.value (Hashtbl.find_opt t.faults o.o_name) ~default:0 in
    Hashtbl.replace t.faults o.o_name n;
    journal t (Printf.sprintf "fault id=%d name=%s count=%d" o.o_id o.o_name n);
    if n = t.cfg.quarantine_after then
      journal t (Printf.sprintf "quarantine name=%s faults=%d" o.o_name n)
  end
  else if o.o_error = None then begin
    (match Hashtbl.find_opt t.faults o.o_name with
    | Some n when n > 0 ->
        t.quarantine_resets <- t.quarantine_resets + 1;
        journal t (Printf.sprintf "quarantine-reset name=%s was=%d" o.o_name n)
    | _ -> ());
    Hashtbl.replace t.faults o.o_name 0
  end;
  journal t
    (Printf.sprintf "finish id=%d name=%s status=%s latency_ms=%.3f" o.o_id o.o_name
       (match o.o_error with
       | Some e -> Sim_error.label e
       | None -> (
           match o.o_report with
           | Some r when r.Runner.degraded <> [] -> "degraded"
           | _ -> "ok"))
       (1e3 *. o.o_latency_s));
  (* The spool covers an accepted request until its result is durable,
     not merely computed: persist the report file for EVERY spooled
     outcome before removing the entry, so a crash between execution
     and the reply reaching the client cannot lose the result — the
     live reply then duplicates what the state dir already holds.
     The durable write (temp + fsync + rename + directory fsync) keeps
     a crash mid-write from leaving a torn report beside a consumed
     spool entry, and a power cut from losing a rename that the spool
     removal below already assumed happened.  A report that cannot be
     written keeps its entry, so the next [recover] replays the
     request. *)
  (match t.cfg.state_dir with
  | None -> ()
  | Some dir ->
      let path = Checkpoint.Spool.report_path ~dir ~id:o.o_id in
      let text =
        if o.o_text <> "" then o.o_text
        else
          Printf.sprintf "failed: %s\n"
            (match o.o_error with Some e -> Sim_error.message e | None -> "unknown")
      in
      match Artifact.write ~path text with
      | () -> Checkpoint.Spool.remove ~dir ~id:o.o_id
      | exception Sys_error msg ->
          journal t
            (Printf.sprintf "report-write-failed id=%d name=%s: %s" o.o_id o.o_name msg))

let outcome_of_report req ~started_at ~finished_at (report : Runner.report) =
  {
    o_id = req.p_id;
    o_name = req.p_name;
    o_class = req.p_class;
    o_report = Some report;
    o_text = Runner.render_report report;
    o_error = None;
    o_recovered = req.p_recovered;
    o_queued_s = Float.max 0. (started_at -. req.p_enqueued_at);
    o_latency_s = Float.max 0. (finished_at -. req.p_enqueued_at);
  }

let outcome_of_error req ~started_at ~finished_at error =
  {
    o_id = req.p_id;
    o_name = req.p_name;
    o_class = req.p_class;
    o_report = None;
    o_text = "";
    o_error = Some error;
    o_recovered = req.p_recovered;
    o_queued_s = Float.max 0. (started_at -. req.p_enqueued_at);
    o_latency_s = Float.max 0. (finished_at -. req.p_enqueued_at);
  }

(* One request, run alone on its own start and finish stamps.  A
   deadline-carrying request's remaining deadline (whole deadline minus
   queue wait) becomes the supervisor's whole budget, so a timed-out
   request degrades into a partial report with quarantined arrays
   instead of failing outright; a deadline-free one runs under the
   request-level retries. *)
let run_solo t req =
  let started_at = Unix.gettimeofday () in
  match req.p_deadline_s with
  | Some d when d -. (started_at -. req.p_enqueued_at) <= 0. ->
      (* the whole deadline died in the queue: typed expiry, no execution *)
      outcome_of_error req ~started_at ~finished_at:started_at
        (Sim_error.Deadline_expired
           { waited_s = started_at -. req.p_enqueued_at; deadline_s = d })
  | deadline ->
      let policy =
        Option.map
          (fun d ->
            {
              Scheduler.deadline_s = Some (d -. (started_at -. req.p_enqueued_at));
              retries = t.cfg.retries;
              backoff_s = t.cfg.backoff_s;
            })
          deadline
      in
      let heals_before =
        match t.cfg.integrity with
        | Some c -> c.Integrity.stats.Integrity.heals
        | None -> 0
      in
      let run () =
        let stream = Input_stream.of_string req.p_input in
        Runner.run_prepared ~jobs:t.cfg.jobs ?policy ?integrity:t.cfg.integrity t.arch t.prepared
          ~stream
      in
      let result =
        match policy with
        | Some _ ->
            (* single supervised pass: the scheduler owns the remaining
               deadline as the whole retry budget — retrying here too
               would run the same deadline several times over *)
            (match run () with r -> Ok r | exception e -> Error (to_sim_error e))
        | None -> with_retries t run
      in
      let finished_at = Unix.gettimeofday () in
      (* a run the integrity layer rolled back and re-executed carries
         the recovered marker: the report is clean (byte-identical to an
         uncorrupted run) but the client should know it was healed *)
      let healed =
        match t.cfg.integrity with
        | Some c -> c.Integrity.stats.Integrity.heals > heals_before
        | None -> false
      in
      (match result with
      | Ok report ->
          let o = outcome_of_report req ~started_at ~finished_at report in
          if healed && report.Runner.degraded = [] then { o with o_recovered = true } else o
      | Error e -> outcome_of_error req ~started_at ~finished_at e)

let run_pending ?max t =
  let n = match max with None -> Queue.length t.queue | Some m -> min m (Queue.length t.queue) in
  let t0 = Unix.gettimeofday () in
  (* oldest first, one at a time; booking each outcome before the next
     request runs makes its report durable as early as it can be *)
  let outcomes =
    List.init n (fun _ ->
        let o = run_solo t (Queue.pop t.queue) in
        book_outcome t o;
        o)
  in
  if n > 0 then t.last_service_s <- Float.max 1e-4 ((Unix.gettimeofday () -. t0) /. float_of_int n);
  outcomes

(* ------------------------------------------------------------------ *)
(* Crash recovery *)

let recover t =
  match t.cfg.state_dir with
  | None -> []
  | Some dir ->
      let entries, errors = Checkpoint.Spool.list ~dir in
      List.iter
        (fun e -> journal t (Printf.sprintf "recover-skip corrupt: %s" (Sim_error.message e)))
        errors;
      if entries = [] then []
      else begin
        let now = Unix.gettimeofday () in
        t.spool_replays <- t.spool_replays + List.length entries;
        List.iter
          (fun (e : Checkpoint.Spool.entry) ->
            t.next_id <- max t.next_id (e.Checkpoint.Spool.sp_id + 1);
            journal t
              (Printf.sprintf "recover id=%d name=%s bytes=%d" e.Checkpoint.Spool.sp_id
                 e.Checkpoint.Spool.sp_name
                 (String.length e.Checkpoint.Spool.sp_input));
            Queue.push
              {
                p_id = e.Checkpoint.Spool.sp_id;
                p_name = e.Checkpoint.Spool.sp_name;
                p_class =
                  (match Wire.class_of_string e.Checkpoint.Spool.sp_class with
                  | Ok c -> c
                  | Error _ -> Wire.Bulk);
                (* a recovered request's original deadline is long gone;
                   replaying it without one yields the full report the
                   client was promised at admission *)
                p_deadline_s = None;
                p_input = e.Checkpoint.Spool.sp_input;
                p_enqueued_at = now;
                p_recovered = true;
              }
              t.queue)
          entries;
        run_pending t
      end

(* ------------------------------------------------------------------ *)
(* Stats *)

let stats_json t =
  let quarantine_json =
    String.concat ", "
      (List.map
         (fun (name, faults) -> Printf.sprintf {|{"name": %S, "faults": %d}|} name faults)
         (quarantined t))
  in
  (* additive keys only: older clients that pick fields by name keep
     working against newer daemons, and vice versa *)
  let integrity_json =
    match t.cfg.integrity with
    | None -> "null"
    | Some c ->
        let s = c.Integrity.stats in
        Printf.sprintf
          {|{"sweeps": %d, "sentinel_checks": %d, "detections": %d, "repairs": %d, "heals": %d, "quarantines": %d}|}
          s.Integrity.sweeps s.Integrity.sentinel_checks (Integrity.detections s)
          s.Integrity.repairs s.Integrity.heals s.Integrity.quarantines
  in
  Printf.sprintf
    {|{"queue_depth": %d, "capacity": %d, "accepted": %d, "completed": %d, "shed": %d, "failed": %d, "degraded": %d, "spool_replays": %d, "quarantine_resets": %d, "quarantined": [%s], "integrity": %s, "latency": {"interactive": %s, "bulk": %s}, "queue_wait": %s}|}
    (Queue.length t.queue) t.cfg.capacity t.accepted t.completed t.shed t.failed
    t.degraded_runs t.spool_replays t.quarantine_resets quarantine_json integrity_json
    (Sink.Latency.to_json t.lat_interactive)
    (Sink.Latency.to_json t.lat_bulk)
    (Sink.Latency.to_json t.lat_queue_wait)
