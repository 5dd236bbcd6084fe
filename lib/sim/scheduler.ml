(* See scheduler.mli. *)

(* Hardware parallelism actually available to this process (respects CPU
   affinity via [Domain.recommended_domain_count]).  Spawning more
   domains than cores is always a pessimization for the CPU-bound
   kernels here — the original jobs-4-slower-than-jobs-1 regression was
   exactly that, plus a fresh [Domain.spawn] per call — so every
   parallel entry point clamps its effective fan-out to this.  The env
   override exists for differential testing: CI and the test suite force
   a wider pool than the sandbox's core count to exercise the worker
   protocol itself.  Read once, at module start: [parallel_for] asks on
   every chunk, also from worker domains (a [Lazy.t] must not be forced
   from two domains at once). *)
let domains =
  let base = Int.max 1 (Int.min 8 (Domain.recommended_domain_count ())) in
  match Sys.getenv_opt "RAP_SCHED_DOMAINS" with
  | Some s -> ( match int_of_string_opt s with Some v when v >= 1 -> Int.min 8 v | _ -> base)
  | None -> base

let available_parallelism () = domains

let default_jobs () = available_parallelism ()

(* ------------------------------------------------------------------ *)
(* Persistent worker pool.

   [parallel_for] used to spawn (jobs - 1) fresh domains per call and
   join them before returning; at a few hundred microseconds per spawn
   that dominated small chunks (BENCH_sim.json showed Snort jobs-4 wall
   17% above jobs-1).  The pool spawns workers once, parks them on a
   condition variable, and hands each [parallel_for] call to them as one
   job: a shared atomic index counter (dynamic balancing, same as
   before), a fail-fast cancellation flag, and a first-exception slot.

   Exactly one job runs at a time ([pool_busy]); a nested or concurrent
   call — including one made from inside a worker — degrades to an
   inline sequential loop, which is both deadlock-free and the right
   cost model (the cores are already taken). *)

type job = {
  j_n : int;
  j_body : int -> unit;
  j_next : int Atomic.t;
  j_cancelled : bool Atomic.t;
  j_exn : (exn * Printexc.raw_backtrace) option Atomic.t;
  mutable j_slots : int;  (* worker seats left; guarded by [pool_mutex] *)
}

let pool_mutex = Mutex.create ()
let pool_work = Condition.create ()  (* a new job was published *)
let pool_idle = Condition.create ()  (* a worker left the current job *)
let pool_job : job option ref = ref None
let pool_generation = ref 0
let pool_in_flight = ref 0
let pool_busy = ref false
let pool_shutdown = ref false
let pool_spawned = ref 0
let pool_domains : unit Domain.t list ref = ref []
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Pull indices until the job is exhausted or cancelled.  Runs outside
   the pool mutex; shared by workers and the submitting caller. *)
let run_job j =
  let rec loop () =
    if not (Atomic.get j.j_cancelled) then begin
      let i = Atomic.fetch_and_add j.j_next 1 in
      if i < j.j_n then begin
        (try j.j_body i
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set j.j_exn None (Some (e, bt)));
           Atomic.set j.j_cancelled true);
        loop ()
      end
    end
  in
  loop ()

let worker_main () =
  Domain.DLS.set in_worker true;
  Mutex.lock pool_mutex;
  let seen = ref !pool_generation in
  let rec wait () =
    if !pool_shutdown then Mutex.unlock pool_mutex
    else if !pool_generation = !seen then begin
      Condition.wait pool_work pool_mutex;
      wait ()
    end
    else begin
      seen := !pool_generation;
      (match !pool_job with
      | Some j when j.j_slots > 0 ->
          (* take a seat under the mutex: the submitter clears the job and
             waits for [pool_in_flight] to drain, so a worker is either
             counted here before the submitter can declare the job done,
             or it sees the cleared job and just re-waits *)
          j.j_slots <- j.j_slots - 1;
          incr pool_in_flight;
          Mutex.unlock pool_mutex;
          run_job j;
          Mutex.lock pool_mutex;
          decr pool_in_flight;
          if !pool_in_flight = 0 then Condition.broadcast pool_idle
      | Some _ | None -> ());
      wait ()
    end
  in
  wait ()

(* Workers park on the condition variable between jobs, so they must be
   told to exit or a normal process exit would hang on live domains. *)
let shutdown_registered = ref false

let shutdown_pool () =
  Mutex.lock pool_mutex;
  pool_shutdown := true;
  Condition.broadcast pool_work;
  Mutex.unlock pool_mutex;
  List.iter Domain.join !pool_domains;
  pool_domains := []

(* Called with [pool_mutex] held. *)
let ensure_workers needed =
  if not !shutdown_registered then begin
    shutdown_registered := true;
    at_exit shutdown_pool
  end;
  while !pool_spawned < needed && not !pool_shutdown do
    incr pool_spawned;
    pool_domains := Domain.spawn worker_main :: !pool_domains
  done

(* Below this much estimated total work (in caller units, typically
   input symbols), waking the pool costs more than it saves and the call
   runs inline.  Callers that cannot estimate simply omit the hint. *)
let seq_work_threshold = 2048

let parallel_for ?work_per_index ~jobs n f =
  let jobs = Int.min (Int.min jobs n) (available_parallelism ()) in
  let tiny =
    match work_per_index with Some w -> w * n < seq_work_threshold | None -> false
  in
  if jobs <= 1 || n <= 1 || tiny || Domain.DLS.get in_worker then
    for i = 0 to n - 1 do
      f i
    done
  else begin
    let j =
      {
        j_n = n;
        j_body = f;
        j_next = Atomic.make 0;
        j_cancelled = Atomic.make false;
        j_exn = Atomic.make None;
        j_slots = jobs - 1;
      }
    in
    Mutex.lock pool_mutex;
    if !pool_busy || !pool_shutdown then begin
      (* another job owns the pool (a call nested in the submitter's own
         share of a job, or a concurrent caller): the cores are busy, run
         inline *)
      Mutex.unlock pool_mutex;
      for i = 0 to n - 1 do
        f i
      done
    end
    else begin
      pool_busy := true;
      ensure_workers (jobs - 1);
      pool_job := Some j;
      incr pool_generation;
      Condition.broadcast pool_work;
      Mutex.unlock pool_mutex;
      run_job j;
      Mutex.lock pool_mutex;
      pool_job := None;
      j.j_slots <- 0;
      while !pool_in_flight > 0 do
        Condition.wait pool_idle pool_mutex
      done;
      pool_busy := false;
      Mutex.unlock pool_mutex;
      match Atomic.get j.j_exn with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

(* ------------------------------------------------------------------ *)
(* Supervision: deadlines, bounded retry with backoff, quarantine.     *)

type deadline = { d_start : float; d_limit : float option }

exception Deadline_exceeded

let no_deadline = { d_start = 0.; d_limit = None }

let check_deadline d =
  match d.d_limit with
  | None -> ()
  | Some limit -> if Unix.gettimeofday () -. d.d_start > limit then raise Deadline_exceeded

type policy = { deadline_s : float option; retries : int; backoff_s : float }

let default_policy = { deadline_s = None; retries = 2; backoff_s = 0.05 }

let supervised_for ?work_per_index ~jobs ~policy n f =
  let outcomes = Array.make n None in
  let supervise i =
    (* The deadline is the item's WHOLE supervision budget: every
       attempt, and every backoff sleep between attempts, fits inside
       the one deadline_s.  Retries shrink into what remains rather than
       multiplying the bound — a caller that propagates an end-to-end
       deadline down here gets work back near that deadline, not
       (retries + 1) times it.  Backoff sleeps count against the same
       budget: without the cap, a deadline_s=1 retries=3 backoff=5
       policy would sleep 5+10+20 s between attempts — the supervisor
       itself blowing the deadline it is there to enforce. *)
    let sup_start = Unix.gettimeofday () in
    let remaining () =
      match policy.deadline_s with
      | None -> infinity
      | Some d -> d -. (Unix.gettimeofday () -. sup_start)
    in
    let fail attempt e =
      match e with
      | Deadline_exceeded ->
          Some
            (Sim_error.Array_timeout
               {
                 array_id = i;
                 attempts = attempt;
                 deadline_s = Option.value policy.deadline_s ~default:0.;
               })
      | e ->
          Some
            (Sim_error.Array_crashed
               { array_id = i; attempts = attempt; detail = Printexc.to_string e })
    in
    let rec go attempt =
      (* each attempt gets what is left of the item budget, not a fresh
         full deadline *)
      let now = Unix.gettimeofday () in
      let deadline =
        { d_start = now; d_limit = Option.map (fun d -> d -. (now -. sup_start)) policy.deadline_s }
      in
      match f ~deadline ~attempt i with
      | () -> None
      | exception e ->
          if attempt <= policy.retries && remaining () > 0. then begin
            (* exponential backoff: transient contention (a loaded machine,
               a slow filesystem) deserves breathing room before the rerun
               — but never more breathing room than the deadline budget
               still allows *)
            if policy.backoff_s > 0. then
              Unix.sleepf
                (Float.min
                   (policy.backoff_s *. float_of_int (1 lsl (attempt - 1)))
                   (remaining ()));
            (* the sleep itself may have drained the budget: re-attempting
               then would start work it has no time to finish *)
            if remaining () > 0. then go (attempt + 1) else fail attempt e
          end
          else fail attempt e
    in
    outcomes.(i) <- go 1
  in
  parallel_for ?work_per_index ~jobs n supervise;
  outcomes
