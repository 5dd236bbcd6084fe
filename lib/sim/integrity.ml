(* See integrity.mli. *)

type stats = {
  mutable sweeps : int;
  mutable sentinel_checks : int;
  mutable crc_trips : int;
  mutable guard_trips : int;
  mutable sentinel_trips : int;
  mutable repairs : int;
  mutable heals : int;
  mutable quarantines : int;
  mutable last_detect_sym : int;
}

let stats_create () =
  {
    sweeps = 0;
    sentinel_checks = 0;
    crc_trips = 0;
    guard_trips = 0;
    sentinel_trips = 0;
    repairs = 0;
    heals = 0;
    quarantines = 0;
    last_detect_sym = -1;
  }

(* Counter bumps can come from several worker domains at once (one per
   array); a single lock is plenty at sweep/sentinel cadence. *)
let stats_lock = Mutex.create ()

let locked f =
  Mutex.lock stats_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock stats_lock) f

let detections s = locked (fun () -> s.crc_trips + s.guard_trips + s.sentinel_trips)
let note_heal s = locked (fun () -> s.heals <- s.heals + 1)
let note_quarantine s = locked (fun () -> s.quarantines <- s.quarantines + 1)

type config = {
  sweep_every : int;
  sentinel_every : int;
  sentinel_window : int;
  stats : stats;
}

(* The sentinel replays its window through the reference kernel, which
   runs an order of magnitude behind the production kernels, so the
   window/cadence ratio IS the steady-state overhead.  64/64Ki keeps it
   comfortably inside the <=3%% budget; soak runs wanting wall-to-wall
   coverage use [continuous_config] instead. *)
let default_config () =
  {
    sweep_every = 1 lsl 16;
    sentinel_every = 1 lsl 16;
    sentinel_window = 64;
    stats = stats_create ();
  }

(* Soak mode: sweeps every chunk and wall-to-wall sentinel windows, so
   there is no symbol a flip can hide behind.  The window doubles as the
   cadence, which keeps exactly one shadow replay in flight. *)
let continuous_config () =
  {
    sweep_every = 1;
    sentinel_every = 256;
    sentinel_window = 256;
    stats = stats_create ();
  }

(* ---- seals ---- *)

(* One sealed region: the live reference the kernel reads, the write
   that puts a pristine private copy back over it, and the checksum of
   the pristine copy. *)
type sealed_region = {
  sr_name : string;
  sr_live : Engine.region;
  sr_restore : unit -> unit;
  sr_sum : int;
}

type seal = sealed_region list

(* Word-wise checksum: every word (every byte, for byte regions) goes
   through [Engine.digest_mix], which for a fixed word is a bijection of
   the running value — so two images that differ in any single word
   always sum differently.  It reads the live table in place: no image
   is serialised. *)
let checksum = function
  | Engine.R_words (_, a) ->
      let acc = ref (Array.length a) in
      for i = 0 to Array.length a - 1 do
        acc := Engine.digest_mix !acc (Array.unsafe_get a i)
      done;
      !acc
  | Engine.R_bytes (_, b) ->
      let acc = ref (Bytes.length b) in
      for i = 0 to Bytes.length b - 1 do
        acc := Engine.digest_mix !acc (Char.code (Bytes.unsafe_get b i))
      done;
      !acc
  | Engine.R_vecs (_, vs) ->
      let acc = ref (Array.length vs) in
      Array.iter
        (fun v ->
          for i = 0 to Bitvec.words_for (Bitvec.width v) - 1 do
            acc := Engine.digest_mix !acc (Bitvec.get_word v i)
          done)
        vs;
      !acc

(* Copy the region now; the closure writes the copy back. *)
let restorer = function
  | Engine.R_words (_, live) ->
      let pristine = Array.copy live in
      fun () -> Array.blit pristine 0 live 0 (Array.length pristine)
  | Engine.R_bytes (_, live) ->
      let pristine = Bytes.copy live in
      fun () -> Bytes.blit pristine 0 live 0 (Bytes.length pristine)
  | Engine.R_vecs (_, live) ->
      let pristine = Array.map Bitvec.copy live in
      fun () -> Array.iteri (fun i v -> Bitvec.blit ~src:pristine.(i) ~dst:v) live

(* The engines' own regions, then their array's tables — shared by all
   engines of one array, so taken once per owner. *)
let seal engines =
  let array_tables =
    Array.fold_left
      (fun acc e ->
        List.fold_left
          (fun acc r -> if List.memq r acc then acc else r :: acc)
          acc (Engine.array_regions e))
      [] engines
  in
  Array.to_list engines
  |> List.concat_map Engine.immutable_regions
  |> (fun regions -> regions @ List.rev array_tables)
  |> List.map (fun r ->
         {
           sr_name = Engine.region_name r;
           sr_live = r;
           sr_restore = restorer r;
           sr_sum = checksum r;
         })

let violation cfg ~array_id ~sym ~region ~detail =
  locked (fun () -> cfg.stats.last_detect_sym <- sym);
  raise (Sim_error.Error (Sim_error.Integrity_violation { array_id; region; detail }))

let check cfg ~array_id ~sym (s : seal) engines =
  Array.iter
    (fun e ->
      if not (Engine.guards_ok e) then begin
        locked (fun () -> cfg.stats.guard_trips <- cfg.stats.guard_trips + 1);
        violation cfg ~array_id ~sym ~region:"arena-guard"
          ~detail:"a run-state arena guard word lost its canary"
      end)
    engines;
  List.iter
    (fun sr ->
      if checksum sr.sr_live <> sr.sr_sum then begin
        locked (fun () -> cfg.stats.crc_trips <- cfg.stats.crc_trips + 1);
        violation cfg ~array_id ~sym ~region:sr.sr_name
          ~detail:"checksum no longer matches the run-start seal"
      end)
    s;
  locked (fun () -> cfg.stats.sweeps <- cfg.stats.sweeps + 1)

let repair cfg (s : seal) engines =
  Array.iter
    (fun e ->
      if not (Engine.guards_ok e) then begin
        Engine.rearm_guards e;
        locked (fun () -> cfg.stats.repairs <- cfg.stats.repairs + 1)
      end)
    engines;
  List.iter
    (fun sr ->
      let dirty = checksum sr.sr_live <> sr.sr_sum in
      sr.sr_restore ();
      if dirty then locked (fun () -> cfg.stats.repairs <- cfg.stats.repairs + 1))
    s;
  Array.iter Engine.invalidate engines

(* ---- shadow-replay sentinel ---- *)

let sentinel_replay cfg ~array_id ~sym ~shadow ~live ~pre ~chunk ~start ~len ~live_digest =
  Exec.restore shadow pre;
  let sh = Exec.engines shadow in
  let replay_digest = ref 0 in
  for i = start to start + len - 1 do
    let c = String.unsafe_get chunk i in
    Array.iter (fun e -> Engine.step_shadow e c) sh;
    replay_digest :=
      Array.fold_left (fun acc e -> Engine.state_digest e acc) !replay_digest sh
  done;
  locked (fun () -> cfg.stats.sentinel_checks <- cfg.stats.sentinel_checks + 1);
  let le = Exec.engines live in
  Array.iteri
    (fun i e ->
      if not (Engine.state_equal e sh.(i)) then begin
        locked (fun () -> cfg.stats.sentinel_trips <- cfg.stats.sentinel_trips + 1);
        violation cfg ~array_id ~sym ~region:"run-state"
          ~detail:
            (Printf.sprintf
               "engine %d diverged from the reference-kernel shadow replay over a %d-symbol \
                window"
               i len)
      end)
    le;
  (* The end-state comparison above misses TRANSIENT corruption — a
     flipped bounded-repetition bit expires within a few symbols, so
     live state has reconverged by the window end, but the match events
     and activity statistics its intermediate states produced are
     already folded into the report.  The per-symbol state digests see
     every intermediate state on both sides. *)
  if !replay_digest <> live_digest then begin
    locked (fun () -> cfg.stats.sentinel_trips <- cfg.stats.sentinel_trips + 1);
    violation cfg ~array_id ~sym ~region:"run-state"
      ~detail:
        (Printf.sprintf
           "per-symbol state digest diverged from the shadow replay over a %d-symbol window"
           len)
  end
