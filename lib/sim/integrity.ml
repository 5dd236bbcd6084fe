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
  max_repairs : int;
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
    max_repairs = 2;
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
    max_repairs = 2;
    stats = stats_create ();
  }

(* ---- seals ---- *)

(* One sealed region: the live reference the kernel reads, a pristine
   private copy for repair, and the CRC of the pristine image.  The
   image serialization is only used to feed CRC-32, so it just has to be
   deterministic and injective per region shape. *)
type pristine =
  | P_words of int array
  | P_bytes of Bytes.t
  | P_vecs of Bitvec.t array

type sealed_region = {
  sr_name : string;
  sr_live : Engine.region;
  sr_pristine : pristine;
  sr_crc : int;
}

type seal = sealed_region list

let image_words b a =
  Array.iter
    (fun w ->
      for i = 0 to 7 do
        Buffer.add_char b (Char.chr ((w lsr (8 * i)) land 0xFF))
      done)
    a

let image_of_region = function
  | Engine.R_words (_, a) ->
      let b = Buffer.create (8 * Array.length a) in
      image_words b a;
      Buffer.contents b
  | Engine.R_bytes (_, bytes) -> Bytes.to_string bytes
  | Engine.R_vecs (_, vs) ->
      let b = Buffer.create 256 in
      Array.iter
        (fun v ->
          Buffer.add_string b (string_of_int (Bitvec.width v));
          Buffer.add_char b ':';
          Buffer.add_bytes b (Bitvec.to_bytes v))
        vs;
      Buffer.contents b

let pristine_of_region = function
  | Engine.R_words (_, a) -> P_words (Array.copy a)
  | Engine.R_bytes (_, bytes) -> P_bytes (Bytes.copy bytes)
  | Engine.R_vecs (_, vs) -> P_vecs (Array.map Bitvec.copy vs)

let seal engines =
  Array.to_list engines
  |> List.concat_map (fun e ->
         List.map
           (fun r ->
             {
               sr_name = Engine.region_name r;
               sr_live = r;
               sr_pristine = pristine_of_region r;
               sr_crc = Artifact.crc32 (image_of_region r);
             })
           (Engine.immutable_regions e))

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
      if Artifact.crc32 (image_of_region sr.sr_live) <> sr.sr_crc then begin
        locked (fun () -> cfg.stats.crc_trips <- cfg.stats.crc_trips + 1);
        violation cfg ~array_id ~sym ~region:sr.sr_name
          ~detail:"CRC-32 no longer matches the run-start seal"
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
      let dirty = Artifact.crc32 (image_of_region sr.sr_live) <> sr.sr_crc in
      (match (sr.sr_live, sr.sr_pristine) with
      | Engine.R_words (_, live), P_words pristine ->
          Array.blit pristine 0 live 0 (Array.length pristine)
      | Engine.R_bytes (_, live), P_bytes pristine ->
          Bytes.blit pristine 0 live 0 (Bytes.length pristine)
      | Engine.R_vecs (_, live), P_vecs pristine ->
          Array.iteri (fun i v -> Bitvec.blit ~src:pristine.(i) ~dst:v) live
      | _ -> assert false);
      if dirty then locked (fun () -> cfg.stats.repairs <- cfg.stats.repairs + 1))
    s

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
