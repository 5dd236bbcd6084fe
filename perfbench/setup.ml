(* Cold set-up from regex sources to a runnable state, timed per step.
   No placement cache is used.  Set-up takes tens of milliseconds while
   the host's speed drifts over seconds, so the drivers take their
   samples spread over the whole run rather than back to back. *)

open Util

type sample = {
  compile_s : float;
  place_s : float;
  build_s : float;  (** [Exec.build] of every array. *)
  extra_s : float;  (** A further step that belongs to set-up on some workloads. *)
}

let once ?(extra = fun _ -> ()) arch ~params regexes =
  (* each sample starts from a collected heap, so that the garbage of
     whatever ran before does not land in its timing *)
  Gc.full_major ();
  let (units, _rejected), compile_s = time (fun () -> Runner.compile_for arch ~params regexes) in
  let placement, place_s = time (fun () -> Runner.place arch ~params units) in
  let _, build_s = time (fun () -> Array.map (Exec.build placement) placement.Mapper.arrays) in
  let (), extra_s = time (fun () -> extra placement) in
  (placement, { compile_s; place_s; build_s; extra_s })

let total s = s.compile_s +. s.place_s +. s.build_s +. s.extra_s

let layers samples =
  [
    ("compile.compile_for_s", median (List.map (fun s -> s.compile_s) samples));
    ("compile.place_s", median (List.map (fun s -> s.place_s) samples));
    ("exec.build_s", median (List.map (fun s -> s.build_s) samples));
  ]
