(* See bank_sim.mli. *)

type stats = {
  cycles : int;
  chars_delivered : int;
  throughput_gchs : float;
  stall_cycles_hidden : int;
  arbiter_active : bool;
  min_fifo_occupancy : int array;
}

let run ~clock_ghz ~chars ~stalls =
  let n_arrays = Array.length stalls in
  if n_arrays = 0 then invalid_arg "Bank_sim.run: no arrays";
  if n_arrays > Circuit.arrays_per_bank then invalid_arg "Bank_sim.run: too many arrays";
  Array.iter
    (fun s -> if Array.length s <> chars then invalid_arg "Bank_sim.run: trace length mismatch")
    stalls;
  let arbiter_active = Array.exists (fun s -> Array.exists (fun x -> x > 0) s) stalls in
  (* Per-array state: private FIFO occupancy, next char index, busy
     countdown (residual bit-vector-processing cycles). *)
  let fifo = Array.make n_arrays 0 in
  let next_char = Array.make n_arrays 0 in
  let busy = Array.make n_arrays 0 in
  let min_occ = Array.make n_arrays Buffers.array_input_entries in
  (* The bank buffer refills array FIFOs round-robin, one entry per cycle
     through the polling arbiter (or a broadcast when nothing stalls).
     DMA keeps the bank ping-pong buffer full, so the bank side never
     starves; the interesting dynamics are FIFO drain vs. refill. *)
  let delivered = Array.make n_arrays 0 in
  let hidden = ref 0 in
  let cycles = ref 0 in
  let rr = ref 0 in
  let done_ () = Array.for_all (fun d -> d >= chars) delivered in
  let guard = chars * (n_arrays + 2) * 64 in
  while (not (done_ ())) && !cycles < guard do
    incr cycles;
    (* refill: broadcast fills every FIFO in lockstep when no NBVA arrays
       exist; otherwise the arbiter serves one array per cycle *)
    if arbiter_active then begin
      let tried = ref 0 in
      let served = ref false in
      while (not !served) && !tried < n_arrays do
        let a = (!rr + !tried) mod n_arrays in
        let wanted = next_char.(a) + fifo.(a) in
        if fifo.(a) < Buffers.array_input_entries && wanted < chars then begin
          fifo.(a) <- fifo.(a) + 1;
          served := true;
          rr := (a + 1) mod n_arrays
        end;
        incr tried
      done
    end
    else
      for a = 0 to n_arrays - 1 do
        let wanted = next_char.(a) + fifo.(a) in
        if fifo.(a) < Buffers.array_input_entries && wanted < chars then fifo.(a) <- fifo.(a) + 1
      done;
    (* drain: each array consumes one char per cycle unless it is inside a
       bit-vector-processing phase *)
    for a = 0 to n_arrays - 1 do
      if busy.(a) > 0 then begin
        busy.(a) <- busy.(a) - 1;
        (* a stall cycle whose input was already buffered costs no bank
           bandwidth: it is (partially) hidden *)
        if fifo.(a) > 0 then incr hidden
      end
      else if fifo.(a) > 0 && delivered.(a) < chars then begin
        fifo.(a) <- fifo.(a) - 1;
        let c = next_char.(a) in
        next_char.(a) <- c + 1;
        delivered.(a) <- delivered.(a) + 1;
        if c < chars then busy.(a) <- stalls.(a).(c)
      end;
      if fifo.(a) < min_occ.(a) then min_occ.(a) <- fifo.(a)
    done
  done;
  {
    cycles = !cycles;
    chars_delivered = Array.fold_left ( + ) 0 delivered;
    throughput_gchs = float_of_int chars *. clock_ghz /. float_of_int (Int.max 1 !cycles);
    stall_cycles_hidden = !hidden;
    arbiter_active;
    min_fifo_occupancy = min_occ;
  }
