(* See sink.mli. *)

type t = {
  on_events : Exec.array_events -> unit;
  on_state : (sym:int -> Engine.t array -> unit) option;
  on_close : cycles:int -> unit;
}

type spec = { name : string; make : array_id:int -> chars:int -> t }

let events_only ?(on_close = fun ~cycles:_ -> ()) on_events =
  { on_events; on_state = None; on_close }

(* ------------------------------------------------------------------ *)
(* Stall tracer: one int per symbol per array.  Slots are indexed by
   array id, so parallel workers write disjoint cells. *)

let stall_trace ~num_arrays =
  let traces = Array.make num_arrays [||] in
  let spec =
    {
      name = "stall-trace";
      make =
        (fun ~array_id ~chars ->
          (* [chars] is a hint: 0 for unknown-length streams, so guard the
             write instead of trusting the size *)
          let trace = Array.make (Int.max 0 chars) 0 in
          traces.(array_id) <- trace;
          events_only (fun ev ->
              if ev.Exec.sym < Array.length trace then trace.(ev.Exec.sym) <- ev.Exec.stall));
    }
  in
  (spec, fun () -> traces)

(* ------------------------------------------------------------------ *)
(* Streaming latency histogram: geometric buckets, O(1) memory per
   observation, mergeable.  The match service feeds one per stream
   class with request enqueue->finish latencies and reads p50/p95/p99
   out of it without ever storing individual samples. *)

module Latency = struct
  (* bucket k covers [floor_s * ratio^k, floor_s * ratio^(k+1)); with a
     1 us floor and ~7% ratio, 384 buckets reach past an hour *)
  let floor_s = 1e-6
  let ratio = 1.07
  let log_ratio = Float.log ratio
  let buckets = 384

  type t = {
    counts : int array;
    mutable total : int;
    mutable sum_s : float;
    mutable max_s : float;
  }

  let create () = { counts = Array.make buckets 0; total = 0; sum_s = 0.; max_s = 0. }

  let bucket_of x =
    if x <= floor_s then 0
    else Int.min (buckets - 1) (1 + int_of_float (Float.log (x /. floor_s) /. log_ratio))

  (* upper edge of bucket k: every sample in k is <= this, so quantiles
     read from edges are conservative (never under-reported) *)
  let upper_edge k =
    if k = 0 then floor_s else floor_s *. (ratio ** float_of_int k)

  let observe h x =
    let x = Float.max 0. x in
    let k = bucket_of x in
    h.counts.(k) <- h.counts.(k) + 1;
    h.total <- h.total + 1;
    h.sum_s <- h.sum_s +. x;
    if x > h.max_s then h.max_s <- x

  let count h = h.total
  let mean_s h = if h.total = 0 then 0. else h.sum_s /. float_of_int h.total
  let max_s h = h.max_s

  let quantile h q =
    if h.total = 0 then 0.
    else begin
      let rank =
        Int.max 1 (int_of_float (Float.round (q *. float_of_int h.total)))
      in
      let rec find k seen =
        if k >= buckets then h.max_s
        else
          let seen = seen + h.counts.(k) in
          if seen >= rank then Float.min (upper_edge k) h.max_s else find (k + 1) seen
      in
      find 0 0
    end

  let merge_into ~dst src =
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
    dst.total <- dst.total + src.total;
    dst.sum_s <- dst.sum_s +. src.sum_s;
    if src.max_s > dst.max_s then dst.max_s <- src.max_s

  let to_json h =
    Printf.sprintf
      {|{"count": %d, "mean_ms": %.3f, "p50_ms": %.3f, "p95_ms": %.3f, "p99_ms": %.3f, "max_ms": %.3f}|}
      h.total (1e3 *. mean_s h)
      (1e3 *. quantile h 0.50)
      (1e3 *. quantile h 0.95)
      (1e3 *. quantile h 0.99)
      (1e3 *. h.max_s)
end

(* ------------------------------------------------------------------ *)
(* Per-symbol metrics trace: active states, stalls, reports, cross
   signals and the full energy breakdown, as CSV or JSON.  Rows are
   buffered per array and emitted in array order, so the dump is
   deterministic under any schedule. *)

type trace_format = Csv | Json

let trace_format_of_path path =
  if Filename.check_suffix (String.lowercase_ascii path) ".json" then Json else Csv

let csv_header =
  let cats =
    List.map
      (fun c ->
        String.map
          (fun ch -> if ch = ' ' || ch = '-' then '_' else Char.lowercase_ascii ch)
          (Energy.category_name c)
        ^ "_pj")
      Energy.all_categories
  in
  String.concat "," ([ "array"; "sym"; "byte"; "active"; "stall"; "reports"; "cross" ] @ cats)

let active_total (ev : Exec.array_events) =
  Array.fold_left (fun acc t -> acc + t.Exec.t_active_states) 0 ev.Exec.tiles

let trace arch ~format ~num_arrays =
  let bufs = Array.init num_arrays (fun _ -> Buffer.create 1024) in
  let spec =
    {
      name = "trace";
      make =
        (fun ~array_id ~chars:_ ->
          let buf = bufs.(array_id) and tables = Cost.tables arch in
          let cat_pj = Array.make Cost.num_categories 0. and mode_pj = Array.make Cost.num_modes 0. in
          events_only (fun ev ->
              ignore (Cost.charge tables ev ~cat_pj ~mode_pj);
              match format with
              | Csv ->
                  Buffer.add_string buf
                    (Printf.sprintf "%d,%d,%d,%d,%d,%d,%d" array_id ev.Exec.sym
                       (Char.code ev.Exec.symbol) (active_total ev) ev.Exec.stall
                       ev.Exec.reports ev.Exec.cross);
                  Array.iter
                    (fun pj -> Buffer.add_string buf (Printf.sprintf ",%.6f" pj))
                    cat_pj;
                  Buffer.add_char buf '\n'
              | Json ->
                  Buffer.add_string buf
                    (Printf.sprintf
                       "{\"array\":%d,\"sym\":%d,\"byte\":%d,\"active\":%d,\"stall\":%d,\"reports\":%d,\"cross\":%d"
                       array_id ev.Exec.sym (Char.code ev.Exec.symbol) (active_total ev)
                       ev.Exec.stall ev.Exec.reports ev.Exec.cross);
                  List.iteri
                    (fun i c ->
                      Buffer.add_string buf
                        (Printf.sprintf ",\"%s_pj\":%.6f"
                           (String.map
                              (fun ch -> if ch = ' ' || ch = '-' then '_' else Char.lowercase_ascii ch)
                              (Energy.category_name c))
                           cat_pj.(i)))
                    Energy.all_categories;
                  Buffer.add_string buf "},\n"));
    }
  in
  let dump oc =
    match format with
    | Csv ->
        output_string oc csv_header;
        output_char oc '\n';
        Array.iter (fun b -> output_string oc (Buffer.contents b)) bufs
    | Json ->
        let all = String.concat "" (Array.to_list (Array.map Buffer.contents bufs)) in
        let all =
          (* drop the trailing ",\n" so the array is well-formed *)
          if String.length all >= 2 then String.sub all 0 (String.length all - 2) else all
        in
        output_string oc "[\n";
        output_string oc all;
        output_string oc "\n]\n"
  in
  (spec, dump)
