(** Event-stream consumers.

    A sink folds over the per-symbol {!Exec.array_events} records of one
    array; the runner attaches any number of sinks and drives them in a
    single simulation pass.  Sinks never read engine internals — the
    events record is their whole world.  (The one sanctioned exception is
    [on_state], the transient-fault surface: it receives the engine array
    so a fault sink can flip stored state bits {e after} the symbol's
    events are banked, and must not read statistics from it.)

    Because arrays are independent, a {!spec} is instantiated once per
    array ([make ~array_id ~chars]) — possibly from different domains
    under the parallel scheduler — and each instance only ever sees its
    own array's stream, in symbol order.  Cross-array results must live
    in per-array slots merged after the run (see {!stall_trace} and
    {!trace} for the pattern), which is what keeps parallel schedules
    bit-identical to sequential ones. *)

type t = {
  on_events : Exec.array_events -> unit;
      (** Called once per input symbol, in symbol order.  The record is
          the array's own, refreshed in place by the next {!Exec.step}:
          read what you need during the call, and neither keep nor
          mutate it. *)
  on_state : (sym:int -> Engine.t array -> unit) option;
      (** Fault-injection surface, called after [on_events] of every
          attached sink; mutations are first visible at the next symbol. *)
  on_close : cycles:int -> unit;
      (** Called once when the array finishes, with its total cycles. *)
}

type spec = { name : string; make : array_id:int -> chars:int -> t }

val events_only : ?on_close:(cycles:int -> unit) -> (Exec.array_events -> unit) -> t

(** {1 Built-in sinks} *)

val stall_trace : num_arrays:int -> spec * (unit -> int array array)
(** Per-array per-symbol stall schedule (what {!Bank_sim.run} consumes).
    Read the result only after the run completes. *)

(** Streaming latency histogram — the SLO instrument of the match
    service.  Geometric buckets (1 µs floor, ~7% resolution, reaching
    past an hour) keep memory constant no matter how many requests are
    observed; quantiles are read from bucket upper edges, so a reported
    p99 never understates the true p99 by more than one bucket width.
    Not a {!spec}: latencies are per {e request}, not per symbol, so the
    service feeds it directly rather than through the event stream. *)
module Latency : sig
  type t

  val create : unit -> t
  val observe : t -> float -> unit
  (** Record one latency in seconds (negative values clamp to 0). *)

  val count : t -> int
  val mean_s : t -> float
  val max_s : t -> float

  val quantile : t -> float -> float
  (** [quantile h 0.99] is the p99 in seconds; 0 when empty. *)

  val merge_into : dst:t -> t -> unit

  val to_json : t -> string
  (** [{"count": .., "mean_ms": .., "p50_ms": .., "p95_ms": .., "p99_ms": .., "max_ms": ..}] *)
end

type trace_format = Csv | Json

val trace_format_of_path : string -> trace_format
(** [.json] (case-insensitive) selects JSON; anything else CSV. *)

val trace : Arch.t -> format:trace_format -> num_arrays:int -> spec * (out_channel -> unit)
(** Per-symbol metrics dump: array, offset, input byte, active states,
    stall, reports, cross signals, and the energy breakdown by category
    (via {!Cost.charge}).  The returned function writes the whole
    trace — rows grouped by array, symbols ascending — after the run. *)
