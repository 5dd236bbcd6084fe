(** RAP — Reconfigurable Automata Processor: public API.

    This is the convenience facade over the full stack:

    {ul
    {- {!Charclass}, {!Ast}, {!Parser}, {!Rewrite} — regexes;}
    {- {!Nfa}, {!Glushkov}, {!Lnfa}, {!Shift_and}, {!Nbva} — automata and
       reference software engines;}
    {- {!Mode_select}, {!Nbva_compile}, {!Lnfa_compile}, {!Binning},
       {!Mapper} — the regex-to-hardware compiler;}
    {- {!Arch}, {!Engine}, {!Runner} — the cycle-level simulator of RAP
       and the CAMA / CA / BVAP baselines;}
    {- {!Benchmarks}, {!Experiments} — workloads and the paper's
       evaluation.}}

    The two entry points most applications need:

    {[
      (* software matching with the best engine for the regex *)
      let m = Rap.matcher_exn "b(a{7}|c{5})b" in
      Rap.find_all m "xxbcccccbyy"   (* = [8] *)

      (* hardware simulation of a rule set *)
      let report = Rap.simulate ~regexes:[ "a{30}b"; "evil.{0,16}sig" ]
                     ~input:(String.make 10_000 'a') ()
    ]} *)

(** {1 Software matching}

    A {!matcher} wraps the reference engine the compiler's decision graph
    picks for the regex: Shift-And for linear regexes, the NBVA engine for
    counted repetitions, the Glushkov NFA otherwise.  Matching is
    unanchored; a match is reported at each input position where some
    final state is active (leftmost-longest extraction is out of scope, as
    for the hardware). *)

type matcher

type engine_kind = Nfa_engine | Nbva_engine | Shift_and_engine

val matcher : ?params:Program.params -> string -> (matcher, string) result
(** Honours [^] and [$] anchors: an anchored-start pattern runs on the
    NFA reference engine with initial states armed only at offset 0; an
    anchored-end pattern reports only matches ending at the last input
    position. *)

val matcher_exn : ?params:Program.params -> string -> matcher

val matcher_of_ast :
  ?params:Program.params ->
  ?anchored_start:bool ->
  ?anchored_end:bool ->
  Ast.t ->
  matcher
val engine_kind : matcher -> engine_kind
val find_all : matcher -> string -> int list
(** Match end positions, ascending. *)

val count_matches : matcher -> string -> int
val is_match : matcher -> string -> bool

(** {1 Streaming matching}

    A session drives the same engine one symbol at a time, so chunked
    input (a file read in 64 KiB blocks, a socket) matches without ever
    being materialised.  Feeding chunks [c1; ...; cn] and then finishing
    yields exactly [find_all m (c1 ^ ... ^ cn)]. *)

type session

val session : matcher -> session

val session_feed : session -> string -> int list
(** Match end positions inside this chunk, as {e absolute} input
    offsets, ascending.  End-anchored matchers always return [[]] here:
    whether a match ends at the last position is only knowable at
    {!session_finish}. *)

val session_finish : session -> int list
(** Matches deferred to end of stream (the final-position match of an
    end-anchored pattern); [[]] otherwise. *)

val session_pos : session -> int
(** Bytes consumed so far. *)

(** {1 Hardware simulation} *)

val simulate :
  ?arch:Arch.t ->
  ?jobs:int ->
  ?params:Program.params ->
  regexes:string list ->
  input:string ->
  unit ->
  (Runner.report, string) result
(** Compile, map and run a rule set on the simulated processor (default:
    RAP with default parameters).  [jobs] simulates arrays on that many
    parallel domains; results are bit-identical for every value (see
    {!Runner.run}).  Rules that do not parse, compile or fit are left
    out ({!Runner.prepare}); returns [Error] when none is left. *)

val render_report : Runner.report -> string
(** The canonical textual rendering of a report — the same bytes
    [rap simulate] prints, [rap batch --report-dir] writes, and the
    match daemon sends in its [Report] replies. *)

val default_params : Program.params
val rap_arch : ?bv_depth:int -> unit -> Arch.t
val version : string
