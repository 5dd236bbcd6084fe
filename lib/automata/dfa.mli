(** Lazy-DFA fast path over the flat NBVA execution plan.

    A DFA state is an interned copy of the packed active-word set of the
    underlying automaton (the subset construction, built lazily): the
    256-entry transition row of each state is filled on demand by running
    the existing bit-parallel succ-mask kernel once per (state, byte)
    miss, after which stepping that pair again is a single table load
    plus a word blit.  Semantics are bit-identical to {!Nbva.step} by
    construction — every transition's destination set {e is} the NFA
    active set the kernel computed, the engine's activation words are
    rewritten to it on every step, and the hit flag is the destination
    set's final-mask intersection — so match events and the
    energy/cycle projections derived from the active set are unchanged.

    The cache is bounded: when it fills, it is flushed and rebuilt
    ([max_flushes] times), after which the automaton is marked blown-up
    and {!step} degrades permanently to {!Nbva.step} (the transparent
    NFA fallback).  Only automata with no BV-STEs are eligible — a BV
    vector is per-run mutable state, not a function of the active set,
    so it cannot be folded into a subset-construction state.

    Everything here is {e derived} state: it is never snapshotted or
    checkpointed, and a {!run} whose engine activation words were
    changed externally (restore, rollback, fault injection) resyncs by
    re-interning the current set on the next step — validity of the
    cached state index is checked against the live words every step. *)

type t
(** Shared lazy-DFA cache for one compiled automaton (one per engine
    instance; not domain-safe across engines). *)

type run
(** A stream's cursor into the cache, attached to its {!Nbva.run_state}. *)

val default_cache_states : int
(** Default [max_states] bound (512). *)

val create : ?max_states:int -> ?max_flushes:int -> Nbva.t -> t option
(** [None] when the automaton carries BV-STEs (ineligible).  The
    [RAP_DFA_CACHE] environment variable overrides [max_states] (clamped
    to at least 2) — the CI cache-pressure smoke uses this to force
    eviction and fallback on real workloads.

    Creation is cheap: the state tables start at 8 rows (fewer when
    [max_states] is smaller) and double on demand up to [max_states],
    so an engine built per request pays only for the states its input
    reaches.  Growth is invisible: the [max_states] flush point, the
    flush budget and the fill count are the same as with full-size
    tables. *)

val attach : t -> Nbva.run_state -> run
(** Cursor for one stream; starts unsynced (first step re-interns). *)

val cache : run -> t
(** The cache a cursor is attached to. *)

val step : run -> char -> bool
(** Advance one symbol.  Identical observable behaviour to
    [Nbva.step t st c] on the attached state: same return value and same
    activation words afterwards (scratch next/avail words may differ —
    they are dead between steps and excluded from digests). *)

val reset : t -> unit
(** Drop every cached state and re-enable a blown-up cache (not counted
    as a flush).  Called by the integrity layer after table repair: the
    cache is derived from the sealed tables, so healing them invalidates
    it wholesale. *)

val invalidate : run -> unit
(** Forget the cursor (next step resyncs from the live words).  Cheap;
    for restore paths that bypass the per-step validity check. *)

(** {1 Introspection} (bench / tests) *)

val cached_states : t -> int
val fills : t -> int
(** Kernel-backed transition fills since creation (cache misses). *)

val flushes : t -> int
val disabled : t -> bool
(** [true] once the flush budget is exhausted and the automaton fell
    back to NFA stepping for good (until {!reset}). *)
