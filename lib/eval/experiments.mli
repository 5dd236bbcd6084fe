(** Experiment drivers: one entry per table/figure of the paper's §5.

    Each driver returns structured results and can print the corresponding
    table.  Absolute numbers depend on the synthetic workloads; the shapes
    the paper reports (who wins, by what factor, where the trade-offs
    cross) are what EXPERIMENTS.md tracks. *)

type env = {
  chars : int;  (** Input length per run (paper: 100,000). *)
  scale : int;  (** Workload scale multiplier. *)
  jobs : int;  (** Parallel simulation domains per run (see {!Runner.run}). *)
}

val default_env : unit -> env
(** [chars] from [RAP_EVAL_CHARS] (default 10_000), [scale] from
    [RAP_EVAL_SCALE] (default 1), [jobs] from [RAP_EVAL_JOBS]
    (default 1). *)

(** {1 Fig 1 — mode mixture} *)

type fig1_row = { suite : string; pct_nfa : float; pct_nbva : float; pct_lnfa : float }

val fig1 : env -> fig1_row list
val print_fig1 : fig1_row list -> unit

(** {1 Fig 10 — design space exploration} *)

type dse_point = { value : int; energy_uj : float; area_mm2 : float; throughput : float }

type dse_result = {
  dse_suite : string;
  depth_sweep : dse_point list;  (** BV depth in 4..32 (empty if no NBVA). *)
  bin_sweep : dse_point list;  (** Bin size 1..32 (empty if no LNFA). *)
  chosen_depth : int;
  chosen_bin : int;
}

val dse : env -> dse_result list
val print_dse : dse_result list -> unit

(** {1 Tables 2 and 3 — mode vs NFA mode vs baseline ASICs} *)

type arch_cells = { energy_uj : float; area_mm2 : float; throughput_gchs : float }

type versus_row = {
  v_suite : string;
  baseline : arch_cells;  (** RAP in the table's native mode. *)
  rap_nfa : arch_cells;
  cama : arch_cells;
  bvap : arch_cells;
  ca : arch_cells;
}

val table2 : env -> dse_result list -> versus_row list
(** NBVA-compilable regexes of each suite (Prosite has none). *)

val table3 : env -> dse_result list -> versus_row list
(** LNFA-compilable regexes of each suite. *)

val print_versus : title:string -> baseline_name:string -> versus_row list -> unit

(** {1 Fig 11 — per-mode breakdown} *)

type breakdown_row = {
  b_suite : string;
  states : int * int * int;  (** NFA, NBVA, LNFA. *)
  energy_pj : float * float * float;
  area_um2 : float * float * float;
}

val fig11 : env -> dse_result list -> breakdown_row list
val print_fig11 : breakdown_row list -> unit

(** {1 Fig 12 — overall comparison against the ASICs} *)

type overall_row = {
  o_suite : string;
  o_arch : string;
  o_area_mm2 : float;
  o_throughput : float;
  o_energy_eff : float;  (** Gch/s per W. *)
  o_density : float;  (** Gch/s per mm^2. *)
  o_power_w : float;
}

val fig12 : env -> dse_result list -> overall_row list
(** Includes the paper's resource re-allocation: NBVA arrays below
    2 Gch/s are replicated to share the input (small area overhead). *)

val print_fig12 : overall_row list -> unit

(** {1 Fig 13 — CPU and GPU comparison} *)

val fig13 : env -> dse_result list -> overall_row list
val print_fig13 : overall_row list -> unit

(** {1 Table 4 — FPGA comparison on ANMLZoo} *)

val table4 : env -> overall_row list
val print_table4 : overall_row list -> unit

(** {1 Everything} *)

val run_all : env -> unit
