(** Ablation studies of RAP's design choices (DESIGN.md calls these out).

    Each configuration disables one mechanism the paper credits with part
    of the win and reruns a benchmark:
    {ul
    {- [No_lnfa] — linear regexes run as plain NFAs (no Shift-And mode);}
    {- [No_nbva] — counted repetitions unfold (no bit vectors);}
    {- [No_binning] — each LNFA line is its own bin (bin size 1): no
       initial-state concentration, so no power gating;}
    {- [Shallow_bv] / [Deep_bv] — BV depth pinned to 4 / 32, quantifying
       the value of the per-workload DSE choice.}} *)

type config = Full | No_lnfa | No_nbva | No_binning | Shallow_bv | Deep_bv

val all_configs : config list

type row = {
  config : config;
  energy_uj : float;
  area_mm2 : float;
  throughput_gchs : float;
}

val run : Experiments.env -> suite:string -> params:Program.params -> row list
(** Raises [Not_found] for an unknown suite name. *)

val print : suite:string -> row list -> unit
(** Table normalised to [Full]. *)
