(** Energy ledger: accumulates per-category energy during a simulation.

    All amounts are in picojoules; the report converts to microjoules for
    the tables (the paper reports uJ per 100k characters). *)

type category =
  | State_matching  (** CAM (or CA's SRAM) search accesses. *)
  | State_transition  (** Local switch traversals. *)
  | Bv_processing  (** BV reads/updates and BV routing (NBVA mode). *)
  | Global_routing  (** Global switch and global wires. *)
  | Controller  (** Local and global controller dynamic energy. *)
  | Leakage  (** Static energy of all powered components. *)
  | Io  (** Input/output buffering. *)

val all_categories : category list
val category_name : category -> string

val index : category -> int
(** Dense index over {!all_categories}, declaration order: category
    [c]'s slot in the arrays {!accumulate} adds. *)

type t

val create : unit -> t

val add : t -> category -> float -> unit
(** [add t cat pj] accumulates [pj] picojoules. *)

val accumulate : t -> float array -> unit
(** [accumulate t pjs] adds [pjs.(index c)] to each category [c],
    skipping exact zeros: the same sums as one {!add} per non-zero
    entry, without boxing a float per call. *)

val get_pj : t -> category -> float
val total_pj : t -> float
val total_uj : t -> float
val merge_into : dst:t -> t -> unit
val breakdown : t -> (category * float) list
(** Nonzero categories, in declaration order. *)

val pp : Format.formatter -> t -> unit
