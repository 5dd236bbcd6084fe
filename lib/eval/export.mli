(** Artifact-style result files (the paper's artifact emits its metrics
    "in CSV and JSON format", A.2): [table_2.csv], [table_3.csv],
    [fig12_<metric>.json] and friends. *)

val versus_to_csv : baseline_name:string -> Experiments.versus_row list -> string
val overall_to_json : Experiments.overall_row list -> Json.t

val export_all : Experiments.env -> dir:string -> string list
(** Runs the full evaluation and writes every result file under [dir]
    (created if missing); returns the paths written. *)
