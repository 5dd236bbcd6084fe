(** Seeded sampling helpers for the synthetic workload generators.

    All generators in this library are deterministic given their seed, so
    every experiment is reproducible run to run. *)

type rng = Random.State.t

val rng : int -> rng
val int_in : rng -> int -> int -> int
(** [int_in rng lo hi] is uniform in the inclusive range. *)

val choose : rng -> 'a array -> 'a
val weighted : rng -> (int * 'a) list -> 'a
(** Pick with integer weights; weights must be positive. *)

val lower_char : rng -> char
val alnum_char : rng -> char
val protein_char : rng -> char
(** One of the 20 amino-acid letters. *)

val hex_byte_char : rng -> char
