(** The seven benchmark suites of the paper (§5.1) as seeded synthetic
    workloads, plus the ANMLZoo subset used against the FPGA baseline
    (Table 4).

    Each suite reproduces the published characteristics that drive the
    evaluation: the NFA/NBVA/LNFA mixture of Fig 1, the repetition-bound
    ranges (small in SpamAssassin, up to hundreds in ClamAV), and pattern
    alphabets.  The actual rule sets are proprietary-ish collections
    distributed via Zenodo; see DESIGN.md for the substitution argument. *)

type t = {
  name : string;
  regexes : (string * Ast.t) list;  (** (concrete syntax, AST). *)
  make_input : chars:int -> string;
      (** Seeded input stream with a realistic (<10%) activation rate:
          random traffic with pattern fragments embedded. *)
}

val by_name : ?scale:int -> string -> t
(** [scale] multiplies the regex count (default 1 gives 100-160 regexes
    per suite; the paper's full suites are ~10-50x larger but identically
    distributed).  Known names: RegexLib, SpamAssassin, Snort, Suricata,
    Yara, ClamAV, Prosite.  Raises [Not_found] otherwise. *)

val all : ?scale:int -> unit -> t list
(** The seven suites, in the paper's table order. *)

val anmlzoo : ?scale:int -> unit -> t list
(** Brill, ClamAV, Dotstar, PowerEN, Snort — ANMLZoo-style: bounded
    repetitions pre-unfolded except in ClamAV (Table 4's setting). *)
