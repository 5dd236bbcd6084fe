(** Input/output buffering (paper §3.3, adopted from BVAP).

    Each bank has a 128-entry ping-pong input buffer fed by DMA and a
    64-entry ping-pong output buffer; each array adds an 8-entry input FIFO
    and a 2-entry output FIFO.  The two levels partially hide the
    bit-vector-processing stalls of NBVA arrays: an array that stalls keeps
    draining its private FIFO while the bank buffer refills it, so short
    stalls cost no bank-level throughput until the FIFO runs dry. *)

(** {1 Architectural sizes} *)

val array_input_entries : int (* 8 *)

(** {1 Energy} *)

val push_pj : float
(** Per-entry buffer write (small register-file access; fitted constant
    of the same order as a minimal SRAM access). *)

val pop_pj : float
