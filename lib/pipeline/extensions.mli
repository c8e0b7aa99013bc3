(** Section-3 extensions: instruction and data caches.

    "Instruction and data caches are quite common and can be easily
    modeled probabilistically, assuming some given hit ratio."

    {!with_caches} derives the structural 3-stage pipeline of {!Model}
    with probabilistic caches in front of the bus:
    - instruction prefetch first probes the i-cache ([icache_hit] /
      [icache_miss] competing with frequencies [h : 1-h]); a hit delivers
      the words in one cycle without touching the bus, a miss performs
      the usual bus transaction;
    - operand fetches probe the d-cache the same way; result stores are
      write-through and always use the bus.

    With hit ratios of 0 the model degenerates to the cacheless pipeline
    (modulo the extra 1-cycle cache probe on the miss path being absent —
    misses go straight to the bus wait). *)

val with_caches :
  ?icache_hit_ratio:float ->
  ?dcache_hit_ratio:float ->
  Config.t -> Pnut_core.Net.t
(** Hit ratios in [0, 1] (default 0 = no cache benefit); a hit is
    served in 1 cycle.  Raises [Invalid_argument] on out-of-range
    ratios. *)
