(** Deterministic multicore execution, spawn and join.

    {!init} spawns its worker domains, shares the index range with them
    through one atomic cursor and joins them before it returns.  Task
    [i]'s result always lands in slot [i], so the output is
    {e bit-identical} for any [jobs] value; parallelism changes
    wall-clock time only.

    Jobs resolution, everywhere a [?jobs] argument appears in the
    library:
    - [Some n] with [n >= 1]: exactly [n] workers;
    - [Some 0]: auto — [PNUT_JOBS] if set, else
      [Domain.recommended_domain_count ()];
    - [None]: [PNUT_JOBS] if set, else [1] (serial).

    [PNUT_JOBS] is auto-detection on both paths, so it is always
    clamped to the core count — only an {e explicit} [?jobs] override
    can oversubscribe the machine. *)

val resolve : ?jobs:int -> unit -> int
(** Resolve a [?jobs] argument to a concrete worker count (see the
    table above), at most 64.  Raises [Invalid_argument] on a negative
    count.  A count above the core count is honoured (useful in tests). *)

val init : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [init ~jobs n f] is [[| f 0; ...; f (n-1) |]], computed by the
    caller and up to [jobs - 1] spawned domains, which are joined
    before it returns.  [f] must not depend on shared mutable state.
    If several tasks raise, the exception of the {e lowest-numbered}
    task is re-raised with its original backtrace.  With one worker
    (or fewer than two tasks) everything runs in the calling domain.
    Warns on stderr when the workers, [min (resolve ?jobs ()) n],
    outnumber the cores: extra domains only contend for CPU. *)

val quiesce : unit -> unit
(** A no-op: {!init} joins its workers before returning, so no domain
    outlives a call.  Kept for callers written against the earlier
    persistent pool. *)
