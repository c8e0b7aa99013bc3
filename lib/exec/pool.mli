(** Deterministic multicore execution on a persistent domain pool.

    Worker domains are spawned {e once per process}, lazily sized by
    {!resolve}, and parked on a condition variable between calls —
    entering a parallel region costs a mutex handshake, not a round of
    [Domain.spawn].  Work arrives as chunked batches claimed off a
    shared cursor (dynamic load balance), but task [i]'s result always
    lands in slot [i], so the output of every pool operation is
    {e bit-identical} for any [jobs] value.  Parallelism changes
    wall-clock time only.

    A batch runs one at a time: a nested call (a task that itself fans
    out) or a concurrent call from another domain falls back to inline
    serial execution with the same results.

    Jobs resolution, everywhere a [?jobs] argument appears in the
    library:
    - [Some n] with [n >= 1]: exactly [n] workers;
    - [Some 0]: auto — [PNUT_JOBS] if set, else
      [Domain.recommended_domain_count ()];
    - [None]: [PNUT_JOBS] if set, else [1] (serial).  The conservative
      library default keeps embedders single-domain unless they, or the
      environment, opt in.

    [PNUT_JOBS] is auto-detection on both paths, so it is always
    clamped to the core count — only an {e explicit} [?jobs] override
    can oversubscribe the machine. *)

val resolve : ?jobs:int -> unit -> int
(** Resolve a [?jobs] argument to a concrete worker count (see the
    table above).  Raises [Invalid_argument] on a negative count.
    The result is clamped to at most 64 workers.  An {e explicitly}
    requested count above the core count is honoured — useful in tests —
    but warns on stderr, once per distinct count (a later, larger
    request warns again; repeating or shrinking stays quiet), since
    extra domains only contend for CPU. *)

val set_warning_printer : (string -> unit) -> unit
(** Replace the stderr printer for pool warnings (tests capture it,
    embedders can route it to their logger). *)

val reset_oversubscription_latch : unit -> unit
(** Forget which counts have already been warned about (tests only). *)

val init : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [init ~jobs n f] is [[| f 0; ...; f (n-1) |]], computed by up to
    [jobs] domains (the caller plus parked pool workers) claiming
    chunks of the index range dynamically.  [f] must not depend on
    shared mutable state.  If several tasks raise, the exception of the
    {e lowest-numbered} task is re-raised after the batch completes —
    with its original backtrace — so failures are deterministic too.
    With one worker (or fewer than two tasks) everything runs inline in
    the calling domain. *)

val quiesce : unit -> unit
(** Retire the parked worker domains and join them; the next parallel
    call respawns the pool.  On OCaml 5 every live domain takes part in
    every stop-the-world minor collection, so a parked pool taxes a
    long serial allocation-heavy phase that follows a parallel one —
    ~2x on serial simulation throughput on a single-core box.  Call
    this between a parallel phase and sustained serial work (the bench
    does, around its serial measurement sections); a process that
    exits after its parallel phase never needs to.  No-op when a batch
    is in flight. *)
