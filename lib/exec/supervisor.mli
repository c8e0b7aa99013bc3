(** Supervised execution: structured outcomes for budgeted work.

    Every long-running entry point in the library (simulation,
    reachability, coverability, GSPN exploration, replication sweeps)
    accepts a {!Budget.t} and reports back through the
    {!outcome} type below: either the computation ran to completion, or
    it was stopped early by a tripped limit and a {e usable partial
    result} is returned together with the reason and a progress
    snapshot.  Nothing hangs, nothing OOM-kills the process, nothing
    raises a bare [Invalid_argument] for running out of room. *)

type reason =
  | Wall of float    (** wall-clock limit hit; payload = elapsed seconds *)
  | Heap of int      (** major-heap limit hit; payload = heap words *)
  | States of int    (** state cap hit; payload = states interned *)
  | Cancelled        (** the budget's cancellation token was raised *)

type progress = {
  elapsed_s : float;  (** wall-clock seconds since the monitor started *)
  heap_words : int;   (** major-heap words at the time of the snapshot *)
  visited : int;      (** states explored / events executed so far *)
  frontier : int;     (** unexplored frontier size (0 where meaningless) *)
}

type 'a outcome =
  | Complete of 'a
  | Degraded of { reason : reason; partial : 'a; progress : progress }

val value : 'a outcome -> 'a
(** The payload, complete or partial. *)

val map : ('a -> 'b) -> 'a outcome -> 'b outcome

val degraded : 'a outcome -> bool

val reason_message : reason -> string
(** One-line human-readable description, e.g.
    ["wall-clock budget exhausted after 0.052 s"]. *)

val pp_progress : Format.formatter -> progress -> unit
(** e.g. [visited 614 states (frontier 12) in 0.05 s, heap 2.1 Mw]. *)

(** {1 Monitors}

    A monitor is the active side of a budget: it remembers when work
    started and answers "has anything tripped?" cheaply enough to be
    polled every few hundred steps of a hot loop. *)

type monitor

val start : Budget.t -> monitor
(** Start the clock.  [start Budget.none] yields a monitor whose checks
    are branch-cheap no-ops; its clock still runs, so {!snapshot}
    reports the elapsed time of a run cut by a plain state cap. *)

val active : monitor -> bool
(** [false] iff the underlying budget is {!Budget.none} — callers may
    hoist this test out of their hot loop. *)

val check : monitor -> reason option
(** Poll cancellation, wall clock and heap (in that order).  Intended
    for existing cheap cadences; a call costs one [Atomic.get] and at
    most one [Unix.gettimeofday], and reads the heap ([Gc.quick_stat])
    on the first call and then at most once per millisecond of wall
    clock, so a heap trip is seen within 1 ms plus one poll interval. *)

val elapsed : monitor -> float
(** Wall-clock seconds since {!start}. *)

val run_budget : monitor -> Budget.t option
(** The budget of one run of a replication sweep starting now: [None]
    for {!Budget.none}, else the sweep's budget with the wall time still
    left (at least 1 µs).  The sweep's wall limit is thus one absolute
    deadline: once it passes, every in-flight run, on any worker domain,
    degrades at its next watchdog slot. *)

val snapshot : monitor -> visited:int -> frontier:int -> progress
(** Progress record at this instant. *)

(** {1 The budget policy of a builder}

    Every state-space builder runs under the same three rules: its
    state cap is validated by {!cap}, it polls {!check} before every
    256th expansion, and it reports through {!finish}. *)

val cap : who:string -> int -> int
(** [cap ~who max_states] is [max_states].  Raises [Invalid_argument
    "<who>: max_states must be positive"] when it is below 1. *)

val poll : monitor -> int -> reason option
(** [poll m i] is [check m] when [i] is a multiple of 256, else [None]:
    {!sweep}'s cadence, for a loop that counts its own steps.  Marked
    for inlining, so the other 255 steps cost a mask and a test. *)

val sweep :
  monitor -> length:(unit -> int) -> (int -> unit) -> (reason * int) option
(** [sweep m ~length expand] calls [expand 0], [expand 1], ... while
    the index is below [length ()], re-read before every item: the
    queue may grow while it is expanded.  {!check} is polled before
    every 256th item (indices 255, 511, ...: {!poll} of [index + 1]),
    so a budgeted sweep that completes expands exactly the items of an
    unbudgeted one.  Returns
    [None] once the queue is drained, or the trip reason and the number
    of items left unexpanded. *)

val finish : monitor -> visited:int -> (reason * int) option -> 'a -> 'a outcome
(** [finish m ~visited stop result]: [Complete result] when [stop] is
    [None]; for [Some (reason, frontier)], [result] degraded with a
    {!snapshot} of [visited] and [frontier]. *)
