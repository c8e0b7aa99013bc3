(** Timed reachability as a state-class graph [RP84, BM83-style].

    Exhaustive exploration of a timed net with {e deterministic} delays.
    Rather than enumerating concrete clock valuations (the explicit
    timed expansion, frozen as a test oracle), states here are {e classes}: a marking,
    an environment, and the multiset of transitions currently in
    flight, annotated with the canonical firing-interval domain — the
    per-timer [lo, hi] envelope over every residual vector that reaches
    the class.  Residual vectors are shift-normalized at creation, so
    the oracle's explicit [Tick] edges are folded into the [Fire] /
    [Complete] edges that precede them and never appear in the graph.
    Vector identity is exact: two vectors of a class are the same only
    when every residual is bit-identical.

    The class graph preserves exactly what the analyses here consume:
    the reachable (marking, environment) set, the deadlock set, and
    per-place token bounds all coincide with the explicit expansion's
    (asserted by the qcheck differential suite).  Per-path accumulated
    time is the one thing folded away; {!min_cycle_time} recovers it
    with a dedicated search over the vector space, and time-bounded
    ([horizon]) exploration remains on the oracle only.

    The packed {!Store} is the one class index: one serial sweep on the
    calling domain interns each class into it as the class is found
    (marking fields plus the interned (env, in-flight multiset) in the
    extra-id field), so a class id is its store index.  {!min_cycle_time}
    and {!steady_cycle} identify classes the same way.

    All delays must be deterministic (constants, degenerate choices, or
    deterministic [Dynamic] expressions); stochastic nets have infinite
    timed state spaces and are rejected.  Conflict resolution remains
    nondeterministic — every fireable transition gets its own branch, so
    the graph covers {e all} timings the simulator could exhibit. *)

type label =
  | Fire of Pnut_core.Net.transition_id
      (** a fireable transition starts firing (and completes immediately
          if its firing time is zero) *)
  | Complete of Pnut_core.Net.transition_id
      (** an in-flight firing deposits its outputs *)

type state = {
  ts_index : int;
  ts_marking : int array;
  ts_flight : Pnut_core.Net.transition_id list;
      (** in-flight transition multiset, sorted *)
  ts_pending : Pnut_core.Net.transition_id list;
      (** enabled transitions (enabling timers), sorted *)
  ts_flight_iv : (float * float) list;
      (** residual firing-interval domain, one [lo, hi] per
          [ts_flight] entry *)
  ts_pending_iv : (float * float) list;
      (** residual enabling-interval domain, one per [ts_pending]
          entry *)
  ts_env : (string * Pnut_core.Value.t) list;
}

type edge = {
  e_from : int;
  e_label : label;
  e_to : int;
}

type t

val build : ?max_states:int -> Pnut_core.Net.t -> t
(** Build the state-class graph; [max_states] (a cap on {e classes})
    defaults to 50_000.  Raises [Invalid_argument] on stochastic
    delays, predicates or actions. *)

val build_supervised :
  ?max_states:int ->
  ?jobs:int ->
  ?packed:bool ->
  ?budget:Pnut_exec.Budget.t ->
  Pnut_core.Net.t ->
  t Pnut_exec.Supervisor.outcome
(** {!build} under a budget, polled on the vector-dequeue boundary.
    A tripped limit —
    including the class cap — yields [Degraded] with the partial graph
    (a valid prefix of classes) and visited/frontier counts; a budgeted
    build that completes returns a graph identical to {!build}'s.
    [jobs] and [packed] are accepted for compatibility and ignored:
    every build runs serially on the calling domain, into the packed
    store. *)

val net : t -> Pnut_core.Net.t
val complete : t -> bool
val num_states : t -> int
val num_edges : t -> int

val num_vectors : t -> int
(** Residual vectors explored to close the classes — the unit of work;
    the explicit oracle's state count for the same net lies between
    this and this plus its Tick interpolation. *)

val state : t -> int -> state
val initial : t -> int
val successors : t -> int -> edge list
val predecessors : t -> int -> edge list

val packed_bytes_per_state : t -> float option
(** Arena bytes per class.  Always [Some]: the option survives for
    callers written when a boxed layout existed. *)

val domain_arrays : t -> int array * int array * float array * float array
(** [(off, sup, lo, hi)]: for class [i] (its store index), slots
    [off.(i) .. off.(i+1)-1] hold its timer support — [2*t] an in-flight
    timer of transition [t], [2*t+1] its enabling timer, in-flight slots
    first — with the interval domain in [lo]/[hi].  The slots are
    appended when the class is created and widened in place as its
    vectors arrive; [off] has [num_states + 1] entries. *)

val deadlocks : t -> int list
(** Timed-dead classes: nothing fireable, nothing in flight, nothing
    pending — equivalently, classes with no outgoing edge.  Coincides
    with the explicit expansion's deadlock set. *)

val min_cycle_time :
  ?max_states:int -> Pnut_core.Net.t -> Pnut_core.Net.transition_id -> float option
(** Shortest accumulated time before the transition first starts firing
    on any path (a best-case latency measure); [None] if it never
    fires.  Runs a uniform-cost search over residual vectors (edge
    weight = folded Tick duration) rather than the class graph, which
    merges vectors reached at different times; [max_states] bounds the
    settled vectors (default 50_000).  [None] is also returned when
    that cap is reached before the transition fires.  Raises
    [Invalid_argument] if [max_states] is not positive, as {!build}
    does. *)

val max_tokens : t -> Pnut_core.Net.place_id -> int

(** Steady-state cycle of a deterministic timed net ([RP84]-style
    performance analysis without simulation). *)
type cycle = {
  cy_transient : float;   (** time before the periodic regime starts *)
  cy_period : float;      (** cycle length in time units *)
  cy_firings : int array; (** firings of each transition per cycle *)
}

val steady_cycle : ?max_steps:int -> Pnut_core.Net.t -> cycle option
(** Follows one deterministic execution through the successor relation
    of {!build}: from each residual vector it takes the first successor
    the class graph emits — the lowest-id completion, otherwise the
    lowest-id firing (any fixed rule yields {e a} steady cycle).  A
    positive normalization shift is a time advance, so the vector just
    before it is a stable instant; stable instants are keyed on (vector
    after the shift, shift) and the walk stops at the first repeat.
    A vector met a second time with no time advance in between closes a
    zero-time livelock: the walk is deterministic, so it would loop
    there forever.  It is returned as a cycle with [cy_period = 0.]
    (as [Marked_graph.Cycle_time 0.] on marked graphs),
    [cy_transient] the instant it starts and [cy_firings] one pass
    of the loop.
    [None] if the net dies or no repeat is found within [max_steps]
    (default 100_000) firings and completions; time advances are folded
    into them and not counted.  Actions run at completion (at the firing
    itself when the firing time is zero), as in {!build}, and delays are
    read under the current environment.  Exact transition throughputs of
    that execution are [firings.(t) / period].  Delays must be
    deterministic, as for {!build}. *)

val pp_summary : Format.formatter -> t -> unit
