(** Marked-graph cycle-time analysis (Ramamoorthy & Ho [RH80], cited by
    the paper).

    For decision-free nets — {e marked graphs}, where every place has
    exactly one producer and one consumer, all arc weights are 1 and
    there are no inhibitors or predicates — the steady-state cycle time
    has a closed characterization:

    {v cycle time = max over directed circuits C of  D(C) / M(C) v}

    where [D(C)] sums the (mean) transition delays around the circuit and
    [M(C)] the initial tokens on its places.  Every transition of a
    strongly connected marked graph then fires exactly once per cycle, so
    the throughput of each transition is [1 / cycle time] — an analytical
    performance bound with no state-space construction at all.

    The critical ratio is computed by parametric binary search with
    Bellman-Ford positive-cycle detection (maximum ratio cycle).

    Transition delay is the {e mean} of enabling + firing durations.  A
    transition's enabling clock is a single server — it restarts at each
    firing — so a transition with a positive enabling delay also gets a
    one-token self-loop carrying that delay.  On deterministic marked
    graphs the ratio then equals the period per firing of
    {!Pnut_reach.Timed.steady_cycle} (the test suite checks this on
    random nets); for stochastic delays it is a first-order
    approximation. *)

type verdict =
  | Cycle_time of float
      (** the critical ratio; throughput of every transition (in a
          strongly connected net) is its inverse.  Exactly [0.] when no
          circuit has a positive delay: a zero-time livelock. *)
  | Deadlock
      (** some circuit carries no tokens: the net (partially) dies *)
  | Unbounded_rate
      (** no circuit constrains the net (acyclic or token-rich):
          transitions are not rate-limited by the structure *)

val is_marked_graph : Pnut_core.Net.t -> (unit, string) result
(** [Error reason] names the first violation (branching place, weighted
    arc, inhibitor, predicate/action, non-constant delay shape). *)

val cycle_time : Pnut_core.Net.t -> verdict
(** Raises [Invalid_argument] (with the reason) if the net is not a
    marked graph with mean-able delays. *)

val critical_circuit : Pnut_core.Net.t -> (int list * float) option
(** The transitions of a circuit attaining the critical ratio, with the
    ratio; [None] when {!cycle_time} is not [Cycle_time _]. *)
