(** Analytical (non-simulation) performance evaluation.

    The paper's conclusion notes that "other tools support analytical (as
    opposed to simulation) performance evaluation".  This module is that
    tool for the classical GSPN subclass: every transition is either

    - {b immediate} — zero firing and enabling time; conflicts among
      simultaneously enabled immediate transitions are resolved by their
      relative frequencies, exactly as in simulation; or
    - {b timed} — an [Exponential mean] enabling delay (rate [1/mean]).
      Exponential {e firing} times are rejected: their in-flight phases
      would need state expansion, and the memoryless enabling form
      expresses the same distribution.

    The reachability graph is built with atomic firings and interned in
    the packed {!Pnut_reach.Store} (fields widen on demand), expanded
    breadth-first in ascending transition order.  A marking enabling an
    immediate transition is {e vanishing} (zero sojourn) and fires only
    its immediate transitions; vanishing markings are eliminated
    exactly, giving a continuous-time Markov chain over the tangible
    markings.  Its stationary distribution
    is computed by uniformized power iteration.

    Restrictions (checked, [Invalid_argument] otherwise): no predicates or
    actions (the state must be the marking alone), single-server semantics
    (a timed transition's rate does not scale with its enabling degree),
    bounded nets within [max_states] (past it — typically an unbounded
    net — the message counts the states explored).

    Results are exact up to the linear-algebra tolerance, so they serve as
    an oracle for the simulator on exponential models (and vice versa). *)

type result = {
  tangible_states : int;
  vanishing_states : int;
  place_means : float array;
      (** expected token count per place id (time average) *)
  throughputs : float array;
      (** firings per unit time per transition id, timed and immediate *)
}

val analyze : ?max_states:int -> Pnut_core.Net.t -> result
(** [max_states] caps the reachability exploration (default 2000;
    raises [Invalid_argument] past it).  The stationary distribution
    is a power iteration uniformized at 1.05 times the largest exit
    rate, so a periodic jump chain still converges.  It stops once an
    iterate moves less than 1e-12 in L1; after 100_000 iterations
    without that it raises [Invalid_argument], naming the last
    change. *)

val analyze_supervised :
  ?max_states:int ->
  ?budget:Pnut_exec.Budget.t ->
  Pnut_core.Net.t -> result Pnut_exec.Supervisor.outcome
(** {!analyze} under a budget, polled before every 256th state
    expansion and on every power iteration.  A wall, heap or
    cancellation trip yields [Degraded] with the analysis restricted to
    the explored prefix (unexpanded states act as absorbing, and the
    stationary vector is re-normalized), and an unconverged solve on
    such a prefix is reported the same way; the state cap still raises
    [Invalid_argument]. *)

val place_mean : result -> Pnut_core.Net.t -> string -> float
(** Lookup by place name; raises [Not_found]. *)

val throughput : result -> Pnut_core.Net.t -> string -> float
(** Lookup by transition name; raises [Not_found]. *)

val exponential_variant : Pnut_core.Net.t -> Pnut_core.Net.t
(** Rebuild a net for analytical evaluation: every deterministic delay
    (constant firing or enabling time [d > 0]) becomes an [Exponential d]
    enabling delay with the same mean, zero-delay transitions stay
    immediate.  Raises [Invalid_argument] on nets that already use other
    stochastic durations, predicates or actions. *)
