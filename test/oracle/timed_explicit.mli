(** Explicit timed expansion, frozen as the differential oracle for the
    state-class construction in {!Pnut_reach.Timed}.

    Enumerates concrete clock valuations: each state carries the
    marking, the residual firing times of in-flight firings, and the
    residual enabling times of enabled transitions.  Edges are
    [Fire t], [Complete t], and explicit [Tick d] time advances.  This
    is the pre-state-class semantics, kept verbatim in the test-only
    oracle library (same pattern as {!Reference}): the qcheck differential suite asserts that
    the class graph preserves exactly the reachable markings, deadlock
    set and place bounds this expansion computes.  Serial and boxed
    only — an oracle has no throughput requirements; use
    {!Pnut_reach.Timed} for real workloads. *)

type label =
  | Fire of Pnut_core.Net.transition_id
  | Complete of Pnut_core.Net.transition_id
  | Tick of float

type state = {
  ts_index : int;
  ts_marking : int array;
  ts_in_flight : (Pnut_core.Net.transition_id * float) list;
      (** residual firing times, sorted *)
  ts_pending : (Pnut_core.Net.transition_id * float) list;
      (** residual enabling times of enabled transitions, sorted *)
  ts_env : (string * Pnut_core.Value.t) list;
}

type edge = {
  e_from : int;
  e_label : label;
  e_to : int;
}

type t

val build : ?max_states:int -> ?horizon:float -> Pnut_core.Net.t -> t
(** [horizon] bounds accumulated time along any path (default: none);
    [max_states] defaults to 50_000.  Raises [Invalid_argument] on
    stochastic delays, predicates or actions. *)

val build_supervised :
  ?max_states:int ->
  ?horizon:float ->
  ?budget:Pnut_exec.Budget.t ->
  Pnut_core.Net.t ->
  t Pnut_exec.Supervisor.outcome
(** {!build} under a budget, polled on the dequeue boundary. *)

val complete : t -> bool
val num_states : t -> int
val num_edges : t -> int
val state : t -> int -> state
val initial : t -> int
val successors : t -> int -> edge list

val deadlocks : t -> int list
(** Timed-dead states: nothing fireable, nothing in flight, nothing
    pending. *)

val earliest_times : t -> float array
(** Earliest accumulated time to reach each state (Dijkstra over Tick
    weights). *)

val min_cycle_time : t -> Pnut_core.Net.transition_id -> float option
(** Shortest accumulated time before the transition first starts firing
    on any path; [None] if it never fires. *)

val max_tokens : t -> Pnut_core.Net.place_id -> int

val pp_summary : Format.formatter -> t -> unit
