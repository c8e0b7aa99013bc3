(** Coverability analysis (Karp-Miller).

    Ordinary reachability exploration of an unbounded net just hits the
    state cap without a verdict.  The Karp-Miller construction
    accelerates unbounded growth into [ω] ("arbitrarily many tokens"),
    always terminates, and decides boundedness per place: a place is
    unbounded iff some coverability node marks it [ω].

    Restrictions: nets with inhibitor arcs or predicates are rejected
    with [Invalid_argument] naming the transition and the feature — the
    acceleration argument needs plain monotone firing (more tokens never
    disable a transition), which inhibitors break.  Actions are likewise
    rejected (the environment is not part of the covering order).

    When the net's P-invariants ({!Pnut_core.Incidence.p_invariants})
    give every place a positive weight, no reachable marking strictly
    dominates another, so the build fires without acceleration and
    keeps no ancestor chains; the graph is the same.  Declared
    capacities are not enforced and play no part in that test. *)

type token =
  | Finite of int
  | Omega

type node = {
  n_index : int;
  n_marking : token array;
}

type edge = {
  e_from : int;
  e_transition : Pnut_core.Net.transition_id;
  e_to : int;
}

type t

val build : ?max_states:int -> Pnut_core.Net.t -> t
(** [max_states] (default 100_000) is a safety net; genuine Karp-Miller
    trees are finite but can be huge.  Raises [Invalid_argument] on nets
    with inhibitors, predicates or actions, before any exploration. *)

val build_supervised :
  ?max_states:int ->
  ?budget:Pnut_exec.Budget.t ->
  Pnut_core.Net.t ->
  t Pnut_exec.Supervisor.outcome
(** {!build} under a budget, polled every 256 DFS pops.  A tripped
    limit —
    including the state cap — yields [Degraded] with the partial graph
    and visited/frontier counts; a budgeted build that completes
    returns a graph identical to {!build}'s.  Still raises
    [Invalid_argument] on out-of-fragment nets (a structural rejection,
    not a resource condition). *)

val num_nodes : t -> int
val node : t -> int -> node
val edges : t -> edge list
val successors : t -> int -> edge list
val complete : t -> bool

val is_bounded : t -> bool
(** No [ω] anywhere: the net is bounded. *)

val place_bound : t -> Pnut_core.Net.place_id -> int option
(** Maximum token count over all coverability nodes; [None] when the
    place is unbounded. *)

val unbounded_places : t -> Pnut_core.Net.place_id list

val covers : t -> int array -> bool
(** [covers g m] — is some reachable marking (in the covering sense)
    at least [m]?  This is the classical coverability question, e.g.
    "can two tokens ever sit on the critical section place". *)

val pp_summary : Pnut_core.Net.t -> Format.formatter -> t -> unit
