(** Untimed reachability graphs [MR87].

    Classical interleaving semantics: any fully enabled transition (token
    conditions and predicate) may fire atomically, consuming, producing
    and running its action.  Timing is ignored.  Interpreted nets are
    supported as long as every predicate, action and duration involved is
    deterministic (no [irand]); the environment is part of the state.

    Construction is breadth-first with a state cap; a capped graph is
    flagged [complete = false] and all analyses on it are reported as
    bounds, not facts. *)

type state = {
  s_index : int;
  s_marking : int array;
  s_env : (string * Pnut_core.Value.t) list;  (** scalar bindings *)
}

type edge = {
  e_from : int;
  e_transition : Pnut_core.Net.transition_id;
  e_to : int;
}

type t

val build :
  ?max_states:int ->
  ?por:bool ->
  Pnut_core.Net.t ->
  t
(** Default cap: 100_000 states.  Raises [Invalid_argument] if the net
    has stochastic predicates or actions.  The build is a serial
    breadth-first sweep on the calling domain.

    States are bit-packed in the {!Store} arena and edges CSR-encoded.
    Field widths come from {!Pnut_core.Incidence.place_bounds}; a place
    with no known bound starts from a guessed width, and a token count
    that outgrows its field re-lays the arena out ({!Packed.widen}), so
    unbounded nets build too, up to the cap.  The frozen boxed builder
    the test suites compare against interns in the same order, so the
    numbering, edge order and truncation are fixed by the net alone.

    [por] (default [false]) applies the deadlock-preserving stubborn-set
    reduction of {!Stubborn}: at each state only the enabled members of
    a stubborn set fire, shrinking wide concurrent graphs by orders of
    magnitude while reaching exactly the same deadlock markings (and,
    on terminating nets, the same per-place bounds).  State and edge
    counts, CTL over the full graph and path-sensitive queries are not
    preserved — build without [por] for those.  The reduced set is a
    deterministic function of the marking, so the numbering is still
    fixed by the net.  Raises [Invalid_argument] when the net has
    variables, tables, predicates or actions (pre-check with
    {!Stubborn.unsupported}). *)

val build_supervised :
  ?max_states:int ->
  ?jobs:int ->
  ?budget:Pnut_exec.Budget.t ->
  ?packed:bool ->
  ?por:bool ->
  Pnut_core.Net.t ->
  t Pnut_exec.Supervisor.outcome
(** {!build} under a budget.  Wall, heap and cancellation are polled on
    the interning cadence (every 256 expanded states).  A tripped
    limit — including the state cap — yields [Degraded] carrying the
    partial graph (a valid prefix: every interned state is present, only
    the unexpanded frontier is missing outgoing edges) plus a progress
    snapshot with visited and frontier counts.  A budgeted build that
    completes returns a graph identical to {!build}'s.

    [jobs] and [packed] are accepted for compatibility and ignored:
    every build runs serially on the calling domain, into the packed
    store. *)

val net : t -> Pnut_core.Net.t
val complete : t -> bool
val num_states : t -> int
val num_edges : t -> int

val por_reduction : t -> float
(** The per-state branching reduction: token-enabled firings the full
    expansion would have taken at every recorded state (expanded or
    left on a budget-tripped frontier), over the edges recorded.
    Counted during the sweep; a lower bound on the state-count
    reduction.  [1.0] when the build ran without [por]. *)

val state : t -> int -> state
val initial : t -> int
val successors : t -> int -> edge list
val predecessors : t -> int -> edge list
val edges : t -> edge list

val find_state : t -> int array -> int option
(** Look up a marking (ignores the environment if several states share
    the marking — returns the first). *)

val packed_bytes_per_state : t -> float option
(** Store footprint (arena + index bytes over states).  Always [Some]:
    the option survives for callers written when a boxed layout
    existed. *)

(** {2 Analyses} *)

val deadlocks : t -> int list
(** States with no enabled transition. *)

val bound : t -> Pnut_core.Net.place_id -> int
(** Max token count of the place over all reachable states. *)

val is_safe : t -> bool
(** Every place holds at most one token in every reachable state. *)

val dead_transitions : t -> Pnut_core.Net.transition_id list
(** Transitions that fire on no edge (not L1-live). *)

val is_reversible : t -> bool
(** The initial state is reachable from every reachable state.  Every
    recorded state is reachable from the initial one (in a truncated
    prefix too), so this holds exactly when the recorded graph is one
    strongly connected component: {!Store.strongly_connected}.  Two
    index-order passes over the edges mark the states that reach the
    initial one; they answer exactly when they mark every state (true)
    or when a pass marks nothing (false: the marks are then every state
    that reaches it).  Otherwise a depth-first search decides, stopping
    at the first component it closes.  No predecessors are built. *)

val pp_summary : Format.formatter -> t -> unit
