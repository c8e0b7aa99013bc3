(** Deadlock-preserving stubborn-set partial-order reduction.

    At each expansion, instead of firing every enabled transition, fire
    only the enabled members of a {e stubborn set}: a set closed so that
    no transition outside it can interfere with a member (Valmari's D1)
    and containing an enabled transition that stays enabled under any
    outside firing sequence (D2).  The reduced graph reaches {e exactly}
    the deadlock markings of the full graph, and — because the conflict
    relation used here links any two transitions sharing a place — the
    exact per-place bounds on terminating nets.  Intermediate
    interleavings are {e not} preserved: CTL over the full graph, state
    or edge counts, and path-sensitive queries must use the full build.

    The chosen set is a deterministic function of the marking, so
    repeated builds, and the frozen boxed oracle the tests compare
    against, produce the same reduced graph. *)

val unsupported : Pnut_core.Net.t -> string option
(** [None] when the net is plain (no variables, tables, predicates or
    actions) and the reduction is sound; otherwise a one-line message
    naming the first offending feature (and its transition).  This is
    what [--por auto] consults. *)

type t
(** Per-net static structure: the compiled transitions plus the
    {!Pnut_core.Incidence.conflicts} / [enablers] / [consumers]
    relations the closure walks.  Immutable; share freely across
    workers. *)

val create : Pnut_core.Kernel.t -> t
(** Precomputes the relations and runs the {!reduces} test.  @raise
    Invalid_argument with {!unsupported}'s message when it is [Some _]
    for the kernel's net. *)

val reduces : t -> bool
(** [false] when the net's structure guarantees that no stubborn set is
    ever smaller than the enabled set.  Whatever the marking, a closure
    member [t] pulls in at least A(t): its [conflicts] intersected with
    the producers of each input place and the consumers of each
    inhibitor place (only those arcs can disable it).  When the digraph
    t -> A(t) is strongly connected, every closure captures every
    transition, so {!fired} always returns the full enabled set; it then
    skips the closures, and a builder can skip {!fired} altogether.  The
    9-place ring of single-input transitions is such a net; the
    [indep] family, the pipeline and the prefetch models are not.
    Computed in [O(sum of the relation sizes)] by {!create}. *)

type scratch
(** Mutable per-worker workspace ([O(num_transitions)] words).  Not
    thread-safe; give each domain its own. *)

val scratch : t -> scratch

val fired : t -> scratch -> Pnut_core.Marking.t -> int array
(** The transition ids to fire at this marking: the enabled members of
    the smallest stubborn set found over a few candidate seeds, sorted
    ascending.  Empty iff the marking is a deadlock; equal to the full
    enabled set when no reduction applies.  All returned transitions
    are token-enabled at the marking.  Allocates the returned array and
    nothing else. *)

val enabled_count : scratch -> int
(** The number of token-enabled transitions at the marking of the last
    {!fired} call on this scratch. *)
