(** Incidence matrices and classical structural analysis.

    These give the algebraic counterpart of the paper's informal invariants
    — e.g. the Bus_free/Bus_busy pair of Section 4.2 whose token sum must
    always be one is exactly a P-invariant with weight 1 on both places.
    P-invariants found here are also used by tests to cross-check the
    simulator (token conservation along any firing sequence). *)

type t
(** Integer incidence matrix [C] with [C.(p).(t) = W(t,p) - W(p,t)].
    Inhibitor arcs do not move tokens and do not appear. *)

val of_net : Net.t -> t

val entry : t -> Net.place_id -> Net.transition_id -> int

val num_places : t -> int
val num_transitions : t -> int

val apply : t -> int array -> Net.transition_id -> unit
(** In-place marking update by one firing (no enabledness check). *)

val p_invariants : t -> int array list
(** Minimal-support non-negative place invariants (Farkas' algorithm):
    vectors [y >= 0], [y <> 0] with [y^T C = 0].  For every reachable
    marking [m], [y . m = y . m0]. *)

val t_invariants : t -> int array list
(** Non-negative transition invariants: [C x = 0]; firing each transition
    [x(t)] times reproduces the marking. *)

val conserved : t -> int array -> bool
(** [conserved c y] checks [y^T C = 0]. *)

val weighted_sum : int array -> int array -> int
(** [weighted_sum y m] is the invariant value [y . m]. *)

val place_bounds : Net.t -> int option array
(** Per-place upper bound on the token count over all reachable
    markings, or [None] when no bound is known.  Combines the declared
    capacities with the P-invariant bounds [(y . M0) / y_p] for every
    invariant with [y_p > 0]; invariants are skipped on nets larger
    than 200 places or transitions (Farkas can explode), falling back
    to capacities alone.  A declared capacity is taken at face value —
    callers that size storage from these bounds must keep a checked
    overflow path. *)

(** {2 Static dependency relations}

    The per-net structure the stubborn-set reduction of
    [Reach.Graph.build ~por:true] closes over; precomputed once from
    the arc lists, no marking involved. *)

val conflicts : Net.t -> int array array
(** [(conflicts net).(t)]: the transitions [t' <> t] that touch a
    common place with [t] through {e any} arc — a shared input place
    (token competition), an inhibitor arc on a place the other reads or
    moves (either direction), or a shared output place (interleaving
    order decides the place's intermediate peaks).  Sorted ascending.
    Symmetric: [t' ∈ conflicts(t)] iff [t ∈ conflicts(t')].
    Transitions touching disjoint place sets never conflict — the
    reduction exploits exactly that independence. *)

val enablers : Net.t -> int array array
(** [(enablers net).(p)]: the transitions whose firing strictly
    increases the token count of place [p] (net arc delta [> 0]) — the
    only candidates that can cure an insufficient input place of a
    disabled transition.  A self-loop returning what it takes appears
    in neither this nor {!consumers}.  Sorted ascending. *)

val consumers : Net.t -> int array array
(** [(consumers net).(p)]: the transitions whose firing strictly
    decreases the token count of place [p] (net arc delta [< 0]) — the
    only candidates that can release an over-threshold inhibitor place
    of a disabled transition.  Sorted ascending. *)

val pp_vector : Net.t -> [ `Place | `Transition ] -> Format.formatter ->
  int array -> unit
(** Renders e.g. [Bus_free + Bus_busy] with names from the net. *)
