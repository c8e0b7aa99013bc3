(** The boxed FIFO reachability builder, frozen as the differential
    oracle for the packed {!Pnut_reach.Graph}.

    Per-state records, successor and predecessor edge lists, and a
    {!Statekey} hashtable index: the representation
    {!Pnut_reach.Graph} shipped before the packed store became its only
    layout.  It interns states in the same FIFO order, records edges at
    the same points and polls budgets on the same 256-dequeue cadence,
    so its numbering, edge order and truncation are the packed
    builder's, and the analyses here are computed from its own arrays —
    never through the packed graph.  States and edges reuse
    {!Pnut_reach.Graph}'s record types. *)

type t

val build : ?max_states:int -> ?por:bool -> Pnut_core.Net.t -> t
(** Default cap: 100_000 states.  [por] applies the same
    {!Pnut_reach.Stubborn} reduction as {!Pnut_reach.Graph.build}. *)

val build_supervised :
  ?max_states:int ->
  ?budget:Pnut_exec.Budget.t ->
  ?por:bool ->
  Pnut_core.Net.t ->
  t Pnut_exec.Supervisor.outcome
(** {!build} under a budget, with {!Pnut_reach.Graph.build_supervised}'s
    degradation rules. *)

val complete : t -> bool
val num_states : t -> int
val num_edges : t -> int
val state : t -> int -> Pnut_reach.Graph.state
val successors : t -> int -> Pnut_reach.Graph.edge list
val predecessors : t -> int -> Pnut_reach.Graph.edge list
val edges : t -> Pnut_reach.Graph.edge list
val deadlocks : t -> int list
val bound : t -> Pnut_core.Net.place_id -> int
val is_safe : t -> bool
val is_reversible : t -> bool

val dead_transitions : t -> Pnut_core.Net.transition_id list

val pp_summary : Format.formatter -> t -> unit
(** The same text as {!Pnut_reach.Graph.pp_summary}. *)
