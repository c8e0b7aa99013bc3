(** The pre-optimization simulation engine, frozen as a differential
    baseline.

    Semantically equivalent to {!Pnut_sim.Simulator} — same trace deltas, random
    draw order, checkpoints, errors and outcomes on the same seed — but
    implemented the straightforward way: every step rescans all
    transitions, [next_instant] sweeps every deadline, and predicates,
    delays and actions are interpreted AST walks.  The differential test
    suite runs both engines on random nets and asserts bit-identical
    results, and the bench measures its throughput next to the fast
    engine's.  It lives in the test-only oracle library: nothing
    shipped links it.

    All result types are re-exported from {!Pnut_sim.Simulator}; only the state
    type [t] is distinct. *)

type t

val create :
  ?seed:int ->
  ?prng:Pnut_core.Prng.t ->
  ?sink:Pnut_trace.Trace.sink ->
  ?max_instant_firings:int ->
  Pnut_core.Net.t -> t

val net : t -> Pnut_core.Net.t
val clock : t -> float
val marking : t -> Pnut_core.Marking.t
val tokens : t -> string -> int
val env : t -> Pnut_core.Env.t
val in_flight : t -> int array
val events_started : t -> int
val events_finished : t -> int
val last_activity : t -> float

val step : t -> Pnut_sim.Simulator.step_result

val fireable_transitions : t -> Pnut_core.Net.transition_id list
val fire_transition : t -> Pnut_core.Net.transition_id -> unit

val run :
  ?until:float -> ?max_events:int -> ?budget:Pnut_exec.Budget.t ->
  ?finish:bool ->
  t -> Pnut_sim.Simulator.outcome

val simulate :
  ?seed:int ->
  ?prng:Pnut_core.Prng.t ->
  ?max_instant_firings:int ->
  ?until:float ->
  ?max_events:int ->
  ?sink:Pnut_trace.Trace.sink ->
  Pnut_core.Net.t -> Pnut_sim.Simulator.outcome

val diagnose : t -> Pnut_sim.Simulator.diagnosis

val checkpoint : t -> Pnut_sim.Checkpoint.t

val restore :
  ?sink:Pnut_trace.Trace.sink ->
  ?max_instant_firings:int ->
  Pnut_core.Net.t -> Pnut_sim.Checkpoint.t -> t
