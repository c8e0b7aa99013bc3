(** The P-NUT simulation engine.

    "The P-NUT simulator is a simple simulation engine which pushes tokens
    around a Timed Petri Net. [...] The simulator simply generates a
    trace."  Analysis is left to downstream tools consuming the trace
    through a {!Pnut_trace.Trace.sink}.

    {2 Semantics}

    - A transition is {e enabled} when every input place holds at least
      the arc weight, every inhibitor place holds fewer tokens than the
      arc weight, and its predicate (if any) evaluates to true.
    - {e Enabling time}: when a transition becomes enabled its enabling
      delay is sampled; it becomes {e fireable} after remaining
      continuously enabled for that long.  Disabling or firing resets the
      clock (restart policy, single enabling clock per transition).
    - {e Firing time}: at fire-start the input tokens are consumed
      (a [Fire_start] delta); at fire-end, after the sampled firing
      duration, output tokens are produced and the action runs (a
      [Fire_end] delta).  During firing, tokens are on neither side, as in
      the paper.  Zero firing time produces both deltas at the same
      instant.  A transition may accumulate several in-flight firings.
    - {e Conflicts} among simultaneously fireable transitions are resolved
      probabilistically: each is chosen with probability proportional to
      its relative firing frequency among the currently fireable set,
      recomputed after every firing (the dynamic semantics of [WPS86]).
    - Actions may assign scalars ([x = e]) and table slots
      ([tbl[i] = e]); both are recorded in the trace ([tbl[i]] appears as
      a variable named ["tbl[3]"]).

    A per-instant firing cap (default [10_000]) turns zero-delay livelocks
    into a [Sim_error] instead of a hang. *)

type t
(** Simulation state: net, marking, environment, clock, future events. *)

(** {2 Structured errors}

    Every way a simulation can abort carries its context: the clock, the
    offending transition or place, and the limit that was breached. *)

type error =
  | Livelock of { clock : float; firings : int }
      (** more than [max_instant_firings] firings at one instant *)
  | Transition_error of
      { transition : string; what : string; clock : float; message : string }
      (** its action, predicate or dynamic delay ([what]) failed to
          evaluate (unbound table, index out of bounds, type error) *)
  | Restore_error of string
      (** a checkpoint does not match the net it is restored into *)

exception Sim_error of error

val error_message : error -> string
(** One-line human-readable rendering of an {!error}. *)

val create :
  ?seed:int ->
  ?prng:Pnut_core.Prng.t ->
  ?sink:Pnut_trace.Trace.sink ->
  ?max_instant_firings:int ->
  Pnut_core.Net.t -> t
(** Builds the initial state and emits the trace header to [sink].
    [prng] overrides [seed] (default seed 1).  The simulator does not
    enforce place capacities: a run may overfill a place, and the
    static and reachability analyses are what check capacity
    declarations.  The first enabledness scan may raise here. *)

val clock : t -> float
val marking : t -> Pnut_core.Marking.t
(** A copy of the current marking. *)

val tokens : t -> string -> int
(** Current token count of a place by name. Raises [Not_found]. *)

val env : t -> Pnut_core.Env.t
(** The live environment (mutating it affects the run). *)

val in_flight : t -> int array
(** Current number of unfinished firings per transition id. *)

val events_started : t -> int

(** One micro-step of the engine. *)
type step_result =
  | Fired of Pnut_core.Net.transition_id
      (** a firing started (and, for zero firing time, also ended) *)
  | Completed of Pnut_core.Net.transition_id
      (** an in-flight firing ended *)
  | Advanced of float  (** clock moved to the given time; nothing fired *)
  | Quiescent
      (** no enabled transition and no pending event: the net is dead *)

val step : t -> step_result
(** Takes the move {!run} would take next with no horizon: start a
    fireable transition, else end a firing due now, else advance the
    clock to the next instant. *)

val fireable_transitions : t -> Pnut_core.Net.transition_id list
(** Transitions that could start firing at the current instant (enabled
    with their enabling delay elapsed). *)

val fire_transition : t -> Pnut_core.Net.transition_id -> unit
(** Manually resolve the current conflict: start firing this specific
    transition instead of drawing one probabilistically (interactive
    state-space exploration).  Raises [Invalid_argument] if it is not
    currently fireable. *)

(** Why a run stopped. *)
type stop_reason =
  | Horizon     (** the [until] time was reached *)
  | Dead        (** quiescence: deadlock or terminated net *)
  | Event_limit (** [max_events] firings started *)
  | Budget_exhausted of Pnut_exec.Supervisor.reason
      (** a [?budget] limit tripped; the run stopped gracefully at the
          current clock with a well-formed partial trace *)

type outcome = {
  stop : stop_reason;
  final_clock : float;
  started : int;
  finished : int;
}

val run :
  ?until:float -> ?max_events:int -> ?budget:Pnut_exec.Budget.t ->
  ?finish:bool ->
  t -> outcome
(** Runs until the horizon, the event limit, or quiescence; emits
    [on_finish] to the sink.  When the horizon is hit, the final clock is
    exactly [until] (in-flight events beyond it stay unprocessed).  At
    least one of [until] and [max_events] must be given.  Raises
    [Invalid_argument] if [until] is before the current clock (a
    restored state may start late) or is NaN: a run never rewinds.

    [budget] supervises the run: wall, heap and cancellation are polled
    on the 256-step watchdog slot.  A tripped
    limit does not raise — the run stops at the current clock, emits
    [on_finish] (so the partial trace is well-formed) and returns
    [stop = Budget_exhausted _].  A budgeted run that completes is
    byte-identical to an unbudgeted one.

    [finish] (default [true]) controls whether [on_finish] is emitted
    when this call stops at its horizon; pass [false] to pause a run
    that will be continued with a later horizon (segmented runs,
    checkpointing). *)

val check_horizon : float -> clock:float -> unit
(** Raises {!run}'s [Invalid_argument] when [until] is before [clock]
    or is NaN, for a caller that checks before it opens any output. *)

val simulate :
  ?seed:int ->
  ?prng:Pnut_core.Prng.t ->
  ?max_instant_firings:int ->
  ?until:float ->
  ?max_events:int ->
  ?sink:Pnut_trace.Trace.sink ->
  Pnut_core.Net.t -> outcome
(** [create] + [run] in one call. *)

val trace :
  ?seed:int ->
  ?until:float ->
  ?max_events:int ->
  Pnut_core.Net.t -> Pnut_trace.Trace.t * outcome
(** Convenience: simulate into an in-memory trace. *)

(** {2 Deadlock diagnosis}

    When a run ends [Dead], the quiescence has a concrete, explainable
    cause: every transition is blocked by specific places, inhibitors
    or predicates.  [diagnose] computes that explanation
    from the current state. *)

type block_reason =
  | Missing_tokens of { place : string; have : int; need : int }
  | Inhibited of { place : string; have : int; limit : int }
  | Predicate_false of string  (** the predicate in concrete syntax *)
  | Awaiting_enabling of { ready_at : float }
      (** enabled but its enabling delay has not elapsed *)

type transition_diagnosis = {
  td_name : string;
  td_reasons : block_reason list;
      (** empty means the transition is fireable right now *)
}

type diagnosis = {
  dg_clock : float;
  dg_last_activity : float;
      (** clock of the most recent firing start or completion (the
          initial clock if nothing fired yet): when the net actually
          died, even though a [Dead] run fast-forwards the clock to
          the horizon *)
  dg_marking : (string * int) list;  (** places with a nonzero count *)
  dg_transitions : transition_diagnosis list;
}

val diagnose : t -> diagnosis
(** Never mutates the state (predicates are evaluated against a copy of
    the random stream). *)

val pp_diagnosis : Format.formatter -> diagnosis -> unit

(** {2 Checkpoint / restore} *)

val checkpoint : t -> Checkpoint.t
(** Snapshot of the full engine state (marking, environment, clock,
    random stream, enabling deadlines, in-flight firings, pending
    events, counters).  The trace sink is {e not} part of the snapshot;
    supply a fresh one on restore. *)

val restore :
  ?sink:Pnut_trace.Trace.sink ->
  ?max_instant_firings:int ->
  Pnut_core.Net.t -> Checkpoint.t -> t
(** Rebuilds a simulator mid-flight from a checkpoint taken on the same
    net.  Continuing the restored state produces exactly the same event
    sequence as the uninterrupted run (the header is re-emitted to the
    new [sink]; deltas then continue from the checkpointed instant).
    Raises [Sim_error (Restore_error _)] if the checkpoint does not
    match the net (name, place or transition count). *)
