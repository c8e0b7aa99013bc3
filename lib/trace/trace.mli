(** Simulation traces.

    Following the paper, a trace is "the description of the initial state
    of the system, followed by a series of state deltas describing how the
    state of the system changes over time".  The simulator knows nothing
    about analysis; it emits a trace, and analysis tools consume traces.

    Two consumption styles are supported, mirroring P-NUT:
    - {b streaming}: the simulator output is "plugged" into an analysis
      tool through a {!sink}, avoiding large intermediate files;
    - {b stored}: an in-memory {!t} (or its textual serialization, see
      {!Codec}) that can be replayed into any sink.

    The textual format is deliberately independent of the Petri-net tooling
    so that traces "can be easily generated from SIMSCRIPT simulations as
    well as any other simulation language" — any producer emitting the
    documented format interoperates. *)

type event_kind =
  | Fire_start  (** a transition began firing: input tokens consumed *)
  | Fire_end    (** a transition completed: output tokens produced *)

type delta = {
  d_time : float;
  d_kind : event_kind;
  d_transition : int;               (** transition id *)
  d_firing : int;                   (** firing-instance id, pairs start/end *)
  d_marking : (int * int) list;     (** (place id, token delta) *)
  d_env : (string * Pnut_core.Value.t) list;
      (** variable updates applied by the event's action *)
}

(** Static description heading every trace. *)
type header = {
  h_net : string;                      (** net name *)
  h_places : string array;             (** index = place id *)
  h_transitions : string array;        (** index = transition id *)
  h_initial : int array;               (** initial marking *)
  h_variables : (string * Pnut_core.Value.t) list;  (** initial bindings *)
}

val header_of_net : Pnut_core.Net.t -> header

(** {2 Streaming}

    A stream hands each delta to its consumer as a {!view}: one
    record per stream, overwritten in place for every event, whose
    marking and variable updates are arrays read up to a length.  A
    producer points the view at arrays it already holds (the
    simulator at the kernel's per-transition deltas, the binary reader
    at its marking dictionary), so no record is built per event. *)

type view = {
  v_time : float array;  (** one slot, the event time; see {!time} *)
  mutable v_kind : event_kind;
  mutable v_transition : int;
  mutable v_firing : int;
  mutable v_places : int array;
  mutable v_counts : int array;
      (** entry [i < v_marking_n] moves [v_counts.(i)] tokens in place
          [v_places.(i)] *)
  mutable v_marking_n : int;
  mutable v_names : string array;
  mutable v_values : Pnut_core.Value.t array;
      (** entry [i < v_env_n] sets variable [v_names.(i)] *)
  mutable v_env_n : int;
}
(** The delta being delivered.  A view and the arrays it points at are
    valid only during the [on_delta] call that receives it: the
    producer overwrites them for the next event.  A consumer reads
    them and must neither keep nor change them; it copies what it
    wants to keep. *)

val view : unit -> view
(** An empty view owning empty arrays, for a producer to fill. *)

val time : view -> float

val add_marking : view -> int -> int -> unit
val add_env : view -> string -> Pnut_core.Value.t -> unit
(** Append one entry past [v_marking_n] (resp. [v_env_n]), growing the
    array.  Only for a view whose arrays its producer owns. *)

val emit : (view -> unit) -> delta -> unit
(** [emit f] fills one view, reused by every call of the partial
    application, from each delta and passes it to [f]: the adapter from
    stored deltas to consumers of views. *)

(** Streaming consumer. *)
type sink = {
  on_header : header -> unit;
  on_delta : view -> unit;
  on_finish : float -> unit;  (** called once with the final clock value *)
}

val null_sink : sink

val tee : sink list -> sink
(** Broadcasts to several sinks in order; [tee [s]] is [s]. *)

(** {2 Stored traces} *)

type t

val header : t -> header
val deltas : t -> delta array
val final_time : t -> float
val length : t -> int

val make : header -> delta list -> float -> t

val collector : unit -> sink * (unit -> t)
(** [collector ()] returns a sink, which stores a copy of each view as
    a {!delta}, and a function producing the stored trace once
    [on_finish] has been seen. The function raises
    [Invalid_argument] if the trace is incomplete. *)

val replay : t -> sink -> unit
(** Hands the stored deltas to the sink through {!emit}. *)

(** {2 Replay}

    Every analysis tool reads a trace the same way: start from the
    header's state and apply the deltas in order. *)

type cursor
(** The state of a trace after some prefix of its deltas: marking,
    per-transition count of firings started but not yet ended (the
    "concurrent firings" signal of the paper's statistics and tracer
    displays) and variable bindings. *)

val cursor : header -> cursor
(** The initial state the header describes.  Raises [Invalid_argument]
    if the header binds a variable twice (both trace readers reject
    such a header). *)

val step : cursor -> view -> unit
(** Applies every marking entry of the view, its start or end and
    every variable update.  [emit (step c)] steps stored deltas. *)

val marking : cursor -> int array
val in_flight : cursor -> int array
(** Live arrays, indexed by header place and transition id; [step]
    updates them in place.  Do not mutate them. *)

val env : cursor -> Pnut_core.Env.t
(** The live variable bindings. *)

(** What a name denotes in a trace's state. *)
type source =
  | Place of int       (** token count of the place *)
  | Transition of int  (** concurrent firings of the transition *)
  | Variable of string (** the variable's value *)

val lookup : cursor -> string -> source list
(** Everything the name denotes, in precedence order: the place, then
    the transition, then the variable.  A free identifier of a query or
    a signal function denotes the head of the list. *)

val read : cursor -> source -> Pnut_core.Value.t
(** The source's value in the cursor's current state. *)
