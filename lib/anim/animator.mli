(** The animator, as a textual visual discrete-event simulation.

    The original P-NUT animator "deliberately animates the flow of tokens
    over arcs in order to give the user time to understand the effect of
    state transitions" (Figure 6).  This ASCII substitution renders each
    trace event as a short sequence of frames: tokens leave the input
    places, travel over the arcs into the transition, and emerge onto the
    output places.  Frames can be played to a channel (optionally paced)
    or single-stepped.

    It is a {e visual discrete-event simulation}, not a true animation:
    the simulation clock jumps between frames exactly as the paper
    cautions. *)

type phase =
  | Consume  (** input tokens leave their places onto the arcs *)
  | Transit  (** tokens are inside the firing transition *)
  | Produce  (** output tokens arrive on the output places *)

type frame = {
  f_time : float;
  f_step : int;          (** index of the trace delta *)
  f_phase : phase;
  f_caption : string;    (** e.g. "Start_prefetch consumes Bus_free" *)
  f_text : string;       (** fully rendered frame *)
}

val sink :
  ?places:string list ->
  Pnut_core.Net.t ->
  (frame -> unit) ->
  Pnut_trace.Trace.sink
(** Streaming renderer: calls the callback with each frame as trace
    records arrive, holding only the current state, which starts from
    the trace header (a resumed trace starts at its checkpoint) —
    suitable for animating an unbounded piped trace.  [places]
    restricts the state panel (default all); a name that is not a place
    of [net] raises [Invalid_argument] here, naming it.  [on_header]
    raises [Invalid_argument] if the trace was not produced from (a net
    isomorphic to) [net] — place/transition name tables must match. *)

val frames :
  ?places:string list ->
  Pnut_core.Net.t ->
  Pnut_trace.Trace.t ->
  frame list
(** Renders the whole trace; [places] restricts the state panel (default
    all) as in {!sink}.  Raises [Invalid_argument] if the trace was not
    produced from (a net isomorphic to) [net] — place/transition name
    tables must match. *)

val render_state :
  ?places:string list -> Pnut_core.Net.t -> Pnut_core.Marking.t -> string
(** Just the state panel: one row per place with a token gauge; [places]
    as in {!sink}. *)

val play : ?delay_s:float -> out_channel -> frame list -> unit
(** Prints frames in order, separated by rules; [delay_s] paces the
    playback (default 0: as fast as possible, for tests and piping). *)
