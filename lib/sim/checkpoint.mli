(** Serializable simulator snapshots.

    A checkpoint captures everything the engine needs to continue a run
    exactly where it left off: marking, environment, clock, random-stream
    state, enabling deadlines, in-flight firings and the pending event
    queue.  Restoring a checkpoint into a fresh {!Simulator.t} (see
    {!Simulator.checkpoint} / {!Simulator.restore}) and continuing
    produces the same trace suffix as the uninterrupted run — long
    simulations survive crashes and budget exhaustion.

    The textual form is line-based and versioned ([%pnut-checkpoint 1]);
    floats round-trip exactly through hexadecimal notation. *)

type t = {
  ck_net : string;  (** net name, verified on restore *)
  ck_clock : float;
  ck_prng : int64;  (** SplitMix64 state *)
  ck_marking : int array;  (** token count per place id *)
  ck_deadlines : (int * float) list;
      (** (transition id, absolute fire-ready time) for enabled transitions *)
  ck_in_flight : (int * int) list;
      (** (transition id, unfinished firings), nonzero entries only *)
  ck_pending : (float * int * int) list;
      (** (completion time, transition id, firing id) in FIFO pop order *)
  ck_variables : (string * Pnut_core.Value.t) list;
  ck_tables : (string * Pnut_core.Value.t array) list;
  ck_next_firing_id : int;
  ck_started : int;
  ck_finished : int;
  ck_instant_firings : int;
}

val to_string : t -> string

val of_string : string -> t
(** Raises [Parse_error (line, message)] on malformed input. *)

val save : string -> t -> unit
(** [save path ck] writes the textual form to [path]. *)

val load : string -> t
(** Raises [Parse_error] or [Sys_error]. *)

val resume_trace : Pnut_trace.Trace.sink -> Pnut_core.Net.t -> t -> unit
(** Opens the trace of a run resumed from the checkpoint: a header
    holding the checkpoint's marking and variables, then, at the
    checkpoint clock, one [Fire_start] with no marking change for each
    pending completion, in [ck_pending] order and with its own firing
    id.  Every [Fire_end] of the resumed run thus has its start, and
    replaying the trace gives the uninterrupted run's state from the
    cut on. *)

exception Parse_error of int * string
