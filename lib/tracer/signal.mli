(** Signals: time series extracted from a trace.

    Tracertool is "a software logic state analyzer": the user places
    probes on places and transitions and may define arbitrary functions of
    them.  A {!t} names such a probe; {!sample} turns it into a
    piecewise-constant series of (time, value) breakpoints. *)

type t =
  | Place of string
      (** token count of a place over time *)
  | Transition of string
      (** number of concurrent firings of a transition over time *)
  | Var of string
      (** value of a model variable over time (numeric) *)
  | Fun of string * Pnut_core.Expr.t
      (** named user-defined function; free variables resolve to place
          token counts, then transition activities, then model
          variables *)

val label : t -> string

type series = {
  times : float array;
      (** breakpoint times, non-decreasing; several breakpoints may share
          a time when the signal changed more than once at one instant
          (zero-width pulses) *)
  values : float array;  (** value from [times.(i)] (inclusive) onwards *)
  t_end : float;         (** end of the observation window *)
}

val value_at : series -> float -> float
(** Value in effect at a given time (the last breakpoint at or before
    it; before the first breakpoint, the first value). *)

val sample : Pnut_trace.Trace.t -> t list -> (t * series) list
(** Extracts all requested signals in one pass over the trace.
    Raises [Invalid_argument] naming the signal if a name matches no
    place, transition or variable, or if a value is not a number or
    fails to evaluate. *)

val to_csv : Pnut_trace.Trace.t -> t list -> string
(** The sampled signals as CSV for external plotting: a [time] column
    followed by one column per signal, one row per instant where any
    signal changes (last value per instant), plus a closing row at the
    trace's final time. *)
