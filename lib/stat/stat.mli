(** The statistical analysis tool ([stat]).

    Extracts performance information from simulation traces, exactly in
    the paper's terms: everything is reported "in terms of places and
    transitions", and "the mapping between this information and
    higher-level concepts such as processor utilization is left up to the
    user" (Section 4.2).

    - For each {b place}: min/max/time-averaged token count with standard
      deviation.  With mutually-exclusive condition places (Bus_free /
      Bus_busy), the average token count of the busy place {e is} the
      resource utilization.
    - For each {b transition}: min/max/time-averaged number of concurrent
      firings with standard deviation, counts of started and finished
      firings, and throughput (firings finished / simulation time) — the
      paper's measure of processing rate.

    Averages are time-weighted over [initial clock, final clock].
    Transitions with zero firing time never accumulate busy time, so their
    average concurrency is 0 — the paper's Figure 5 shows exactly this for
    the instantaneous [Issue]/[Type_n] transitions. *)

type place_stats = {
  ps_name : string;
  ps_min : int;
  ps_max : int;
  ps_avg : float;
  ps_stddev : float;
  ps_final : int;  (** token count at the end of the run *)
}

type transition_stats = {
  ts_name : string;
  ts_min : int;           (** min concurrent firings *)
  ts_max : int;
  ts_avg : float;
  ts_stddev : float;
  ts_starts : int;
  ts_ends : int;
  ts_throughput : float;  (** ends / simulation length *)
}

type report = {
  run_number : int;
  initial_clock : float;
  length : float;          (** final clock - initial clock *)
  events_started : int;
  events_finished : int;
  places : place_stats array;
  transitions : transition_stats array;
}

val sink : ?run:int -> unit -> Pnut_trace.Trace.sink * (unit -> report)
(** Streaming accumulator; the getter raises [Invalid_argument] before
    [on_finish] has been seen.  The sink raises [Invalid_argument] on a
    delta (or end record) timestamped before the clock already reached:
    time-weighted averages are meaningless over such a trace, so it is
    rejected instead of silently mis-accounted. *)

val of_trace : ?run:int -> Pnut_trace.Trace.t -> report

val place : report -> string -> place_stats
(** Lookup by name; raises [Not_found]. *)

val transition : report -> string -> transition_stats
(** Lookup by name; raises [Not_found]. *)

val utilization : report -> string -> float
(** [utilization r p] is the average token count of place [p] — the bus /
    decoder / execution-unit utilization reading of Section 4.2. *)

val throughput : report -> string -> float
(** Transition throughput by name — e.g. the instruction processing rate
    is [throughput r "Issue"]. *)

val render : report -> string
(** The three Figure-5 tables (RUN STATISTICS, EVENT STATISTICS, PLACE
    STATISTICS) as aligned plain text. *)

val render_tsv : report -> string
(** Machine-readable: one line per place/transition, tab-separated. *)

val pp : Format.formatter -> report -> unit
