(** Confidence intervals over independent replications.

    The paper's simulator supports "one or more simulation experiments";
    classical output analysis turns those into interval estimates: run
    [n] replications with split random streams, read one scalar per run
    (a utilization, a throughput), and report mean, sample standard
    deviation and a Student-t confidence interval. *)

type estimate = {
  runs : int;
  mean : float;
  stddev : float;      (** sample standard deviation (n-1) *)
  half_width : float;  (** of the confidence interval *)
  confidence : float;  (** e.g. 0.95 *)
}

val of_samples : ?confidence:float -> float list -> estimate
(** [confidence] defaults to 0.95; supported levels are 0.90, 0.95 and
    0.99 (two-sided).  Raises [Invalid_argument] on fewer than two
    samples or an unsupported level. *)

val interval : estimate -> float * float
(** [mean -/+ half_width]. *)

val contains : estimate -> float -> bool
(** Is the value inside the confidence interval? *)

val replicate :
  ?seed:int ->
  ?confidence:float ->
  ?jobs:int ->
  runs:int ->
  until:float ->
  Pnut_core.Net.t ->
  (Stat.report -> float) -> estimate
(** [replicate ~runs ~until net read] simulates [runs] independent
    replications of [net] (split streams derived from [seed]) to the
    horizon, applies [read] to each statistics report, and aggregates.

    [jobs] (resolved by {!Pnut_exec.Pool.resolve}) distributes the runs
    over that many domains.  All random streams are split from the
    master before any run starts, so the estimate is bit-identical for
    every [jobs] value. *)

type partial_sweep = {
  pr_estimate : estimate option;
      (** present when at least two replications completed *)
  pr_samples : float list;  (** completed samples, in run order *)
  pr_completed : int;
  pr_requested : int;
}

exception Aborted of int * Pnut_sim.Simulator.error
(** Replication [n] (counted from 1) stopped on a simulation error; of
    several, the lowest [n]. *)

val sweep :
  ?seed:int ->
  ?jobs:int ->
  ?budget:Pnut_exec.Budget.t ->
  runs:int ->
  until:float ->
  Pnut_core.Net.t -> Stat.report option array Pnut_exec.Supervisor.outcome
(** The replications themselves, simulated once: slot [i] holds run
    [i]'s statistics report, or [None] if the budget cut that run
    short.  Read any number of estimates from it with {!summarize}.

    The budget is sweep-wide.  Its wall limit is an absolute deadline
    shared by all runs; heap limits and cancellation apply per run.
    Runs cut short by the budget are [None] (a truncated horizon would
    bias an estimate), and the sweep is reported [Degraded] with the
    first tripped reason in run order.  A sweep that completes within
    the budget returns [Complete] with the reports of an unbudgeted
    one.  Raises {!Aborted}. *)

val summarize :
  ?confidence:float -> (Stat.report -> float) -> Stat.report option array ->
  partial_sweep
(** Apply [read] to every completed report, in run order, and
    aggregate; the estimate is present when at least two runs
    completed. *)

val pp : Format.formatter -> estimate -> unit
(** e.g. [0.6581 ± 0.0042 (95% CI, 10 runs)]. *)
