(** Fault-injection campaigns.

    A campaign sweeps a fault set across [runs] independent random
    streams (the split-stream discipline of
    {!Pnut_sim.Simulator.replications}) and, for every stream, runs the
    {e same} underlying experiment twice: once fault-free (the
    baseline) and once with the faults compiled in.  The report pairs
    the two, so throughput degradation is measured run-by-run on
    identical randomness rather than against an unrelated experiment. *)

type run_class =
  | Completed  (** reached the horizon (or the event limit) *)
  | Deadlocked of float  (** quiescent; the payload is the death time *)
  | Errored of string  (** livelock, capacity violation, ... *)
  | Exhausted of Pnut_exec.Supervisor.reason
      (** the campaign budget tripped mid-run; throughput and firing
          counts cover the simulated prefix *)

type run_result = {
  rr_run : int;  (** 1-based run number *)
  rr_class : run_class;
  rr_throughput : float;
      (** throughput of the observed transition over the full horizon
          (a deadlocked run keeps its partial firings, so degradation
          is still meaningful) *)
  rr_started : int;
  rr_diagnosis : string option;
      (** rendered deadlock diagnosis for [Deadlocked] runs *)
}

type report = {
  cr_net : string;
  cr_observe : string;  (** the transition whose throughput is compared *)
  cr_until : float;
  cr_runs : int;
  cr_specs : Fault.spec list;
  cr_baseline : run_result list;
  cr_faulty : run_result list;  (** same order and streams as baseline *)
  cr_tokens_dropped : int;  (** across all faulty runs *)
  cr_tokens_injected : int;
}

val run :
  ?seed:int ->
  ?runs:int ->
  ?until:float ->
  ?observe:string ->
  ?jobs:int ->
  Pnut_core.Net.t ->
  Fault.spec list ->
  report
(** Runs the campaign (defaults: seed 1, 5 runs, horizon 10000).
    [observe] names the transition whose throughput is compared; when
    omitted, the transition with the most completed firings in the
    first baseline run is picked.  Simulation errors in faulty runs are caught and reported
    as [Errored]; an error in a {e baseline} run propagates, since it
    means the model is broken without any fault.

    [jobs] (resolved by {!Pnut_exec.Pool.resolve}) distributes the runs
    over that many domains.  All random streams are split from the
    master before any run starts and results are merged in run order,
    so the report is bit-identical for every [jobs] value. *)

val run_supervised :
  ?seed:int ->
  ?runs:int ->
  ?until:float ->
  ?observe:string ->
  ?jobs:int ->
  ?budget:Pnut_exec.Budget.t ->
  Pnut_core.Net.t ->
  Fault.spec list ->
  report Pnut_exec.Supervisor.outcome
(** {!run} under a campaign-wide budget.  The wall limit acts as an
    absolute deadline shared by every twin (each run starts with the
    remaining wall time); heap limits, event caps and cancellation are
    applied per run.  Runs cut short by the budget are classed
    [Exhausted] and keep their partial throughput; if any run was cut
    short the whole campaign is reported [Degraded] with the first
    tripped reason in run order.  A campaign that completes within the
    budget returns [Complete] with a report byte-identical to {!run}'s. *)

val degradation : report -> float
(** [1 - mean faulty / mean baseline]; 0 when the baseline mean is 0. *)

val deadlocks : report -> int
(** Number of faulty runs that ended [Deadlocked]. *)

val errors : report -> int
(** Number of faulty runs that ended [Errored]. *)

val render : report -> string
(** Aligned plain-text campaign table with per-run pairing and summary. *)

val render_csv : report -> string
(** One line per run: [run,baseline,faulty,delta_pct,outcome,detail]. *)
