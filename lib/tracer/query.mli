(** Trace verification queries (Section 4.4).

    Tracertool "tests (rather than proves) the correctness of a simulation
    trace": the expected behaviour is written in first-order predicate
    calculus over the trace's states, extended with the temporal operators
    of the reachability-graph analyzer [MR87].  The paper's examples all
    express directly:

    - [forall s in S \[ Bus_busy(s) + Bus_free(s) = 1 \]]
    - [exists s in (S - {#0}) \[ Empty_I_buffers(s) = 6 \]]
    - [exists s in S \[ exec_type_5(s) > 0 \]]
    - [forall s in {s' in S | Bus_busy(s')} \[ inev(s, Bus_free, true) \]]

    A {!formula} is evaluated at a state; a {!t} quantifies a formula over
    a domain of states.  In formulas, free identifiers resolve to the
    place's token count, else the transition's concurrent-firing count,
    else the model variable's value, in that order. *)

type formula =
  | Atom of Pnut_core.Expr.t  (** boolean expression over state signals *)
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Implies of formula * formula
  | Inev of formula
      (** from this state on (inclusive), the formula eventually holds —
          the linear-trace reading of the paper's [inev] *)
  | Alw of formula
      (** from this state on (inclusive), the formula always holds *)

(** Which states a quantifier ranges over.  [S - {#0}] is
    [{ except = \[0\]; such_that = None }]; the paper's
    [{s' in S | Bus_busy(s')}] is [{ except = \[\]; such_that = Some f }]. *)
type domain = {
  except : int list;          (** state indices removed, [#0] = initial *)
  such_that : formula option; (** filter formula *)
}

val whole : domain

type t =
  | Forall of domain * formula
  | Exists of domain * formula

type result =
  | Holds of int option
      (** satisfied; for [Exists], the witness state index *)
  | Fails of int option
      (** violated; for [Forall], the first counterexample state index *)
  | Vacuous
      (** a [Forall] over an empty domain *)

val holds : result -> bool
(** [Holds _] and [Vacuous] count as success. *)

val eval : Pnut_trace.Trace.t -> t -> result
(** Raises [Invalid_argument] when an identifier names no place,
    transition or variable, or an atom is not boolean or fails to
    evaluate. *)

val decide : t -> int -> (formula -> bool array) -> result
(** [decide q n rows] quantifies over states [0..n-1], given the truth
    of each formula at every state as [rows f].  Both trace queries
    ({!eval}) and reachability-graph queries decide this way; the
    domain filter is computed before the quantified formula, so an
    error in either surfaces in that order. *)

val eval_formula : Pnut_trace.Trace.t -> formula -> int -> bool
(** Evaluate a formula at one state index (0 = initial state).
    Raises [Invalid_argument] on an out-of-range index and as {!eval}
    does. *)

val pp_result : Format.formatter -> result -> unit
