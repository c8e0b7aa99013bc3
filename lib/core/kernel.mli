(** The compiled firing-semantics kernel — the single source of truth
    for the transition relation of extended timed nets.

    Every tool that steps a net (the optimized simulator, the untimed
    and timed reachability builders, the Karp-Miller construction, the
    GSPN analyzer) consumes the same per-transition view built here:
    arc lists flattened to parallel [int] arrays, the weight/inhibitor
    enabledness test, the firing effect (consume/produce), precomputed
    trace deltas, and the per-place reader index used for incremental
    enabled-set maintenance.  The only deliberate exception is the
    frozen interpreted engine kept verbatim, in the test-only oracle
    library, as a differential reference.

    The kernel has two layers:

    - the {e static} view ({!ctrans}, built once per net by {!of_net})
      is environment-independent and immutable, so exploration layers
      can share it across worker domains and evaluate predicates and
      actions against per-state environments with {!enabled} and
      {!run_action};
    - the {e compiled} view ({!compiled}, built per engine instance by
      {!compile}) additionally binds the predicate, the delay
      distributions and the action statements to closures over one
      environment's resolved cells and one random stream
      ([Expr.compile], [Net.compile_duration]), so a simulator's hot
      loop never walks an AST or looks up a name. *)

(** Static per-transition view: arc lists as parallel arrays plus the
    constant parts of the transition's trace deltas. *)
type ctrans = {
  s_tr : Net.transition;
  s_id : Net.transition_id;
  s_in_place : int array;
  s_in_weight : int array;
  s_inh_place : int array;
  s_inh_weight : int array;
  s_out_place : int array;
  s_out_weight : int array;
  s_frequency : float;
  s_consumed_weight : int array;
      (** with [s_in_place], the marking delta of consuming the inputs *)
  s_produced_place : int array;
  s_produced_weight : int array;  (** producing the outputs, merged per place *)
  s_delta_place : int array;
  s_delta_weight : int array;  (** an atomic firing, merged; see {!apply} *)
  s_has_action : bool;
}

type t

val of_net : Net.t -> t
(** Build the static kernel: one {!ctrans} per transition (indexed by
    id) plus the reader and predicate indexes. *)

val net : t -> Net.t
val num_transitions : t -> int

val transitions : t -> ctrans array
(** Indexed by transition id, i.e. ascending-id iteration order. *)

val transition : t -> Net.transition_id -> ctrans

val readers : t -> int array array
(** [readers k.(p)] — ids of the transitions whose enabledness depends
    on place [p] (input or inhibitor arc), ascending.  After a firing
    touches a set of places, only the readers of those places can have
    changed enabledness. *)

val predicated : t -> Net.transition_id array
(** Ids of the transitions carrying a predicate, ascending: the ones
    whose enabledness can change when only the environment changes. *)

(** {2 The transition relation (static view)} *)

val token_enabled : ctrans -> Marking.t -> bool
(** Token conditions only: every input place holds at least its arc
    weight, every inhibitor place fewer than its. *)

val enabled : ctrans -> Marking.t -> Env.t -> bool
(** Full enabledness: token conditions, then the predicate interpreted
    against [env] without a random stream, in [Net.enabled]'s order.
    A predicate that fails to evaluate raises [Invalid_argument]
    ("predicate of transition T: ..."). *)

val consume : ctrans -> Marking.t -> unit
(** Remove the input tokens of one firing.  The caller has already
    established token-enabledness (unlike [Net.consume], no redundant
    recheck). *)

val produce : ctrans -> Marking.t -> unit
(** Deposit the output tokens of one firing. *)

val apply : ctrans -> Marking.t -> unit
(** [consume] and [produce] in one pass over the merged net delta —
    for callers that fire atomically and never observe the intermediate
    marking (reachability expansion). *)

val run_action : Env.t -> ctrans -> unit
(** Interpret the action statements against [env] (same order as
    [Expr.run_stmts]); a failing statement raises [Invalid_argument]
    ("action of transition T: ..."). *)

(** {2 The compiled instance view} *)

(** A transition bound to one engine instance: its static view plus
    predicate/delays/action compiled to closures over the instance's
    environment and random stream. *)
type compiled = {
  c_s : ctrans;
  c_pred : (unit -> bool) option;
      (** compiled without a random stream, like the enabledness test of
          the interpreted engine: [irand] in a predicate raises *)
  c_enabling : unit -> float;
  c_firing : unit -> float;
  c_action : (unit -> string * Value.t) array;
      (** each statement returns the (name, value) pair for the trace
          delta; table writes report as ["tbl[i]"].  Every failure,
          including a bad table write, raises [Expr.Eval_error]. *)
}

val compile : ?prng:Prng.t -> Env.t -> t -> compiled array
(** Bind every transition to [env] (and [prng] for stochastic delays
    and action expressions), indexed by transition id.  Compilation
    resolves names once; the closures read and write the environment's
    live cells thereafter. *)

val compiled_enabled : compiled -> Marking.t -> bool
(** Token conditions and the compiled predicate closure. *)
