(** Extended Timed Petri Nets — the paper's modeling formalism.

    A net is a set of places and transitions connected by weighted input,
    output and inhibitor arcs.  Transitions optionally carry:
    - a {e firing time} (tokens are on neither inputs nor outputs while
      the transition fires),
    - an {e enabling time} (the transition must be continuously enabled
      for the delay before it may fire),
    - a relative {e firing frequency} used for probabilistic conflict
      resolution,
    - a {e predicate} (data-dependent pre-condition) and an {e action}
      (data transformation run at completion of firing).

    Nets are immutable once built; use {!Builder} to construct them. *)

type place_id = int
type transition_id = int

type place = {
  p_id : place_id;
  p_name : string;
  p_initial : int;       (** tokens in the initial marking *)
  p_capacity : int option;
      (** optional documentation bound, checked by {!Validate} analyses *)
}

type arc = {
  a_place : place_id;
  a_weight : int;  (** strictly positive *)
}

(** Time delays attached to transitions.  [Dynamic] delays are evaluated
    against the model environment when sampled, enabling table-driven
    instruction timing (Section 3 of the paper). *)
type duration =
  | Zero
  | Const of float
  | Uniform of float * float
  | Exponential of float            (** mean *)
  | Choice of (float * float) list  (** (value, weight) pairs *)
  | Dynamic of Expr.t

type transition = {
  t_id : transition_id;
  t_name : string;
  t_inputs : arc list;
  t_inhibitors : arc list;  (** enabled only if tokens < weight *)
  t_outputs : arc list;
  t_firing : duration;
  t_enabling : duration;
  t_frequency : float;      (** conflict-resolution weight, > 0 *)
  t_predicate : Expr.t option;
  t_action : Expr.stmt list;
}

type t

val name : t -> string
val places : t -> place array
val transitions : t -> transition array
val num_places : t -> int
val num_transitions : t -> int
val place : t -> place_id -> place
val transition : t -> transition_id -> transition
val find_place : t -> string -> place option
val find_transition : t -> string -> transition option
val place_id : t -> string -> place_id
(** Raises [Not_found]. *)

val transition_id : t -> string -> transition_id
(** Raises [Not_found]. *)

val initial_marking : t -> Marking.t
val initial_env : t -> Env.t
val variables : t -> (string * Value.t) list
val tables : t -> (string * Value.t array) list

(** {2 Semantics helpers} *)

val enabled : ?prng:Prng.t -> t -> Marking.t -> Env.t -> transition -> bool
(** Full enabledness: token conditions and predicate. *)

val consume : t -> Marking.t -> transition -> unit
(** Removes the input tokens of one firing.  Raises [Invalid_argument]
    if the transition is not token-enabled. *)

val produce : t -> Marking.t -> transition -> unit
(** Deposits the output tokens of one firing. *)

val check_delay : (unit -> string) -> float -> float
(** [check_delay who d] is [d] when [d >= 0]; a negative or NaN delay
    raises [Invalid_argument] ("[who ()]: negative delay" or
    "[who ()]: NaN delay").  Every engine checks its delays here. *)

val sample_duration : ?prng:Prng.t -> Env.t -> duration -> float
(** Samples a delay.  Stochastic durations require [prng].  The result is
    checked by {!check_delay}, named ["Net.sample_duration"]. *)

val compile_duration :
  ?prng:Prng.t -> who:(unit -> string) -> Env.t -> duration -> (unit -> float)
(** Compiled counterpart of {!sample_duration}: resolves the
    distribution, the random stream and (for [Dynamic]) the compiled
    expression once; each call of the returned closure draws one sample
    with the same results and draw order as {!sample_duration} on the
    same stream.  [who] names the delay in {!check_delay}'s error. *)

val pp_duration : Format.formatter -> duration -> unit
(** Prints in the textual model syntax (e.g. [choice(1:0.5, 2:0.5)]). *)

val pp : Format.formatter -> t -> unit
(** Renders the net in the textual model language (parseable by
    [Pnut_lang]). *)

(** Mutable net-under-construction. *)
module Builder : sig
  type net = t
  type t

  val create : ?variables:(string * Value.t) list ->
    ?tables:(string * Value.t array) list -> string -> t

  val add_place : ?initial:int -> ?capacity:int -> t -> string -> place_id
  (** Raises [Invalid_argument] on duplicate names or negative initial
      counts. *)

  val add_transition :
    ?inputs:(place_id * int) list ->
    ?inhibitors:(place_id * int) list ->
    ?outputs:(place_id * int) list ->
    ?firing:duration ->
    ?enabling:duration ->
    ?frequency:float ->
    ?predicate:Expr.t ->
    ?action:Expr.stmt list ->
    t -> string -> transition_id
  (** A place repeated within one arc list gets a single arc: input and
      output weights add up, an inhibitor keeps the smallest weight.
      Raises [Invalid_argument] on duplicate names, unknown place ids,
      non-positive weights or frequencies. *)

  val set_variable : t -> string -> Value.t -> unit
  val set_table : t -> string -> Value.t array -> unit

  val build : t -> net
  (** Freezes the builder.  Raises [Invalid_argument] if the net has no
      places and no transitions. *)
end
