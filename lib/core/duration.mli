(** Deterministic-delay helpers for the timed reachability builders.

    Timed state-space constructions only terminate when every delay
    resolves to a single concrete value in a given environment.  These
    helpers classify {!Net.duration} values once, so every timed
    builder accepts exactly the same nets and rejects the rest with
    identical error text. *)

val det : who:(unit -> string) -> Env.t -> Net.duration -> float
(** Resolve a duration to its unique value in [env]: [Zero], [Const],
    degenerate [Uniform]/[Choice], and deterministic [Dynamic]
    expressions.  Raises [Invalid_argument] ("[who ()]: stochastic
    duration in a timed reachability net") on genuinely random kinds,
    ("[who ()]: ...") on an expression that fails to evaluate, and
    {!Net.check_delay}'s error on a negative or NaN value. *)

val deterministic : Net.duration -> bool
(** [true] iff {!det} resolves the duration: [Zero], [Const],
    degenerate [Uniform]/[Choice], and deterministic [Dynamic]
    expressions. *)

val stochastic_logic : Net.transition -> string option
(** [Some "predicate"] or [Some "action"] when the transition's
    predicate, or else one of its action statements, draws random
    numbers; [None] otherwise. *)

val check_net : who:string -> Net.t -> unit
(** Raise [Invalid_argument] (messages prefixed with [who]) if any
    transition of the net carries a stochastic firing time, enabling
    time, predicate, or action. *)
