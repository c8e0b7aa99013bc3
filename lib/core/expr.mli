(** The expression language for transition predicates, actions and
    data-dependent timing.

    This is the "predicates and actions" extension of the paper
    (Sections 1 and 3): predicates are data-dependent pre-conditions
    evaluated over the model environment; actions are sequences of
    assignments run when a transition completes firing.  The same
    expressions drive data-dependent firing/enabling times in table-driven
    instruction-set models, and are reused by tracertool for user-defined
    signal functions. *)

type unop =
  | Neg  (** arithmetic negation *)
  | Not  (** boolean negation *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or

type t =
  | Const of Value.t
  | Var of string              (** model variable *)
  | Index of string * t        (** table lookup [tbl\[e\]] *)
  | Unop of unop * t
  | Binop of binop * t * t
  | If of t * t * t            (** conditional expression *)
  | Call of string * t list    (** builtin: irand, min, max, abs, floor, ceil, int, float *)

type stmt =
  | Assign of string * t           (** [x = e] *)
  | Table_assign of string * t * t (** [tbl\[i\] = e] *)

(** Convenience constructors. *)

val int : int -> t
val float : float -> t
val bool : bool -> t
val var : string -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( = ) : t -> t -> t
val ( <> ) : t -> t -> t
val ( < ) : t -> t -> t
val ( <= ) : t -> t -> t
val ( > ) : t -> t -> t
val ( >= ) : t -> t -> t
val ( && ) : t -> t -> t
val ( || ) : t -> t -> t
val not_ : t -> t
val irand : t -> t -> t
val index : string -> t -> t

(** Evaluation. [prng] is required only if the expression calls [irand];
    evaluating [irand] without one raises [Eval_error]. *)

val eval : ?prng:Prng.t -> Env.t -> t -> Value.t
val eval_bool : ?prng:Prng.t -> Env.t -> t -> bool
val eval_float : ?prng:Prng.t -> Env.t -> t -> float
val eval_int : ?prng:Prng.t -> Env.t -> t -> int

val run_stmts : ?prng:Prng.t -> Env.t -> stmt list -> unit

(** {2 Compilation}

    [compile] specializes an expression to one environment (and
    optionally one random stream), returning a closure that evaluates it
    without any AST walk or name lookup: variables and tables resolve to
    their live {!Env} cells on first use and stay cached ([Env.set]
    mutates cells in place, so the cache never goes stale).  Evaluation
    order, random draws and [Eval_error] messages are identical to
    {!eval} — the simulator relies on this to keep traces bit-for-bit
    reproducible across the interpreted and compiled paths. *)

val compile : ?prng:Prng.t -> Env.t -> t -> (unit -> Value.t)
val compile_bool : ?prng:Prng.t -> Env.t -> t -> (unit -> bool)
val compile_int : ?prng:Prng.t -> Env.t -> t -> (unit -> int)

val variables : t -> string list
(** Free variables (not tables), sorted, deduplicated. *)

val is_deterministic : t -> bool
(** [false] if the expression (transitively) calls [irand]. *)

val pp : Format.formatter -> t -> unit
(** Prints in the concrete syntax accepted by [Pnut_lang]. *)

val pp_stmt : Format.formatter -> stmt -> unit

val to_string : t -> string

exception Eval_error of string
