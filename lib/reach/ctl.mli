(** Branching-time temporal logic over reachability graphs.

    This is the verification side of the P-NUT reachability graph
    analyzer [MR87]: "users enter high-level specification of the
    expected behavior of a system in first-order predicate calculus and
    in branching time temporal logic. The analyzer then determines if all
    possible behaviors of the system meet the high level specification."

    Atoms are boolean expressions over place names (token counts) and
    model variables.  Deadlock states are completed with an implicit
    self-loop so that path quantifiers range over infinite paths
    (a terminated system stays in its final state forever).

    The paper's [inev(s, f, true)] is {!AF}[ f]. *)

type formula =
  | True
  | False
  | Atom of Pnut_core.Expr.t  (** boolean over places / variables *)
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Implies of formula * formula
  | EX of formula             (** some successor *)
  | AX of formula             (** all successors *)
  | EF of formula             (** some path eventually *)
  | AF of formula             (** all paths eventually — [inev] *)
  | EG of formula             (** some path always *)
  | AG of formula             (** all paths always — invariance *)
  | EU of formula * formula   (** E[f U g] *)
  | AU of formula * formula   (** A[f U g] *)

val sat : Graph.t -> formula -> bool array
(** Truth value of the formula at every state.  Raises
    [Invalid_argument] when an atom names no place or variable, is not
    boolean, or fails to evaluate. *)

val check : Graph.t -> formula -> bool
(** Does the formula hold in the initial state?  Raises
    [Invalid_argument] as {!sat} does, and if the graph is truncated (a
    capped graph cannot certify branching-time properties). *)

val counterexample : Graph.t -> formula -> int option
(** First state (BFS order) where the formula fails, if any. *)
