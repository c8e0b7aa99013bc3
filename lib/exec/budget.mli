(** Resource budgets for long-running computations.

    A budget is a passive record of resource limits — wall-clock
    seconds, major-heap words and an optional cooperative cancellation
    token.  It does nothing by itself; consumers hand it to
    {!Supervisor.start} and poll the resulting monitor on their existing
    cheap cadences (the simulator's 256-step watchdog slot, the
    reachability interning loop).  State and event caps are not part of
    a budget: they are the builders' own limits.

    All limits are optional and independent; {!none} is the empty
    budget, under which every check is a near-free no-op. *)

type token
(** A cooperative cancellation token, safe to share across domains. *)

val token : unit -> token
(** A fresh, un-cancelled token. *)

val cancel : token -> unit
(** Request cancellation.  Idempotent; takes effect at the consumer's
    next budget check. *)

val cancelled : token -> bool

type t = {
  wall_s : float option;      (** wall-clock limit in seconds *)
  heap_words : int option;    (** major-heap limit, in words
                                  ([Gc.quick_stat]) *)
  cancel : token option;      (** cooperative cancellation *)
}

val none : t
(** No limits at all. *)

val make :
  ?wall_s:float ->
  ?heap_mb:int ->
  ?cancel:token ->
  unit ->
  t
(** Build a budget from whichever limits are given; [heap_mb] becomes
    [heap_words].  Limits must be positive ([Invalid_argument]
    otherwise). *)

val is_none : t -> bool
(** No limit is set — consumers may skip monitoring entirely. *)

val words_of_mb : int -> int
(** Megabytes to OCaml heap words on this platform. *)

