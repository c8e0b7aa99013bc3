(** Completion queue: a binary min-heap of in-flight firings keyed by
    (completion time, insertion order).

    Each entry is a (transition id, firing id) pair held in parallel
    arrays next to its time and sequence number, so pushing, reading and
    dropping the head allocate nothing once the arrays have grown.
    Entries with equal times leave in insertion (FIFO) order, which
    makes simulation runs deterministic for a given random seed. *)

type t

val create : unit -> t

val is_empty : t -> bool

val push : t -> float -> transition:int -> firing:int -> unit
(** [push q time ~transition ~firing] schedules a completion at [time]. *)

val min_time : t -> float
(** Time of the earliest entry, or [infinity] when empty (use
    {!is_empty} to tell an empty queue from an entry at [infinity]). *)

val top_transition : t -> int
val top_firing : t -> int
(** The earliest entry's transition and firing id (FIFO among equal
    times).  Only meaningful on a non-empty queue. *)

val drop : t -> unit
(** Removes the earliest entry.  Raises [Invalid_argument] when empty. *)

val to_sorted_list : t -> (float * int * int) list
(** Every entry as (time, transition, firing), earliest first, without
    disturbing the queue.  Pushing them in this order into a fresh queue
    rebuilds the same order — the basis of checkpoint/restore. *)
