(** Indexed binary min-heap over dense integer ids (transition ids)
    keyed by float deadlines.

    Unlike {!Event_queue}, entries can be removed or re-keyed by id in
    O(log n) via an id→slot index — what the simulator needs to retract
    an enabling deadline the moment an incremental refresh disables the
    transition.  Capacity is one slot per id, fixed at {!create}; no
    operation allocates.  Ties between equal keys are broken
    arbitrarily. *)

type t

val create : int -> t
(** [create n] accepts ids [0..n-1], initially empty. *)

val is_empty : t -> bool

val mem : t -> int -> bool

val min_key : t -> float
(** Smallest key, or [infinity] when empty (use {!is_empty} to tell an
    empty heap from an entry keyed [infinity]). *)

val insert : t -> int -> float -> unit
(** Raises [Invalid_argument] if the id is already present. *)

val remove : t -> int -> unit
(** Raises [Invalid_argument] if the id is not present. *)

val pop_min : t -> int
(** Removes and returns an id with the smallest key.  Raises
    [Invalid_argument] on an empty heap. *)
