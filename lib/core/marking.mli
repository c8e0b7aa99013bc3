(** Markings: the token state of a net, indexed by place id.

    A marking assigns a non-negative token count to every place.  In the
    paper's terms, boolean conditions are modeled by presence/absence of a
    token and counted resources (buffer slots, bus) by multiple tokens. *)

type t
(** Mutable token-count vector. *)

val create : int -> t
(** [create n] is the zero marking over [n] places. *)

val of_array : int array -> t
(** Copies the array; raises [Invalid_argument] on negative counts. *)

val to_array : t -> int array
(** Fresh copy of the counts. *)

val size : t -> int

val get : t -> int -> int

val set : t -> int -> int -> unit
(** Raises [Invalid_argument] on a negative count. *)

val add : t -> int -> int -> unit
(** [add m p k] adds [k] (possibly negative) tokens to place [p];
    raises [Invalid_argument] if the result would be negative, or a
    distinct [Invalid_argument] if it would overflow [max_int]. *)

val copy : t -> t

val unsafe_wrap : int array -> t
(** The array itself as a marking — no copy, no validation.  For
    decoders that already guarantee non-negative counts and need a
    zero-cost view (the packed reachability store); mutations of the
    array are visible through the marking and vice versa. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int

val total : t -> int
(** Total number of tokens across all places. *)

val pp : Format.formatter -> t -> unit
