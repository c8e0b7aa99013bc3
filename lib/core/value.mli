(** Runtime values carried by model variables, tables, predicates and
    actions (the interpreted-net extension of Section 3 of the paper). *)

type t =
  | Int of int
  | Float of float
  | Bool of bool

val equal : t -> t -> bool
(** Structural equality with numeric promotion: [Int 1] equals [Float 1.]. *)

val hash : t -> int
(** Compatible with {!equal}: numerically equal values hash alike
    ([Int 1] and [Float 1.] collide on purpose). *)

val compare_num : t -> t -> int
(** Numeric comparison; raises [Type_error] on booleans. *)

val to_float : t -> float
(** Numeric coercion; raises [Type_error] on booleans. *)

val to_int : t -> int
(** [Int] passes through, [Float] truncates; raises [Type_error] on booleans. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

exception Type_error of string
