(** Variable/table environments for interpreted nets.

    The paper's Figure-4 model manipulates global model variables
    ([number-of-operands-needed]) and lookup tables ([operands\[type\]]).
    An environment holds both.  Environments are mutable; state-space
    exploration over interpreted nets keys states on {!hash}/{!equal}. *)

type t

val create : unit -> t

val of_bindings :
  ?tables:(string * Value.t array) list -> (string * Value.t) list -> t
(** Initial environment from variable bindings and (optionally) tables.
    Raises [Invalid_argument] on duplicate names. *)

val copy : t -> t
(** Deep copy (tables included). *)

val get : t -> string -> Value.t
(** Raises [Unbound of name] if the variable was never set. *)

val set : t -> string -> Value.t -> unit
(** Sets or creates a variable. *)

val mem : t -> string -> bool

val find_ref : t -> string -> Value.t ref option
(** The live cell holding a variable, if bound.  [set] mutates the cell
    in place and cells are never removed, so a compiled expression can
    resolve a name once and hold the cell for the lifetime of the
    environment. *)

val find_table : t -> string -> Value.t array option
(** The live table array, if bound (tables are created only at
    {!of_bindings} time and never resized, so the array is stable). *)

val table_get : t -> string -> int -> Value.t
(** [table_get env name i] with bounds checking; raises [Unbound] or
    [Invalid_argument] on a bad index. *)

val table_set : t -> string -> int -> Value.t -> unit

val bindings : t -> (string * Value.t) list
(** Current scalar bindings, sorted by name (stable for hashing and
    trace output). *)

val tables : t -> (string * Value.t array) list
(** Current tables, sorted by name; arrays are copies. *)

val equal : t -> t -> bool
(** Structural equality of the bindings and tables, whatever their
    insertion order (values compared with {!Value.equal}). *)

val hash : t -> int
(** Structural hash compatible with {!equal}; folds over every binding
    and table cell. *)

exception Unbound of string
