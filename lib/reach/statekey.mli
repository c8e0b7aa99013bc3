(** Hashconsed state identity for the reachability explorers.

    A key captures a (marking, environment) pair — plus, for timed
    graphs, a pre-rendered clock component — structurally: the marking
    as an int array, the environment as its sorted scalar bindings and
    tables, everything hashed up front.  Interning a key into {!Tbl}
    maps each distinct state to a dense int id without building a
    string. *)

type t = private {
  k_hash : int;
  k_marking : int array;
  k_bindings : (string * Pnut_core.Value.t) list;
  k_tables : (string * Pnut_core.Value.t array) list;
  k_clocks : string;
      (** canonical clock component ([""] for untimed graphs): the
          in-flight multiset of a timed class, or the exact residual
          bit patterns of an explicit timed state *)
}

val make : ?clocks:string -> Pnut_core.Marking.t -> Pnut_core.Env.t -> t
(** Snapshot a live (marking, env) pair into a key.  Pure: copies the
    marking and environment views, so the caller may keep mutating the
    originals. *)

val equal : t -> t -> bool

val hash : t -> int

module Tbl : Hashtbl.S with type key = t
(** Hash table keyed structurally on states; the interning table of the
    graph builders. *)
