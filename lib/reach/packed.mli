(** Bit-packed marking encoding for the compact reachability store.

    A codec maps one net's states to fixed-width bitfields in a short
    run of 63-bit words: each place gets a field sized from
    {!Pnut_core.Incidence.place_bounds} (declared capacities tightened
    by P-invariants; fields never straddle words), and everything that
    is not a token count — the environment and an optional clock
    rendering — is interned once in a side table and referenced by a
    small id field.  Variable-free nets have no id field and pay zero
    env bytes per state.

    Bounds are advisory: a capacity may lie and unbounded places start
    at a guessed width, so {!encode} raises {!Field_overflow} on a
    value that does not fit and {!widen} rebuilds the layout — the
    store re-encodes its arena under the new layout and the old one
    stays valid for decoding the existing words.  Packing is therefore
    never unsound, only occasionally re-laid-out. *)

type t
(** A codec: the current layout plus the env/clock side table. *)

type layout
(** An immutable field layout.  The codec's current layout changes on
    {!widen}; encode/decode take the layout explicitly so states packed
    under a superseded layout can still be read. *)

exception Field_overflow of { field : int; value : int }
(** [field] is the place id, or [-1] for the side-table id field. *)

val create :
  ?bounds:int option array -> ?with_extra:bool -> Pnut_core.Net.t -> t
(** [bounds] defaults to {!Pnut_core.Incidence.place_bounds};
    [with_extra] forces the side-table id field on or off (default: on
    iff the net has variables or tables).  An extra field appears on
    demand via {!widen} either way. *)

val bounds_known : Pnut_core.Net.t -> bool
(** Every place has a known bound, so every field width comes from
    {!Pnut_core.Incidence.place_bounds} rather than a guess that
    {!widen} may later grow.  Advisory only: every graph is packed
    either way. *)

val layout : t -> layout
val words : layout -> int
(** Words per state. *)

val places : layout -> int

(** {2 Codec} *)

val encode :
  layout -> int array -> pos:int -> int array -> extra:int -> unit
(** Pack a marking (token counts by place) and a side-table id at
    [pos..pos+words-1] of the destination.  Raises {!Field_overflow}
    when a count or the id does not fit its field. *)

val decode_into : layout -> int array -> pos:int -> int array -> unit
val decode : layout -> int array -> pos:int -> int array

val extra_of : layout -> int array -> pos:int -> int
(** The packed side-table id ([0] when the layout has no id field). *)

val hash : layout -> int array -> pos:int -> int
(** Hash of the packed words (FNV-1a, non-negative).  The store's index
    keeps only the bits above its slot mask, as a tag in the slot, and
    recomputes whole hashes from the arena when it grows. *)

val equal : layout -> int array -> pos:int -> int array -> int -> bool
(** Word-for-word equality of two packed states. *)

val word_delta : layout -> int array -> int array -> int array
(** [word_delta lay places weights] is the per-word change, one entry
    per word of [lay], of adding [weights.(k)] tokens to
    [places.(k)]: [Σ weight lsl shift] summed per word.  Adding it word
    by word to a packed state yields exactly what {!encode} writes for
    the changed marking, provided {!delta_fits} (fields are disjoint
    and the arithmetic wraps modulo the word). *)

val delta_fits : layout -> int array -> int array -> int array -> bool
(** [delta_fits lay marking places weights]: every changed count
    [marking.(p) + weight] fits its field of [lay]. *)

val widen : t -> field:int -> value:int -> layout
(** Grow [field] (a place id, or [-1] for the id field) to fit [value],
    install the new layout, and return the previous one for decoding
    states packed under it. *)

(** {2 The env/clock side table} *)

val intern_extra : t -> ?clocks:string -> Pnut_core.Env.t -> int
(** Intern an environment (plus an optional canonical clock rendering)
    and return its dense id, in discovery order.  Identity is
    {!Pnut_core.Env.equal} on the env and [String.equal] on the clocks.
    The environment itself is the stored key and must not be mutated
    afterwards (the graph builders copy before running actions). *)

val extra_env : t -> int -> Pnut_core.Env.t
val extra_bindings : t -> int -> (string * Pnut_core.Value.t) list
