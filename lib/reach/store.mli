(** Arena-backed compact state store for the reachability builder.

    States live as {!Packed} words in an arena of int-array pages
    (2{^16} states each, appended as it fills, so stored states are
    never copied to grow it); membership is an open-addressing table of
    state indices (no per-state boxes) in 4-byte slots, doubled and
    rehashed under a 0.7 load factor and released by {!finalize}, after
    which nothing can be interned.  A slot holds its state index + 1 in
    its low [log2 slots] bits and a fragment of the state's
    {!Packed.hash} in the bits above, so a probe reads the arena only
    for a slot whose fragment matches.  The fragment takes what the
    entry width leaves: [32 - log2 slots] bits of a 4-byte slot (11 at
    the 2{^21} slots of a million states, 0 at 2{^32}), and
    [62 - log2 slots] of the 8-byte slots used past 2{^32}, so it is
    never negative.  The whole hash is recomputed from the arena when
    the table grows.
    Edges are appended in sweep order as CSR successors: one offset per
    state and one word per edge, each a 4-byte entry in [Bytes] pages
    of 2{^16} entries (only the first starts small and doubles), so they
    grow page by page without copying what is stored.  The GC does not scan the pages, but they are
    major-heap words, so a [--heap-limit-mb] budget counts them.  Once
    a word (an edge's [(target lsl t_bits) lor tid], or an offset) no
    longer fits 32 bits, its pages are re-encoded once to 8-byte
    entries.  The predecessor CSR is a counting sort into the same kind
    of pages, built lazily on the first {!predecessors} call: only CTL
    and [Graph.predecessors] need it, the reachability summary does
    not.  A variable-free bounded net costs one word per state, 1.4 to
    2.9 index slots of 4 bytes while interning, and 4 bytes per state
    and per edge. *)

type t

val create : Packed.t -> num_transitions:int -> t
(** A fresh store over [codec]'s current layout.  [num_transitions]
    sizes the transition-id bitfield packed into each edge word. *)

val codec : t -> Packed.t
val num_states : t -> int
val num_edges : t -> int

val intern :
  t -> int array -> extra:int -> max_states:int ->
  [ `Found of int | `Added of int | `Capped ]
(** Look up (or insert) the state with the given token counts and side
    table id.  [`Capped] means the state is fresh but the store already
    holds [max_states] states; nothing is inserted.  On a
    {!Packed.Field_overflow} the codec is widened and the whole arena
    re-encoded transparently, then the intern retries.
    @raise Invalid_argument after {!finalize}, as do {!intern_index}
    and {!intern_delta}. *)

val intern_index : t -> int array -> extra:int -> max_states:int -> int
(** {!intern} without the boxed result: the state index (fresh iff it
    is at least the {!num_states} before the call), or [-1] for
    [`Capped]. *)

val intern_delta : t -> src:int -> int array -> max_states:int -> int
(** [intern_delta st ~src delta] interns the packed words of state
    [src] plus [delta] word by word (see {!Packed.word_delta}; [delta]
    is for the codec's current layout), with {!intern_index}'s result.
    The caller guarantees that every field the delta changes stays
    within its width, so nothing is encoded and no widen can happen. *)

val marking_into : t -> int -> int array -> unit
(** Decode state [i]'s token counts into a caller scratch array. *)

val extra : t -> int -> int
(** State [i]'s side-table id (0 for nets without an id field). *)

(** {2 Edges}

    The builder calls [begin_source i] before expanding state [i] (in
    ascending order — BFS interning order), then [add_edge] once per
    fired transition, and [finalize] after the sweep.  Skipped sources
    simply get empty ranges.  [finalize] releases the intern index:
    interning is over once the edges are closed. *)

val begin_source : t -> int -> unit
val add_edge : t -> tid:int -> target:int -> unit
val finalize : t -> unit

val deadlocks : t -> int list
(** The states without a successor, ascending (after {!finalize}). *)

val max_tokens : t -> int -> int
(** [max_tokens st p]: the largest token count of place [p] over the
    stored states. *)

val edge_bytes : t -> int
(** Bytes per successor entry: 4, or 8 once an edge word outgrew 32
    bits. *)

val successors : t -> int -> (int * int) list
(** [(transition, target)] pairs of state [i], in emission order —
    exactly the frozen boxed oracle's successor order. *)

val predecessors : t -> int -> (int * int) list
(** [(source, transition)] pairs pointing at state [j], in reverse
    sweep order — exactly the frozen boxed oracle's predecessor order. *)

val iter_edges : t -> (int -> int -> int -> unit) -> unit
(** [iter_edges st f] calls [f source transition target] for every edge
    in ascending-source sweep order — the frozen boxed oracle's edge
    order. *)

val strongly_connected : t -> bool
(** Whether the successor graph (after {!finalize}) is one strongly
    connected component, given that every state is reachable from
    state 0: whether every state reaches 0.  At most two sequential
    passes over the successor rows, states [1 .. n-1] ascending and
    then descending, mark a state (a byte each) once one of its
    successors is marked, from state 0 alone.  Every marked state
    reaches 0, so a pass that leaves every state marked answers true;
    a pass that marks nothing has reached the least fixpoint, the
    states that reach 0, so it answers false.  Only when two passes
    leave the answer open does a depth-first search from 0 decide; it
    stops at the first component it closes, with two [n]-entry scratch
    tables of 4 bytes an entry (8 past 32 bits).  Linear at worst; no
    predecessors are built. *)

val bytes_per_state : t -> float
(** Bytes held per stored state: the stored arena words plus the index
    slots at their entry width.  The slots still count after
    {!finalize} has released them. *)
