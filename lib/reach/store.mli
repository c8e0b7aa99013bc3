(** Arena-backed compact state store for the reachability builder.

    States live as {!Packed} words in one flat int array; membership is
    an open-addressing table of arena offsets (no per-state boxes, no
    stored hashes — they are recomputed from the arena on growth); and
    edges are appended in sweep order into CSR successor arrays, with
    the predecessor CSR counting-sorted lazily on first use.  The whole
    store for a variable-free bounded net is a handful of flat arrays:
    one word per state plus ~1.5 index slots. *)

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
    re-encoded transparently, then the intern retries. *)

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
    simply get empty ranges. *)

val begin_source : t -> int -> unit
val add_edge : t -> tid:int -> target:int -> unit
val finalize : t -> unit

val out_degree : t -> int -> int

val successors : t -> int -> (int * int) list
(** [(transition, target)] pairs of state [i], in emission order —
    exactly the frozen boxed oracle's successor order. *)

val predecessors : t -> int -> (int * int) list
(** [(source, transition)] pairs pointing at state [j], in reverse
    sweep order — exactly the frozen boxed oracle's predecessor order. *)

val iter_pred_sources : t -> int -> (int -> unit) -> unit
val iter_edges : t -> (int -> int -> int -> unit) -> unit
(** [iter_edges st f] calls [f source transition target] for every edge
    in ascending-source sweep order — the frozen boxed oracle's edge
    order. *)

val store_words : t -> int * int
(** [(arena words, index slots)] currently allocated. *)

val bytes_per_state : t -> float
(** Bytes of arena plus index per stored state (call after
    {!finalize}, which trims the arena to size). *)

(** A FIFO of state indices that spills full chunks to a temp file as
    delta varints once the buffered middle exceeds a byte threshold.
    The head and tail chunks always stay in memory.  [close] removes
    the temp file; it must be called even on abnormal exit (the builder
    uses [Fun.protect]). *)
module Frontier : sig
  type t

  val create : threshold:int -> unit -> t
  val push : t -> int -> unit
  val pop : t -> int
  val length : t -> int
  val is_empty : t -> bool

  val spilled_chunks : t -> int
  (** Number of chunks written to disk so far (tests assert > 0 when
      forcing [threshold:0]). *)

  val close : t -> unit
end
