(** The paper's pipelined-processor models (Figures 1-3).

    Place and transition names follow the paper's figures and the Figure-5
    statistics report: [Bus_free]/[Bus_busy], [Empty_I_buffers]/
    [Full_I_buffers], [pre_fetching], [fetching], [storing],
    [Decoder_ready], [Decoded_instruction], [ready_to_issue_instruction],
    [Issued_instruction], [Execution_unit], transitions [Start_prefetch],
    [End_prefetch], [Decode], [Type_1..3], [calc_eaddr_1..2], [Issue],
    [exec_type_1..n], [store_result]/[no_store], ...

    Structure (3-stage pipeline, Section 2):
    - {b Stage 1} (Figure 1): [Start_prefetch] grabs the bus when there is
      room for a full prefetch transaction and neither operand fetches nor
      result stores are pending (inhibitor arcs); [End_prefetch] models the
      memory access with an {e enabling} delay and refills the buffer.
    - {b Stage 2} (Figure 2): [Decode] (firing time = one cycle) consumes a
      buffer word while holding the [Decoder_ready] resource; the
      instruction mix is modeled by the competing frequencies of
      [Type_1..3]; effective-address calculation is a firing time of
      2 cycles per memory operand; operand fetches contend for the bus.
    - {b Stage 3} (Figure 3): [Issue] moves a ready instruction into the
      execution unit and releases the decoder; execution delays are the
      competing [exec_type_i] transitions; a result store (probability
      0.2) contends for the bus before the unit is released.

    The bus is one-hot by construction ([Bus_free] + [Bus_busy] = 1, a
    P-invariant), and every transition moving tokens between the two is
    instantaneous, as Section 4.2 requires for utilization readings. *)

val full : Config.t -> Pnut_core.Net.t
(** The complete 3-stage pipeline model of Section 2. *)

val prefetch_only : Config.t -> Pnut_core.Net.t
(** The Figure-1 net alone, closed with a simple decoder that consumes
    instructions at a fixed rate (one per decode time) and immediately
    recycles [Decoder_ready]. *)

val exec_transition_names : Config.t -> string list
(** [exec_type_1 .. exec_type_n] for the configured profile, in order. *)

(**/**)

(** Building blocks shared with derived models (e.g. the cache
    extensions); not part of the stable API. *)
module Internal : sig
  type shared = {
    bus_free : Pnut_core.Net.place_id;
    bus_busy : Pnut_core.Net.place_id;
    empty_buffers : Pnut_core.Net.place_id;
    full_buffers : Pnut_core.Net.place_id;
    pre_fetching : Pnut_core.Net.place_id;
    fetching : Pnut_core.Net.place_id;
    storing : Pnut_core.Net.place_id;
    operand_fetch_pending : Pnut_core.Net.place_id;
    result_store_pending : Pnut_core.Net.place_id;
    decoder_ready : Pnut_core.Net.place_id;
    decoded_instruction : Pnut_core.Net.place_id;
    ready_to_issue : Pnut_core.Net.place_id;
  }

  val add_shared : Pnut_core.Net.Builder.t -> Config.t -> shared
  val add_decode : Pnut_core.Net.Builder.t -> Config.t -> shared -> unit

  val add_decoder :
    ?fetch_path:
      (Pnut_core.Net.Builder.t -> Config.t -> shared ->
       operand_done:Pnut_core.Net.place_id -> unit) ->
    Pnut_core.Net.Builder.t -> Config.t -> shared -> unit

  val add_execution : Pnut_core.Net.Builder.t -> Config.t -> shared -> unit
end
