(** Table-driven (interpreted) pipeline models — Section 3 and Figure 4.

    "Rather than using a separate subnet for each addressing mode it is
    possible to construct a table-driven model of the instruction set.
    One transition in the net can randomly select the instruction type
    ... and the remaining parts of the net use the instruction type to
    remove additional words from the instruction buffer, and to calculate
    firing times, enabling times and the number of times to iterate
    through loops.  The Petri net itself would be used to model what
    Petri nets model best: the contention for the bus and the
    synchronization between different portions of the pipeline."

    The interpreted model replaces the per-type subnets of Figure 2 and
    the five execution transitions of Figure 3 with single transitions
    whose predicates, actions and dynamic durations consult tables:

    - [Decode] runs the paper's action
      [type = irand(1, max_type); number_of_operands_needed = operands[type]],
    - the operand-fetch loop is the Figure-4 skeleton: [fetch_operand]
      (predicate [number_of_operands_needed > 0]) contends for the bus,
      [end_fetch] decrements the counter, [operand_fetching_done]
      (predicate [= 0]) issues,
    - execution is one transition with a table-driven dynamic firing
      time, followed by a table-driven loop of execution-time memory
      accesses contending for the bus ([exec_mem_access] /
      [end_exec_mem], counter [exec_mem_ops_left]).

    With the default [instruction_set] the stationary behaviour matches
    the structural model of {!Model.full} (same mix, same delays), which
    the test suite exploits as a differential oracle. *)

type instruction_class = {
  ic_operands : int;       (** memory operands to fetch *)
  ic_extra_words : int;    (** instruction words beyond the first *)
  ic_exec_mem_ops : int;
      (** additional memory reads/writes issued {e during execution}
          (Section 3: "Execution delays can be calculated based on
          instruction type as can the number of required reads/writes
          from/to memory") *)
  ic_weight : float;       (** relative frequency *)
}

type instruction_set = instruction_class list

val wide_instruction_set : unit -> instruction_set
(** A 30-class instruction set (the paper's "as many as 30 addressing
    modes"), with 1-3 word encodings and 0-2 operands — the case where
    per-type subnets would blow up but the interpreted model stays the
    same size. *)

val full : ?instruction_set:instruction_set -> Config.t -> Pnut_core.Net.t
(** The complete interpreted 3-stage pipeline.  Variable-length
    instructions consume their extra buffer words one per cycle during
    decode, driven by the [words] table. *)

val operand_fetch_skeleton : Config.t -> Pnut_core.Net.t
(** Exactly the Figure-4 fragment: decode, the fetch-operand loop and
    the done transition, closed with an instruction source — useful for
    unit tests and the Figure-4 bench. *)
