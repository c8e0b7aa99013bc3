(** First-order predicate calculus over reachability graphs.

    The [MR87] analyzer lets users state expected behaviour "in
    first-order predicate calculus and in branching time temporal logic".
    {!Ctl} is the temporal half; this module is the first-order half:
    quantification over the {e reachable state set} instead of a trace.
    The same query syntax applies ([Pnut_lang.Parser.parse_query]), with
    [S] now meaning all reachable states, [#0] the initial state, and
    [inev]/[alw] interpreted as the branching-time [AF]/[AG].

    Unlike trace checking this is a {e proof} over all behaviours
    (provided the graph is complete). *)

val eval : Graph.t -> Pnut_tracer.Query.t -> Pnut_tracer.Query.result
(** Identifiers resolve to place token counts, then model variables.
    Transition activity (concurrent firings) does not exist in atomic
    interleaving semantics; referring to a transition name raises
    [Invalid_argument], as do ill-typed atoms and a truncated graph. *)

val holds : Graph.t -> Pnut_tracer.Query.t -> bool
