(** Textual trace serialization.

    Line-oriented, human-inspectable, and producer-agnostic: the format
    references places and transitions by id with a name table in the
    header, so any simulation tool (the paper names SIMSCRIPT) can emit it.

    Grammar (one record per line):
    {v
    %pnut-trace 1
    net <name>
    place <id> <name> <initial-tokens>
    transition <id> <name>
    var <name> <value>
    begin
    @ <time> S|E <transition-id> <firing-id> [; <place>:<delta> ...] [; <var>=<value> ...]
    end <final-time>
    v}
    An integer is an optional ['-'] and decimal digits, within the
    native int range; ids must lie inside the header's tables.  Floats
    are written by {!float_str}.  In body lines any blank separates
    fields.

    Names must be non-empty; bytes that would collide with the format's
    separators (space and control characters, [';'], [':'], ['='],
    ['%']) are percent-encoded as [%XX] on emit and decoded on read, so
    arbitrary names round-trip instead of aliasing a different trace.
    Plain identifiers are written verbatim — traces from older emitters
    and external producers parse unchanged. *)

val float_str : float -> string
(** [%.12g] if it reads back as the same double, else [%.17g]; an
    integral float below 1e12 (not -0) prints as the same int bytes. *)

val to_string : Trace.t -> string

val channel_sink : out_channel -> Trace.sink
(** Streaming writer: serializes each record to the channel as it
    arrives. *)

val parse : string -> Trace.t
(** Raises [Parse_error (line, message)] on malformed input. *)

val read_channel : in_channel -> Trace.t
(** Reads a stored trace from a channel, auto-detecting the format
    (textual, or binary via {!Binary}).  Stops after the end record.
    Prefer {!stream_channel} when the consumer is a sink: it runs in
    O(1) memory instead of materializing the trace. *)

(** {2 Streaming}

    The streaming reader drives a {!Trace.sink} record-by-record: the
    header is emitted once [begin] is seen, every delta line flows
    straight to the sink, and the trace is never materialized.  This is
    what makes [pnut sim - | pnut filter - | pnut stat -] run in
    constant memory regardless of trace length.  {!parse} drives the
    same reader line by line. *)

val stream_channel : in_channel -> Trace.sink -> unit
(** Streams a whole trace from a channel into a sink in O(1) memory,
    auto-detecting the format: a leading [0x00] byte selects the binary
    codec (see {!Binary.magic}), anything else the textual one.  Input
    is read in 64 KiB windows; parsing stops at the end record, ignores
    whatever else the window holds and never waits for input past it
    (a still-open pipe).  Raises [Parse_error] (or [Binary.Parse_error])
    on malformed input, including truncation. *)

exception Parse_error of int * string
