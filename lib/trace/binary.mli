(** Compact binary trace serialization.

    Same trace model as the textual {!Codec}, a fraction of the bytes:
    a length-prefixed record stream with varint-encoded ids and deltas,
    an interned variable-name table, and a per-transition marking
    dictionary (most transitions move the same tokens every firing, so
    repeated marking lists collapse to one flag bit).  Because every
    string is length-prefixed, names may contain any byte — the
    separator-aliasing pitfalls of the text format cannot occur here by
    construction.

    Layout (all integers are unsigned LEB128 varints; signed quantities
    are zigzag-encoded first; floats are raw IEEE-754 doubles,
    little-endian):

    {v
    magic   "\x00pnut-bin"          9 bytes; the NUL first byte is what
                                    read-side auto-detection keys on
    version 0x01                    1 byte
    header  net-name : string       string = varint length + bytes
            nplaces  : varint
              per place:      name : string, initial : zigzag varint
            ntransitions : varint
              per transition: name : string
            nvariables   : varint
              per variable:   name : string, value
    body    delta records, then one end record
    v}

    A delta record starts with a head byte [0000 EMMK]: [K] = kind
    (0 start / 1 end), [MM] = marking mode (0 empty, 1 same list as the
    previous record of this transition and kind, 2 explicit: varint
    count + (place varint, zigzag token-delta) pairs follow), [E] = an
    env section follows.  Then: the time as a zigzag varint of
    8·(t − previous t) when that is an exact integer (the common case —
    model delays are usually multiples of 1/8 cycle), or the escape
    varint [1] followed by the absolute time as a raw double; the
    transition id varint; the firing id, delta-coded against the last
    start record's id (zigzag); the marking per [MM]; and the env
    entries as (name-ref, value) pairs where name-ref [k+1] means entry
    [k] of the name table and [0] introduces a new name (string follows,
    appended to the table).  Values are a tag byte (0 int, 1 float,
    2 false, 3 true) plus a zigzag varint or raw double payload.

    The end record is the byte [0xFF] followed by the final clock as a
    raw double. *)

exception Parse_error of int * string
(** Byte offset and message. *)

val magic : string
(** ["\x00pnut-bin"] — the first byte of every binary trace is [0x00],
    which can never begin a textual trace. *)

(** {2 Writing} *)

val channel_sink : out_channel -> Trace.sink
(** Streaming writer with bounded buffering; records are flushed to the
    channel as they are produced. *)

val to_string : Trace.t -> string

(** {2 Reading} *)

val stream_channel :
  ?skip_first_byte:bool -> in_channel -> Trace.sink -> unit
(** Streams a binary trace into a sink in O(1) memory, reading ahead in
    64 KiB windows but never waiting for input past the end record.
    [skip_first_byte] is for callers that already consumed the leading
    magic byte during format auto-detection.  Raises {!Parse_error} on
    malformed input, including an id outside the header's tables. *)

val parse : string -> Trace.t
