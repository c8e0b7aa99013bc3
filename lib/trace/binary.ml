exception Parse_error of int * string

let magic = "\x00pnut-bin"
let version = '\x01'

(* zigzag maps signed to unsigned so that small-magnitude values stay
   small: 0 -1 1 -2 2 ... -> 0 1 2 3 4 ... *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag u = (u lsr 1) lxor (-(u land 1))

(* Time deltas scaled by 8 cover every multiple of 1/8 cycle with a
   varint; anything else falls back to the raw double (escape varint 1,
   which zigzag·shift can never produce: it would need x = 0 with the
   low bit set). *)
let time_scale = 8.0

let max_scaled = float_of_int (1 lsl 59)

(* -- writing -- *)

let add_varint buf n =
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.chr !n)

let add_string buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let add_f64 buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let add_value buf v =
  match v with
  | Pnut_core.Value.Int i ->
    Buffer.add_char buf '\x00';
    add_varint buf (zigzag i)
  | Pnut_core.Value.Float f ->
    Buffer.add_char buf '\x01';
    add_f64 buf f
  | Pnut_core.Value.Bool false -> Buffer.add_char buf '\x02'
  | Pnut_core.Value.Bool true -> Buffer.add_char buf '\x03'

type wstate = {
  buf : Buffer.t;
  flush : unit -> unit;  (* drains [buf] when it grows past the cap *)
  names : (string, int) Hashtbl.t;     (* interned env-variable names *)
  mutable n_names : int;
  mutable last_marking : (int * int) list array;  (* by tid*2+kind *)
  mutable prev_time : float;
  mutable prev_start_fid : int;
}

let intern w name =
  match Hashtbl.find_opt w.names name with
  | Some i -> add_varint w.buf (i + 1)
  | None ->
    add_varint w.buf 0;
    add_string w.buf name;
    Hashtbl.replace w.names name w.n_names;
    w.n_names <- w.n_names + 1

let emit_header w (h : Trace.header) =
  let buf = w.buf in
  Buffer.add_string buf magic;
  Buffer.add_char buf version;
  add_string buf h.Trace.h_net;
  add_varint buf (Array.length h.Trace.h_places);
  Array.iteri
    (fun i name ->
      add_string buf name;
      add_varint buf (zigzag h.Trace.h_initial.(i)))
    h.Trace.h_places;
  add_varint buf (Array.length h.Trace.h_transitions);
  w.last_marking <- Array.make (2 * Array.length h.Trace.h_transitions) [];
  Array.iter (fun name -> add_string buf name) h.Trace.h_transitions;
  add_varint buf (List.length h.Trace.h_variables);
  List.iter
    (fun (name, v) ->
      add_string buf name;
      add_value buf v;
      if not (Hashtbl.mem w.names name) then begin
        Hashtbl.replace w.names name w.n_names;
        w.n_names <- w.n_names + 1
      end)
    h.Trace.h_variables;
  w.flush ()

let add_time w time =
  let dt = time -. w.prev_time in
  let scaled = dt *. time_scale in
  if Float.is_integer scaled && Float.abs scaled < max_scaled then
    add_varint w.buf (zigzag (int_of_float scaled) lsl 1)
  else begin
    add_varint w.buf 1;
    add_f64 w.buf time
  end;
  w.prev_time <- time

let same_entry ((p : int), (d : int)) (q, e) = p = q && d = e

let emit_delta w (d : Trace.delta) =
  let buf = w.buf in
  let kind = match d.Trace.d_kind with Trace.Fire_start -> 0 | Trace.Fire_end -> 1 in
  let mkey = (d.Trace.d_transition * 2) + kind in
  (* [] in the dictionary is "none yet": empty markings are not stored.
     An id outside the header has no slot and is always explicit. *)
  let slot = mkey >= 0 && mkey < Array.length w.last_marking in
  let mark_mode =
    match d.Trace.d_marking with
    | [] -> 0
    | m when slot && List.equal same_entry m w.last_marking.(mkey) -> 1
    | m ->
      if slot then w.last_marking.(mkey) <- m;
      2
  in
  let has_env = match d.Trace.d_env with [] -> false | _ -> true in
  Buffer.add_char buf
    (Char.chr (kind lor (mark_mode lsl 1) lor (if has_env then 8 else 0)));
  add_time w d.Trace.d_time;
  add_varint buf d.Trace.d_transition;
  (match d.Trace.d_kind with
  | Trace.Fire_start ->
    add_varint buf (zigzag (d.Trace.d_firing - w.prev_start_fid - 1));
    w.prev_start_fid <- d.Trace.d_firing
  | Trace.Fire_end ->
    add_varint buf (zigzag (w.prev_start_fid - d.Trace.d_firing)));
  if mark_mode = 2 then begin
    add_varint buf (List.length d.Trace.d_marking);
    List.iter
      (fun (p, dm) ->
        add_varint buf p;
        add_varint buf (zigzag dm))
      d.Trace.d_marking
  end;
  if has_env then begin
    add_varint buf (List.length d.Trace.d_env);
    List.iter
      (fun (name, v) ->
        intern w name;
        add_value buf v)
      d.Trace.d_env
  end;
  w.flush ()

let emit_finish w time =
  Buffer.add_char w.buf '\xff';
  add_f64 w.buf time;
  w.flush ()

let make_sink ~flush buf =
  let w =
    {
      buf;
      flush;
      names = Hashtbl.create 16;
      n_names = 0;
      last_marking = [||];
      prev_time = 0.0;
      prev_start_fid = -1;
    }
  in
  {
    Trace.on_header = emit_header w;
    on_delta = emit_delta w;
    on_finish = emit_finish w;
  }

let channel_sink oc =
  let buf = Buffer.create 65536 in
  let drain () =
    if Buffer.length buf >= 65536 then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  in
  let sink = make_sink ~flush:drain buf in
  {
    sink with
    Trace.on_finish =
      (fun t ->
        sink.Trace.on_finish t;
        Buffer.output_buffer oc buf;
        Buffer.clear buf;
        Stdlib.flush oc);
  }

let to_string tr =
  let buf = Buffer.create 65536 in
  Trace.replay tr (make_sink ~flush:ignore buf);
  Buffer.contents buf

(* -- reading -- *)

(* A byte window over the input: the whole string for [parse], a
   refillable buffer for a channel.  [base + i] is the offset error
   messages report. *)
type src = {
  ic : in_channel option;
  win : bytes;
  mutable lim : int;  (* bytes of [win] holding input *)
  mutable i : int;    (* next unread byte of [win] *)
  mutable base : int; (* offset of [win.[0]] *)
}

let fail src msg = raise (Parse_error (src.base + src.i, msg))

(* Makes at least one unread byte available, or fails at end of input. *)
let refill src =
  (match src.ic with
  | Some ic ->
    src.base <- src.base + src.lim;
    src.lim <- input ic src.win 0 (Bytes.length src.win);
    src.i <- 0
  | None -> ());
  if src.i >= src.lim then fail src "unexpected end of binary trace"

let read_byte src =
  if src.i >= src.lim then refill src;
  let b = Bytes.unsafe_get src.win src.i in
  src.i <- src.i + 1;
  Char.code b

let read_varint src =
  let rec go shift acc =
    if shift > 62 then fail src "varint overflow";
    let b = read_byte src in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0

let read_string src =
  let len = read_varint src in
  if len > 0x10000000 then fail src "string length out of range";
  let b = Bytes.create len in
  let k = ref 0 in
  while !k < len do
    if src.i >= src.lim then refill src;
    let n = min (len - !k) (src.lim - src.i) in
    Bytes.blit src.win src.i b !k n;
    src.i <- src.i + n;
    k := !k + n
  done;
  Bytes.unsafe_to_string b

let read_f64 src =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (read_byte src)) (i * 8))
  done;
  Int64.float_of_bits !bits

let read_value src =
  match read_byte src with
  | 0 -> Pnut_core.Value.Int (unzigzag (read_varint src))
  | 1 -> Pnut_core.Value.Float (read_f64 src)
  | 2 -> Pnut_core.Value.Bool false
  | 3 -> Pnut_core.Value.Bool true
  | t -> fail src (Printf.sprintf "bad value tag %d" t)

type rstate = {
  src : src;
  mutable r_names : string array;   (* growable interned name table *)
  mutable r_n_names : int;
  mutable r_places : int;  (* id bounds, from the header *)
  mutable r_transitions : int;
  mutable r_last_marking : (int * int) list array;  (* by tid*2+kind *)
  mutable r_prev_time : float;
  mutable r_prev_start_fid : int;
}

let table_add r name =
  if r.r_n_names >= Array.length r.r_names then begin
    let bigger = Array.make (max 16 (2 * Array.length r.r_names)) "" in
    Array.blit r.r_names 0 bigger 0 r.r_n_names;
    r.r_names <- bigger
  end;
  r.r_names.(r.r_n_names) <- name;
  r.r_n_names <- r.r_n_names + 1

let read_name r =
  match read_varint r.src with
  | 0 ->
    let name = read_string r.src in
    table_add r name;
    name
  | k ->
    if k - 1 >= r.r_n_names then fail r.src "name-table reference out of range";
    r.r_names.(k - 1)

(* The dictionary slot of a transition and kind not yet seen. *)
let no_marking = [ (-1, 0) ]

let check_id src what id bound =
  if id < 0 || id >= bound then
    fail src (Printf.sprintf "%s id %d out of range [0, %d)" what id bound)

let read_header r =
  let src = r.src in
  let net = read_string src in
  let nplaces = read_varint src in
  let places = Array.make nplaces "" in
  let initial = Array.make nplaces 0 in
  for i = 0 to nplaces - 1 do
    places.(i) <- read_string src;
    initial.(i) <- unzigzag (read_varint src)
  done;
  let ntrans = read_varint src in
  let transitions = Array.init ntrans (fun _ -> read_string src) in
  let nvars = read_varint src in
  let vars = ref [] in
  for _ = 1 to nvars do
    let name = read_string src in
    if List.mem_assoc name !vars then fail src ("duplicate variable " ^ name);
    let v = read_value src in
    table_add r name;
    vars := (name, v) :: !vars
  done;
  r.r_places <- nplaces;
  r.r_transitions <- ntrans;
  r.r_last_marking <- Array.make (2 * ntrans) no_marking;
  {
    Trace.h_net = net;
    h_places = places;
    h_transitions = transitions;
    h_initial = initial;
    h_variables = List.rev !vars;
  }

let read_time r =
  match read_varint r.src with
  | 1 ->
    let t = read_f64 r.src in
    r.r_prev_time <- t;
    t
  | u when u land 1 = 1 -> fail r.src "bad time encoding"
  | u ->
    let t = r.r_prev_time +. (float_of_int (unzigzag (u lsr 1)) /. time_scale) in
    r.r_prev_time <- t;
    t

let read_delta r head =
  let src = r.src in
  let kind_bit = head land 1 in
  let kind = if kind_bit = 0 then Trace.Fire_start else Trace.Fire_end in
  let mark_mode = (head lsr 1) land 3 in
  let has_env = head land 8 <> 0 in
  if head land 0xf0 <> 0 || mark_mode = 3 then
    fail src (Printf.sprintf "bad record head byte %#x" head);
  let time = read_time r in
  let tid = read_varint src in
  check_id src "transition" tid r.r_transitions;
  let fid =
    let e = unzigzag (read_varint src) in
    match kind with
    | Trace.Fire_start ->
      let fid = r.r_prev_start_fid + 1 + e in
      r.r_prev_start_fid <- fid;
      fid
    | Trace.Fire_end -> r.r_prev_start_fid - e
  in
  let mkey = (tid * 2) + kind_bit in
  let marking =
    match mark_mode with
    | 0 -> []
    | 1 when r.r_last_marking.(mkey) == no_marking ->
      fail src "marking back-reference before any explicit marking"
    | 1 -> r.r_last_marking.(mkey)
    | _ ->
      let n = read_varint src in
      let m =
        List.init n (fun _ ->
            let p = read_varint src in
            check_id src "place" p r.r_places;
            let dm = unzigzag (read_varint src) in
            (p, dm))
      in
      r.r_last_marking.(mkey) <- m;
      m
  in
  let env =
    if not has_env then []
    else
      let n = read_varint src in
      List.init n (fun _ ->
          let name = read_name r in
          let v = read_value src in
          (name, v))
  in
  {
    Trace.d_time = time;
    d_kind = kind;
    d_transition = tid;
    d_firing = fid;
    d_marking = marking;
    d_env = env;
  }

let stream ?(skip_first_byte = false) src (sink : Trace.sink) =
  let from = if skip_first_byte then 1 else 0 in
  String.iteri
    (fun i expected ->
      if i >= from then
        if read_byte src <> Char.code expected then
          fail src "bad magic: not a binary pnut trace")
    magic;
  (match read_byte src with
  | 1 -> ()
  | v -> fail src (Printf.sprintf "unsupported binary trace version %d" v));
  let r =
    { src; r_names = [||]; r_n_names = 0; r_places = 0; r_transitions = 0;
      r_last_marking = [||]; r_prev_time = 0.0; r_prev_start_fid = -1 }
  in
  sink.Trace.on_header (read_header r);
  let rec loop () =
    match read_byte src with
    | 0xff -> sink.Trace.on_finish (read_f64 src)
    | head ->
      sink.Trace.on_delta (read_delta r head);
      loop ()
  in
  loop ()

let stream_channel ?skip_first_byte ic sink =
  stream ?skip_first_byte
    { ic = Some ic; win = Bytes.create 65536; lim = 0; i = 0; base = 0 } sink

let parse s =
  let sink, get = Trace.collector () in
  let win = Bytes.unsafe_of_string s in
  stream { ic = None; win; lim = Bytes.length win; i = 0; base = 0 } sink;
  get ()
