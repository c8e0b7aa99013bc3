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
  mutable last : Trace.view array;  (* marking dictionary, by tid*2+kind *)
  prev_time : float array;  (* one slot: a float field would box per write *)
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
  w.last <-
    Array.init (2 * Array.length h.Trace.h_transitions) (fun _ -> Trace.view ());
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

let[@inline] add_time w time =
  let dt = time -. w.prev_time.(0) in
  let scaled = dt *. time_scale in
  if Float.is_integer scaled && Float.abs scaled < max_scaled then
    add_varint w.buf (zigzag (int_of_float scaled) lsl 1)
  else begin
    add_varint w.buf 1;
    add_f64 w.buf time
  end;
  w.prev_time.(0) <- time

let same_marking (a : Trace.view) (b : Trace.view) =
  let n = a.Trace.v_marking_n in
  n = b.Trace.v_marking_n
  && begin
    let i = ref 0 in
    while !i < n && a.Trace.v_places.(!i) = b.Trace.v_places.(!i)
          && a.Trace.v_counts.(!i) = b.Trace.v_counts.(!i) do incr i done;
    !i = n
  end

let emit_delta w (v : Trace.view) =
  let buf = w.buf in
  let kind = match v.Trace.v_kind with Trace.Fire_start -> 0 | Trace.Fire_end -> 1 in
  let mkey = (v.Trace.v_transition * 2) + kind in
  let n = v.Trace.v_marking_n in
  (* A dictionary slot holds the last explicit marking, none yet when
     empty: empty markings are not stored.  An id outside the header has
     no slot and is always explicit. *)
  let mark_mode =
    if n = 0 then 0
    else if mkey < 0 || mkey >= Array.length w.last then 2
    else if same_marking v w.last.(mkey) then 1
    else begin
      let slot = w.last.(mkey) in
      slot.Trace.v_marking_n <- 0;
      for i = 0 to n - 1 do
        Trace.add_marking slot v.Trace.v_places.(i) v.Trace.v_counts.(i)
      done;
      2
    end
  in
  let has_env = v.Trace.v_env_n > 0 in
  Buffer.add_char buf
    (Char.chr (kind lor (mark_mode lsl 1) lor (if has_env then 8 else 0)));
  add_time w v.Trace.v_time.(0);
  add_varint buf v.Trace.v_transition;
  (match v.Trace.v_kind with
  | Trace.Fire_start ->
    add_varint buf (zigzag (v.Trace.v_firing - w.prev_start_fid - 1));
    w.prev_start_fid <- v.Trace.v_firing
  | Trace.Fire_end ->
    add_varint buf (zigzag (w.prev_start_fid - v.Trace.v_firing)));
  if mark_mode = 2 then begin
    add_varint buf n;
    for i = 0 to n - 1 do
      add_varint buf v.Trace.v_places.(i);
      add_varint buf (zigzag v.Trace.v_counts.(i))
    done
  end;
  if has_env then begin
    add_varint buf v.Trace.v_env_n;
    for i = 0 to v.Trace.v_env_n - 1 do
      intern w v.Trace.v_names.(i);
      add_value buf v.Trace.v_values.(i)
    done
  end;
  w.flush ()

let emit_finish w time =
  Buffer.add_char w.buf '\xff';
  add_f64 w.buf time;
  w.flush ()

let make_sink ~flush buf =
  let w =
    { buf; flush; names = Hashtbl.create 16; n_names = 0; last = [||];
      prev_time = [| 0.0 |]; prev_start_fid = -1 }
  in
  { Trace.on_header = emit_header w; on_delta = emit_delta w;
    on_finish = emit_finish w }

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
  let acc = ref 0 and shift = ref 0 and b = ref (read_byte src) in
  while !b land 0x80 <> 0 do
    acc := !acc lor ((!b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if !shift > 62 then fail src "varint overflow";
    b := read_byte src
  done;
  !acc lor (!b lsl !shift)

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
  mutable r_last : Trace.view array;
      (* marking dictionary by tid*2+kind; [v_marking_n] is -1 until the
         first explicit marking *)
  r_view : Trace.view;  (* the delta handed on; its time is the previous one *)
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
  r.r_last <-
    Array.init (2 * ntrans) (fun _ -> { (Trace.view ()) with Trace.v_marking_n = -1 });
  {
    Trace.h_net = net;
    h_places = places;
    h_transitions = transitions;
    h_initial = initial;
    h_variables = List.rev !vars;
  }

let read_time r =
  let t = r.r_view.Trace.v_time in
  match read_varint r.src with
  | 1 -> t.(0) <- read_f64 r.src
  | u when u land 1 = 1 -> fail r.src "bad time encoding"
  | u -> t.(0) <- t.(0) +. (float_of_int (unzigzag (u lsr 1)) /. time_scale)

(* Fills [r_view] in place.  Mode 2 reads the marking into its
   dictionary slot; modes 1 and 2 point the view at the slot. *)
let read_delta r head =
  let src = r.src and v = r.r_view in
  let kind_bit = head land 1 in
  let mark_mode = (head lsr 1) land 3 in
  if head land 0xf0 <> 0 || mark_mode = 3 then
    fail src (Printf.sprintf "bad record head byte %#x" head);
  read_time r;
  let tid = read_varint src in
  check_id src "transition" tid r.r_transitions;
  let e = unzigzag (read_varint src) in
  if kind_bit = 0 then begin
    r.r_prev_start_fid <- r.r_prev_start_fid + 1 + e;
    v.Trace.v_kind <- Trace.Fire_start;
    v.Trace.v_firing <- r.r_prev_start_fid
  end
  else begin
    v.Trace.v_kind <- Trace.Fire_end;
    v.Trace.v_firing <- r.r_prev_start_fid - e
  end;
  v.Trace.v_transition <- tid;
  let slot = r.r_last.((tid * 2) + kind_bit) in
  if mark_mode = 0 then v.Trace.v_marking_n <- 0
  else begin
    if mark_mode = 2 then begin
      slot.Trace.v_marking_n <- 0;
      for _ = 1 to read_varint src do
        let p = read_varint src in
        check_id src "place" p r.r_places;
        Trace.add_marking slot p (unzigzag (read_varint src))
      done
    end
    else if slot.Trace.v_marking_n < 0 then
      fail src "marking back-reference before any explicit marking";
    v.Trace.v_places <- slot.Trace.v_places;
    v.Trace.v_counts <- slot.Trace.v_counts;
    v.Trace.v_marking_n <- slot.Trace.v_marking_n
  end;
  v.Trace.v_env_n <- 0;
  if head land 8 <> 0 then
    for _ = 1 to read_varint src do
      let name = read_name r in
      Trace.add_env v name (read_value src)
    done

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
      r_last = [||]; r_view = Trace.view (); r_prev_start_fid = -1 }
  in
  sink.Trace.on_header (read_header r);
  let rec loop () =
    match read_byte src with
    | 0xff -> sink.Trace.on_finish (read_f64 src)
    | head ->
      read_delta r head;
      sink.Trace.on_delta r.r_view;
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
