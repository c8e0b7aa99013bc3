exception Parse_error of int * string

(* -- writing --

   Each record is built in one reusable buffer per sink and handed on
   whole.  Delta records never go through [Printf]. *)

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 && n < 10 then Buffer.add_char buf (Char.unsafe_chr (48 + n))
  else if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else (Buffer.add_char buf '-'; add_digits buf (-n))

(* An integral double below 1e12, other than -0, has at most 12 digits,
   so [%.12g] would print exactly its integer.  Below 1e12 the integer
   round trip is exact, and it needs no C call. *)
let[@inline] prints_as_int f =
  Float.abs f < 1e12 && float_of_int (int_of_float f) = f
  && not (f = 0.0 && Float.sign_bit f)

let float_str f =
  if prints_as_int f then string_of_int (int_of_float f)
  else
    (* Shortest representation that round-trips a double. *)
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let[@inline] add_float buf f =
  if prints_as_int f then add_int buf (int_of_float f)
  else Buffer.add_string buf (float_str f)

(* -- name escaping --

   The line format separates fields with spaces, sections with ';' and
   classifies delta entries by ':' / '='.  A name containing any of
   those (or '%', the escape char itself, or control bytes) would alias
   a different trace, so such bytes are percent-encoded on emit and
   decoded on read.  Ordinary identifiers are untouched, keeping old
   traces and external producers working unchanged. *)

let must_escape c = c <= ' ' || c = ';' || c = ':' || c = '=' || c = '%' || c = '\x7f'

let add_name buf name =
  if name = "" then
    invalid_arg "Codec: empty names cannot be written to a text trace";
  String.iter
    (fun c ->
      if must_escape c then begin
        Buffer.add_char buf '%';
        Buffer.add_char buf "0123456789ABCDEF".[Char.code c lsr 4];
        Buffer.add_char buf "0123456789ABCDEF".[Char.code c land 15]
      end
      else Buffer.add_char buf c)
    name

let hex_digit line_no c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | _ -> raise (Parse_error (line_no, Printf.sprintf "bad escape digit %c" c))

let unescape_name line_no s =
  if not (String.contains s '%') then s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      (if s.[!i] <> '%' then Buffer.add_char buf s.[!i]
       else if !i + 2 >= n then
         raise (Parse_error (line_no, "truncated %-escape in name " ^ s))
       else begin
         Buffer.add_char buf
           (Char.chr ((16 * hex_digit line_no s.[!i + 1]) + hex_digit line_no s.[!i + 2]));
         i := !i + 2
       end);
      incr i
    done;
    Buffer.contents buf
  end

let add_value buf v =
  match v with
  | Pnut_core.Value.Int i -> Buffer.add_char buf 'i'; add_int buf i
  | Pnut_core.Value.Float f -> Buffer.add_char buf 'f'; add_float buf f
  | Pnut_core.Value.Bool b -> Buffer.add_string buf (if b then "btrue" else "bfalse")

let emit_header buf (h : Trace.header) =
  Printf.bprintf buf "%%pnut-trace 1\nnet %a\n" add_name h.Trace.h_net;
  Array.iteri
    (fun i name ->
      Printf.bprintf buf "place %d %a %d\n" i add_name name h.Trace.h_initial.(i))
    h.Trace.h_places;
  Array.iteri
    (fun i name -> Printf.bprintf buf "transition %d %a\n" i add_name name)
    h.Trace.h_transitions;
  List.iter
    (fun (name, v) -> Printf.bprintf buf "var %a %a\n" add_name name add_value v)
    h.Trace.h_variables;
  Buffer.add_string buf "begin\n"

let emit_delta buf (v : Trace.view) =
  Buffer.add_string buf "@ ";
  add_float buf v.Trace.v_time.(0);
  Buffer.add_string buf
    (match v.Trace.v_kind with Trace.Fire_start -> " S " | Trace.Fire_end -> " E ");
  add_int buf v.Trace.v_transition;
  Buffer.add_char buf ' ';
  add_int buf v.Trace.v_firing;
  if v.Trace.v_marking_n > 0 then Buffer.add_string buf " ;";
  for i = 0 to v.Trace.v_marking_n - 1 do
    Buffer.add_char buf ' '; add_int buf v.Trace.v_places.(i);
    Buffer.add_char buf ':'; add_int buf v.Trace.v_counts.(i)
  done;
  if v.Trace.v_env_n > 0 then Buffer.add_string buf " ;";
  for i = 0 to v.Trace.v_env_n - 1 do
    Buffer.add_char buf ' '; add_name buf v.Trace.v_names.(i);
    Buffer.add_char buf '='; add_value buf v.Trace.v_values.(i)
  done;
  Buffer.add_char buf '\n'

let emit_finish buf time = Printf.bprintf buf "end %a\n" add_float time

(* [out] takes each finished record.  The buffer is cleared before a
   record, so one that raises half-built (an empty name) never reaches
   [out]. *)
let sink_of_out out =
  let line = Buffer.create 256 in
  let record emit x = Buffer.clear line; emit line x; out line in
  { Trace.on_header = record emit_header; on_delta = record emit_delta;
    on_finish = record emit_finish }

let channel_sink oc = sink_of_out (Buffer.output_buffer oc)

let to_string tr =
  let buf = Buffer.create 4096 in
  Trace.replay tr (sink_of_out (Buffer.add_buffer buf));
  Buffer.contents buf

(* -- parsing --

   A body line is read in place, by one cursor over [s.[pos..hi)]; any
   blank of [String.trim] separates its fields.  Header lines are rare
   and are split into words. *)

(* Header accumulation state; deltas are never stored, they flow to the
   sink as they are parsed. *)
type header_state = {
  mutable net : string option;
  mutable places : (int * string * int) list;  (* reversed *)
  mutable transitions : (int * string) list;   (* reversed *)
  mutable vars : (string * Pnut_core.Value.t) list;  (* reversed *)
}

let split_ws s =
  String.split_on_char ' ' s |> List.filter (fun x -> x <> "")

(* One cursor per reader, moved to each line in turn. *)
type cursor = {
  mutable s : string;
  mutable hi : int;
  mutable line_no : int;
  mutable pos : int;
}

(* The helpers a body line runs through are inlined into [parse_delta];
   as calls, they made it about 1.4 times slower. *)
let fail c msg = raise (Parse_error (c.line_no, msg))
let[@inline] is_blank = function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false
let[@inline] is_digit = function '0' .. '9' -> true | _ -> false

let[@inline] skip_blanks c =
  let i = ref c.pos in
  while !i < c.hi && is_blank (String.unsafe_get c.s !i) do incr i done;
  c.pos <- !i

(* Whether a field ends at [i]: at a blank, ';' or the end of the line. *)
let[@inline] ends_field c i =
  i >= c.hi || match String.unsafe_get c.s i with ';' -> true | ch -> is_blank ch

let rec field_end c i = if ends_field c i then i else field_end c (i + 1)

let field c a = String.sub c.s a (field_end c a - a)
let rest c a = String.sub c.s a (c.hi - a)

let rec index_in s ch i hi =
  if i >= hi || String.unsafe_get s i = ch then i else index_in s ch (i + 1) hi

(* An integer is an optional '-' and at least one decimal digit, and
   must end at [stop], or at the end of its field when [stop < 0].  It
   is accumulated negated, so that [min_int] reads too; 18 digits
   cannot overflow, so only the digits past them are range-checked. *)
let[@inline] int_at c stop =
  let s = c.s and hi = c.hi and a = c.pos in
  let first = if a < hi && String.unsafe_get s a = '-' then a + 1 else a in
  let i = ref first and acc = ref 0 in
  while !i < hi && !i - first < 18 && is_digit (String.unsafe_get s !i) do
    acc := (!acc * 10) - (Char.code (String.unsafe_get s !i) - 48);
    incr i
  done;
  while !i < hi && is_digit (String.unsafe_get s !i) do
    let d = Char.code (String.unsafe_get s !i) - 48 in
    if !acc < (min_int + d) / 10 then fail c ("integer out of range: " ^ field c a);
    acc := (!acc * 10) - d;
    incr i
  done;
  c.pos <- !i;
  if !i = first || (if stop < 0 then not (ends_field c !i) else !i <> stop) then
    fail c ("expected integer, got " ^ field c a);
  if first > a then !acc
  else if !acc = min_int then fail c ("integer out of range: " ^ field c a)
  else - !acc

let parse_int line_no s =
  int_at { s; hi = String.length s; line_no; pos = 0 } (String.length s)

(* A time field, at a non-empty field, stored in [dst.(0)] so that it
   is never boxed.  Up to 15 digits is below 2^53, so such an integer
   converts to exactly the double [float_of_string] gives; any other
   spelling goes through [float_of_string] itself. *)
let[@inline] time_field c (dst : float array) =
  let a = c.pos in
  let first = if String.unsafe_get c.s a = '-' then a + 1 else a in
  let i = ref first and n = ref 0 in
  while !i < c.hi && is_digit (String.unsafe_get c.s !i) do
    n := (10 * !n) + Char.code (String.unsafe_get c.s !i) - 48;
    incr i
  done;
  if ends_field c !i && !i > first && !i - a <= 15 then begin
    c.pos <- !i;
    dst.(0) <- (if first > a then -.float_of_int !n else float_of_int !n)
  end
  else begin
    c.pos <- field_end c !i;
    let tok = String.sub c.s a (c.pos - a) in
    match float_of_string_opt tok with
    | Some f -> dst.(0) <- f
    | None -> fail c ("expected float, got " ^ tok)
  end

let value_of_string line_no s =
  let fail msg = raise (Parse_error (line_no, msg)) in
  if String.length s < 2 then fail ("bad value: " ^ s)
  else
    let body = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | 'i' -> Pnut_core.Value.Int (parse_int line_no body)
    | 'f' -> (
      match float_of_string_opt body with
      | Some f -> Pnut_core.Value.Float f
      | None -> fail ("bad float value: " ^ s))
    | 'b' -> (
      match body with
      | "true" -> Pnut_core.Value.Bool true
      | "false" -> Pnut_core.Value.Bool false
      | _ -> fail ("bad bool value: " ^ s))
    | _ -> fail ("bad value tag: " ^ s)

let[@inline] check_id c what id bound =
  if id < 0 || id >= bound then
    fail c (Printf.sprintf "%s id %d out of range [0, %d)" what id bound)

(* The head of a delta, from [head] to the first ';', is four fields. *)
let bad_head c head =
  let e = index_in c.s ';' head c.hi in
  fail c ("bad delta header: " ^ String.trim (String.sub c.s head (e - head)))

let[@inline] next_field c head =
  skip_blanks c;
  if c.pos >= c.hi || String.unsafe_get c.s c.pos = ';' then bad_head c head

(* "@ time kind tid fid ; p:d p:d ; v=x v=x", the cursor just past the
   '@', read into [v] in one pass.  After the head, ';' only separates
   sections, and an entry is marking if it holds ':' and env if it
   holds '=' (unambiguous because both are escaped inside names). *)
let parse_delta c (v : Trace.view) ~places ~transitions =
  let head = c.pos in
  next_field c head;
  time_field c v.Trace.v_time;
  next_field c head;
  let k = c.pos in
  (match String.unsafe_get c.s k with
  | 'S' when ends_field c (k + 1) -> v.Trace.v_kind <- Trace.Fire_start
  | 'E' when ends_field c (k + 1) -> v.Trace.v_kind <- Trace.Fire_end
  | _ -> fail c ("bad event kind " ^ field c k));
  c.pos <- k + 1;
  next_field c head;
  let tid = int_at c (-1) in
  next_field c head;
  let fid = int_at c (-1) in
  skip_blanks c;
  if c.pos < c.hi && c.s.[c.pos] <> ';' then bad_head c head;
  check_id c "transition" tid transitions;
  v.Trace.v_transition <- tid;
  v.Trace.v_firing <- fid;
  v.Trace.v_marking_n <- 0;
  v.Trace.v_env_n <- 0;
  while c.pos < c.hi do
    let a = c.pos in
    if ends_field c a then c.pos <- a + 1
    else begin
      (* The field's first ':', or its end.  A marking entry's ':' most
         often follows its place id directly, and an id of at most 18
         digits is read on the way there. *)
      let first = if String.unsafe_get c.s a = '-' then a + 1 else a in
      let i = ref first and n = ref 0 in
      while !i < c.hi && is_digit (String.unsafe_get c.s !i) do
        n := (10 * !n) + Char.code (String.unsafe_get c.s !i) - 48;
        incr i
      done;
      let colon =
        if !i < c.hi && String.unsafe_get c.s !i = ':' then !i
        else index_in c.s ':' a (field_end c a)
      in
      if colon < c.hi && String.unsafe_get c.s colon = ':' then begin
        let p =
          if colon = !i && colon > first && colon - first <= 18 then
            if first > a then - !n else !n
          else int_at c colon
        in
        check_id c "place" p places;
        c.pos <- colon + 1;
        Trace.add_marking v p (int_at c (-1))
      end
      else begin
        let eq = index_in c.s '=' a colon in
        if eq = colon then fail c ("bad delta entry " ^ field c a);
        let x = value_of_string c.line_no (String.sub c.s (eq + 1) (colon - eq - 1)) in
        Trace.add_env v (unescape_name c.line_no (String.sub c.s a (eq - a))) x;
        c.pos <- colon
      end
    end
  done

let build_header line_no st =
  let net =
    match st.net with
    | Some n -> n
    | None -> raise (Parse_error (line_no, "missing net line"))
  in
  let order l = List.sort (fun (a, _, _) (b, _, _) -> compare a b) l in
  let places = order st.places in
  List.iteri
    (fun expect (got, _, _) ->
      if expect <> got then
        raise (Parse_error (line_no, "place ids not contiguous")))
    places;
  let transitions =
    List.sort (fun (a, _) (b, _) -> compare a b) st.transitions
  in
  List.iteri
    (fun expect (got, _) ->
      if expect <> got then
        raise (Parse_error (line_no, "transition ids not contiguous")))
    transitions;
  {
    Trace.h_net = net;
    h_places = Array.of_list (List.map (fun (_, n, _) -> n) places);
    h_transitions = Array.of_list (List.map snd transitions);
    h_initial = Array.of_list (List.map (fun (_, _, v) -> v) places);
    h_variables = List.rev st.vars;
  }

(* -- incremental reader -- *)

type reader = {
  r_sink : Trace.sink;
  r_st : header_state;
  r_cur : cursor;
  r_view : Trace.view;
  mutable r_line : int;
  mutable r_in_body : bool;
  mutable r_finished : bool;
  mutable r_places : int;  (* id bounds, set at [begin] *)
  mutable r_transitions : int;
}

let reader sink =
  { r_sink = sink; r_st = { net = None; places = []; transitions = []; vars = [] };
    r_cur = { s = ""; hi = 0; line_no = 0; pos = 0 }; r_view = Trace.view ();
    r_line = 0; r_in_body = false; r_finished = false; r_places = 0; r_transitions = 0 }

let feed_header_line r line_no line =
  let st = r.r_st in
  match split_ws line with
  | [ "%pnut-trace"; "1" ] -> ()
  | "%pnut-trace" :: v :: _ ->
    raise (Parse_error (line_no, "unsupported trace version " ^ v))
  | [ "net"; name ] -> st.net <- Some (unescape_name line_no name)
  | [ "place"; id; name; init ] ->
    st.places <-
      (parse_int line_no id, unescape_name line_no name, parse_int line_no init)
      :: st.places
  | [ "transition"; id; name ] ->
    st.transitions <- (parse_int line_no id, unescape_name line_no name) :: st.transitions
  | [ "var"; name; v ] ->
    let name = unescape_name line_no name in
    if List.mem_assoc name st.vars then
      raise (Parse_error (line_no, "duplicate variable " ^ name));
    st.vars <- (name, value_of_string line_no v) :: st.vars
  | [ "begin" ] ->
    let h = build_header line_no st in
    r.r_in_body <- true;
    r.r_places <- Array.length h.Trace.h_places;
    r.r_transitions <- Array.length h.Trace.h_transitions;
    r.r_sink.Trace.on_header h
  | _ -> raise (Parse_error (line_no, "unexpected header line: " ^ line))

(* Feeds the line [s.[lo..hi)], without its newline. *)
let feed r s lo hi =
  r.r_line <- r.r_line + 1;
  let hi = ref hi in
  while !hi > lo && is_blank (String.unsafe_get s (!hi - 1)) do decr hi done;
  let c = r.r_cur in
  c.s <- s; c.hi <- !hi; c.line_no <- r.r_line; c.pos <- lo;
  skip_blanks c;
  let lo = c.pos in
  if lo = c.hi || s.[lo] = '#' then ()
  else if r.r_finished then fail c ("unexpected body line: " ^ rest c lo)
  else if not r.r_in_body then feed_header_line r c.line_no (rest c lo)
  else if s.[lo] = '@' then begin
    c.pos <- lo + 1;
    parse_delta c r.r_view ~places:r.r_places ~transitions:r.r_transitions;
    r.r_sink.Trace.on_delta r.r_view
  end
  else begin
    c.pos <- lo + 3;
    skip_blanks c;
    if field_end c lo <> lo + 3 || String.sub s lo 3 <> "end" || c.pos = c.hi then
      fail c ("unexpected body line: " ^ rest c lo);
    r.r_finished <- true;
    let t = [| 0.0 |] in
    time_field c t;
    if c.pos < c.hi then fail c ("unexpected body line: " ^ rest c lo);
    r.r_sink.Trace.on_finish t.(0)
  end

let check_finished r =
  if not r.r_finished then begin
    (* distinguish the two "truncated input" flavours for error parity
       with the stored-trace parser *)
    if (not r.r_in_body) && r.r_st.net = None then
      raise (Parse_error (r.r_line, "missing net line"));
    raise (Parse_error (r.r_line, "missing end line"))
  end

let parse text =
  let sink, get = Trace.collector () in
  let r = reader sink in
  List.iter
    (fun line -> feed r line 0 (String.length line))
    (String.split_on_char '\n' text);
  check_finished r;
  get ()

(* -- channel streaming with format auto-detection -- *)

(* Lines are parsed in place in a window refilled from the channel,
   which [first] starts.  A line longer than the window doubles it. *)
let stream_text_channel ic first sink =
  let r = reader sink in
  let win = ref (Bytes.make 65536 first) and lo = ref 0 and lim = ref 1 in
  while not r.r_finished do
    let nl = index_in (Bytes.unsafe_to_string !win) '\n' !lo !lim in
    if nl < !lim then begin
      feed r (Bytes.unsafe_to_string !win) !lo nl;
      lo := nl + 1
    end
    else begin
      (* move the partial line to the front and read more after it *)
      let part = !lim - !lo in
      let w = if part = Bytes.length !win then Bytes.create (2 * part) else !win in
      Bytes.blit !win !lo w 0 part;
      win := w;
      lo := 0;
      lim := part + input ic w part (Bytes.length w - part);
      if !lim = part then begin
        (* end of input: the last line may lack its newline *)
        if part > 0 then feed r (Bytes.unsafe_to_string w) 0 part;
        check_finished r
      end
    end
  done

let stream_channel ic sink =
  match input_char ic with
  | exception End_of_file -> raise (Parse_error (0, "empty trace"))
  | '\x00' -> Binary.stream_channel ~skip_first_byte:true ic sink
  | c -> stream_text_channel ic c sink

let read_channel ic =
  let sink, get = Trace.collector () in
  stream_channel ic sink;
  get ()
