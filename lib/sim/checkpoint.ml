module Value = Pnut_core.Value

exception Parse_error of int * string

type t = {
  ck_net : string;
  ck_clock : float;
  ck_prng : int64;
  ck_marking : int array;
  ck_deadlines : (int * float) list;
  ck_in_flight : (int * int) list;
  ck_pending : (float * int * int) list;
  ck_variables : (string * Value.t) list;
  ck_tables : (string * Value.t array) list;
  ck_next_firing_id : int;
  ck_started : int;
  ck_finished : int;
  ck_instant_firings : int;
}

(* Floats are written in hexadecimal so the restored run continues from
   bit-identical times; [float_of_string] reads the notation back. *)
let float_str f = Printf.sprintf "%h" f

let to_string ck =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "%%pnut-checkpoint 1";
  line "net %s" ck.ck_net;
  line "clock %s" (float_str ck.ck_clock);
  line "prng 0x%Lx" ck.ck_prng;
  line "counters %d %d %d %d" ck.ck_next_firing_id ck.ck_started
    ck.ck_finished ck.ck_instant_firings;
  line "marking %s"
    (String.concat " " (Array.to_list (Array.map string_of_int ck.ck_marking)));
  List.iter (fun (tid, d) -> line "deadline %d %s" tid (float_str d)) ck.ck_deadlines;
  List.iter (fun (tid, n) -> line "inflight %d %d" tid n) ck.ck_in_flight;
  List.iter
    (fun (time, tid, fid) -> line "pending %s %d %d" (float_str time) tid fid)
    ck.ck_pending;
  let value_tokens = function
    | Value.Int i -> [ "i"; string_of_int i ]
    | Value.Float f -> [ "f"; float_str f ]
    | Value.Bool v -> [ "b"; string_of_bool v ]
  in
  List.iter
    (fun (name, v) -> line "var %s %s" name (String.concat " " (value_tokens v)))
    ck.ck_variables;
  List.iter
    (fun (name, arr) ->
      line "table %s %s" name
        (String.concat " "
           (List.concat_map value_tokens (Array.to_list arr))))
    ck.ck_tables;
  line "end";
  Buffer.contents b

let of_string text =
  let fail ln fmt = Printf.ksprintf (fun s -> raise (Parse_error (ln, s))) fmt in
  let parse_float ln s =
    try float_of_string s with Failure _ -> fail ln "bad float %S" s
  in
  let parse_int ln s =
    try int_of_string s with Failure _ -> fail ln "bad integer %S" s
  in
  let rec parse_values ln acc = function
    | [] -> List.rev acc
    | "i" :: v :: rest -> parse_values ln (Value.Int (parse_int ln v) :: acc) rest
    | "f" :: v :: rest -> parse_values ln (Value.Float (parse_float ln v) :: acc) rest
    | "b" :: v :: rest ->
      let v =
        try bool_of_string v with Invalid_argument _ -> fail ln "bad bool %S" v
      in
      parse_values ln (Value.Bool v :: acc) rest
    | tok :: _ -> fail ln "bad value tag %S" tok
  in
  let net = ref None
  and clock = ref None
  and prng = ref None
  and marking = ref None
  and counters = ref None
  and deadlines = ref []
  and in_flight = ref []
  and pending = ref []
  and variables = ref []
  and tables = ref []
  and saw_end = ref false in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i raw ->
      let ln = i + 1 in
      let line = String.trim raw in
      if line <> "" && not !saw_end then
        match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
        | [ "%pnut-checkpoint"; "1" ] -> ()
        | "%pnut-checkpoint" :: v :: _ -> fail ln "unsupported version %s" v
        | [ "net"; name ] -> net := Some name
        | [ "clock"; f ] -> clock := Some (parse_float ln f)
        | [ "prng"; s ] ->
          prng := (try Some (Int64.of_string s) with Failure _ -> fail ln "bad prng state %S" s)
        | [ "counters"; a; b; c; d ] ->
          counters :=
            Some (parse_int ln a, parse_int ln b, parse_int ln c, parse_int ln d)
        | "marking" :: counts ->
          marking := Some (Array.of_list (List.map (parse_int ln) counts))
        | [ "deadline"; tid; d ] ->
          deadlines := (parse_int ln tid, parse_float ln d) :: !deadlines
        | [ "inflight"; tid; n ] ->
          in_flight := (parse_int ln tid, parse_int ln n) :: !in_flight
        | [ "pending"; time; tid; fid ] ->
          pending :=
            (parse_float ln time, parse_int ln tid, parse_int ln fid) :: !pending
        | [ "var"; name; tag; v ] -> (
          match parse_values ln [] [ tag; v ] with
          | [ v ] -> variables := (name, v) :: !variables
          | _ -> fail ln "bad variable line")
        | "table" :: name :: rest ->
          tables := (name, Array.of_list (parse_values ln [] rest)) :: !tables
        | [ "end" ] -> saw_end := true
        | keyword :: _ -> fail ln "unknown checkpoint line %S" keyword
        | [] -> ())
    lines;
  if not !saw_end then raise (Parse_error (List.length lines, "truncated checkpoint (no end line)"));
  let require what = function
    | Some v -> v
    | None -> raise (Parse_error (0, "missing " ^ what ^ " line"))
  in
  let next_firing_id, started, finished, instant_firings =
    require "counters" !counters
  in
  {
    ck_net = require "net" !net;
    ck_clock = require "clock" !clock;
    ck_prng = require "prng" !prng;
    ck_marking = require "marking" !marking;
    ck_deadlines = List.rev !deadlines;
    ck_in_flight = List.rev !in_flight;
    ck_pending = List.rev !pending;
    ck_variables = List.rev !variables;
    ck_tables = List.rev !tables;
    ck_next_firing_id = next_firing_id;
    ck_started = started;
    ck_finished = finished;
    ck_instant_firings = instant_firings;
  }

let save path ck =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string ck))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let resume_trace sink net ck =
  let module Trace = Pnut_trace.Trace in
  sink.Trace.on_header
    { (Trace.header_of_net net) with
      Trace.h_initial = ck.ck_marking;
      h_variables = ck.ck_variables };
  let v = Trace.view () in
  v.Trace.v_time.(0) <- ck.ck_clock;
  List.iter
    (fun (_, tid, fid) ->
      v.Trace.v_transition <- tid;
      v.Trace.v_firing <- fid;
      sink.Trace.on_delta v)
    ck.ck_pending
