module Trace = Pnut_trace.Trace

type place_stats = {
  ps_name : string;
  ps_min : int;
  ps_max : int;
  ps_avg : float;
  ps_stddev : float;
  ps_final : int;
}

type transition_stats = {
  ts_name : string;
  ts_min : int;
  ts_max : int;
  ts_avg : float;
  ts_stddev : float;
  ts_starts : int;
  ts_ends : int;
  ts_throughput : float;
}

type report = {
  run_number : int;
  initial_clock : float;
  length : float;
  events_started : int;
  events_finished : int;
  places : place_stats array;
  transitions : transition_stats array;
}

(* Time-weighted accumulators for integer-valued step signals: one slot
   per place, then one per transition (its concurrent firings).  The
   integrals sit in float arrays, where an update does not box. *)
type signals = {
  current : int array;
  min : int array;
  max : int array;
  sum : float array;     (* integral of value dt *)
  sq_sum : float array;  (* integral of value^2 dt *)
}

let signals_make init =
  { current = Array.copy init; min = Array.copy init; max = Array.copy init;
    sum = Array.make (Array.length init) 0.0;
    sq_sum = Array.make (Array.length init) 0.0 }

let signal_set s i v =
  s.current.(i) <- v;
  if v < s.min.(i) then s.min.(i) <- v;
  if v > s.max.(i) then s.max.(i) <- v

let signal_stats s i total =
  if total <= 0.0 then (0.0, 0.0)
  else begin
    let mean = s.sum.(i) /. total in
    let var = Float.max 0.0 ((s.sq_sum.(i) /. total) -. (mean *. mean)) in
    (mean, sqrt var)
  end

type acc = {
  run : int;
  mutable header : Trace.header option;
  mutable t0 : float;
  prev : float array;  (* one slot: the clock reached so far *)
  mutable signals : signals;
  mutable n_places : int;
  mutable starts : int array;
  mutable ends : int array;
  mutable final : float option;
}

(* Integrates every signal up to [time]. *)
let[@inline] advance acc time =
  let dt = time -. acc.prev.(0) in
  if dt < 0.0 then
    invalid_arg
      (Printf.sprintf
         "stat: trace time went backwards (delta at %g after clock %g); \
          traces must be time-ordered"
         time acc.prev.(0))
  else if dt > 0.0 then begin
    let s = acc.signals in
    for i = 0 to Array.length s.current - 1 do
      let v = float_of_int s.current.(i) in
      s.sum.(i) <- s.sum.(i) +. (v *. dt);
      s.sq_sum.(i) <- s.sq_sum.(i) +. (v *. v *. dt)
    done;
    acc.prev.(0) <- time
  end

let on_header acc (h : Trace.header) =
  let nt = Array.length h.Trace.h_transitions in
  acc.header <- Some h;
  acc.signals <- signals_make (Array.append h.Trace.h_initial (Array.make nt 0));
  acc.n_places <- Array.length h.Trace.h_initial;
  acc.starts <- Array.make nt 0;
  acc.ends <- Array.make nt 0

let on_delta acc (v : Trace.view) =
  advance acc v.Trace.v_time.(0);
  let s = acc.signals in
  for i = 0 to v.Trace.v_marking_n - 1 do
    let p = v.Trace.v_places.(i) in
    if p >= acc.n_places then invalid_arg "Stat: place id out of range";
    signal_set s p (s.current.(p) + v.Trace.v_counts.(i))
  done;
  let t = v.Trace.v_transition in
  let ts = acc.n_places + t in
  match v.Trace.v_kind with
  | Trace.Fire_start ->
    acc.starts.(t) <- acc.starts.(t) + 1;
    signal_set s ts (s.current.(ts) + 1)
  | Trace.Fire_end ->
    acc.ends.(t) <- acc.ends.(t) + 1;
    signal_set s ts (s.current.(ts) - 1)

let on_finish acc time =
  advance acc time;
  acc.final <- Some time

let build acc =
  match acc.header, acc.final with
  | None, _ -> invalid_arg "Stat: no header received"
  | _, None -> invalid_arg "Stat: trace not finished"
  | Some h, Some final ->
    let length = final -. acc.t0 in
    let s = acc.signals in
    let place i name =
      let avg, dev = signal_stats s i length in
      { ps_name = name; ps_min = s.min.(i); ps_max = s.max.(i); ps_avg = avg;
        ps_stddev = dev; ps_final = s.current.(i) }
    in
    let transition i name =
      let k = acc.n_places + i in
      let avg, dev = signal_stats s k length in
      { ts_name = name; ts_min = s.min.(k); ts_max = s.max.(k); ts_avg = avg;
        ts_stddev = dev; ts_starts = acc.starts.(i); ts_ends = acc.ends.(i);
        ts_throughput =
          (if length > 0.0 then float_of_int acc.ends.(i) /. length else 0.0) }
    in
    {
      run_number = acc.run;
      initial_clock = acc.t0;
      length;
      events_started = Array.fold_left ( + ) 0 acc.starts;
      events_finished = Array.fold_left ( + ) 0 acc.ends;
      places = Array.mapi place h.Trace.h_places;
      transitions = Array.mapi transition h.Trace.h_transitions;
    }

let sink ?(run = 1) () =
  let acc =
    {
      run;
      header = None;
      t0 = 0.0;
      prev = [| 0.0 |];
      signals = signals_make [||];
      n_places = 0;
      starts = [||];
      ends = [||];
      final = None;
    }
  in
  let s =
    {
      Trace.on_header = on_header acc;
      on_delta = on_delta acc;
      on_finish = on_finish acc;
    }
  in
  (s, fun () -> build acc)

let of_trace ?run tr =
  let s, get = sink ?run () in
  Trace.replay tr s;
  get ()

let place r name =
  match Array.find_opt (fun p -> p.ps_name = name) r.places with
  | Some p -> p
  | None -> raise Not_found

let transition r name =
  match Array.find_opt (fun t -> t.ts_name = name) r.transitions with
  | Some t -> t
  | None -> raise Not_found

let utilization r name = (place r name).ps_avg
let throughput r name = (transition r name).ts_throughput

(* -- rendering -- *)

let pad width s =
  if String.length s >= width then s
  else s ^ String.make (width - String.length s) ' '

let pad_left width s =
  if String.length s >= width then s
  else String.make (width - String.length s) ' ' ^ s

let table buf headers rows =
  let columns = List.length headers in
  let widths = Array.make columns 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  measure headers;
  List.iter measure rows;
  let emit is_header row =
    List.iteri
      (fun i cell ->
        let padded =
          if i = 0 || is_header then pad widths.(i) cell
          else pad_left widths.(i) cell
        in
        Buffer.add_string buf padded;
        if i < columns - 1 then Buffer.add_string buf "  ")
      row;
    Buffer.add_char buf '\n'
  in
  emit true headers;
  List.iter (emit false) rows

let fmt_g f = Printf.sprintf "%g" f

let fmt_avg f =
  if Float.equal f 0.0 then "0" else Printf.sprintf "%.4f" f

let render r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "RUN STATISTICS\n";
  Buffer.add_string buf (Printf.sprintf "Run number           %d\n" r.run_number);
  Buffer.add_string buf
    (Printf.sprintf "Initial clock value  %s\n" (fmt_g r.initial_clock));
  Buffer.add_string buf
    (Printf.sprintf "Length of Simulation %s\n" (fmt_g r.length));
  Buffer.add_string buf
    (Printf.sprintf "Events started       %d\n" r.events_started);
  Buffer.add_string buf
    (Printf.sprintf "Events finished      %d\n" r.events_finished);
  Buffer.add_string buf "\nEVENT STATISTICS\n";
  Buffer.add_string buf (Printf.sprintf "Run number %d\n" r.run_number);
  table buf
    [ "Transition"; "Min/Max"; "Avg"; "Standard"; "Starts"; "Throughput" ]
    (Array.to_list r.transitions
    |> List.map (fun t ->
           [
             t.ts_name;
             Printf.sprintf "%d/%d" t.ts_min t.ts_max;
             fmt_avg t.ts_avg;
             fmt_avg t.ts_stddev;
             Printf.sprintf "%d/%d" t.ts_starts t.ts_ends;
             Printf.sprintf "%.4f" t.ts_throughput;
           ]));
  Buffer.add_string buf "\nPLACE STATISTICS\n";
  Buffer.add_string buf (Printf.sprintf "Run number %d\n" r.run_number);
  table buf
    [ "Place"; "Min/Max"; "Avg"; "Standard" ]
    (Array.to_list r.places
    |> List.map (fun p ->
           [
             p.ps_name;
             Printf.sprintf "%d/%d" p.ps_min p.ps_max;
             fmt_avg p.ps_avg;
             fmt_avg p.ps_stddev;
           ]));
  Buffer.contents buf

let render_tsv r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "run\t%d\tlength\t%g\tstarted\t%d\tfinished\t%d\n"
       r.run_number r.length r.events_started r.events_finished);
  Array.iter
    (fun t ->
      Buffer.add_string buf
        (Printf.sprintf "transition\t%s\t%d\t%d\t%.6f\t%.6f\t%d\t%d\t%.6f\n"
           t.ts_name t.ts_min t.ts_max t.ts_avg t.ts_stddev t.ts_starts
           t.ts_ends t.ts_throughput))
    r.transitions;
  Array.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "place\t%s\t%d\t%d\t%.6f\t%.6f\t%d\n" p.ps_name p.ps_min
           p.ps_max p.ps_avg p.ps_stddev p.ps_final))
    r.places;
  Buffer.contents buf

let pp ppf r = Format.pp_print_string ppf (render r)
