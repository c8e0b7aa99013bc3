module Trace = Pnut_trace.Trace
module Expr = Pnut_core.Expr
module Env = Pnut_core.Env
module Value = Pnut_core.Value

type t =
  | Place of string
  | Transition of string
  | Var of string
  | Fun of string * Expr.t

let label = function
  | Place name | Transition name | Var name | Fun (name, _) -> name

type series = {
  times : float array;
  values : float array;
  t_end : float;
}

let value_at s time =
  let n = Array.length s.times in
  if n = 0 then 0.0
  else begin
    (* binary search: greatest i with times.(i) <= time *)
    let rec go lo hi =
      (* invariant: times.(lo) <= time < times.(hi) (hi may be n) *)
      if hi - lo <= 1 then s.values.(lo)
      else
        let mid = (lo + hi) / 2 in
        if s.times.(mid) <= time then go mid hi else go lo mid
    in
    if time < s.times.(0) then s.values.(0) else go 0 n
  end

type probe = {
  signal : t;
  compute : unit -> float;  (* reads the live cursor state *)
  mutable times_rev : float list;
  mutable values_rev : float list;
  mutable last : float;
  mutable started : bool;
}

let sample trace signals =
  let cursor = Trace.cursor (Trace.header trace) in
  (* The first source the name denotes among those [keep] accepts. *)
  let reader keep name =
    match List.find_opt keep (Trace.lookup cursor name) with
    | Some source -> fun () -> Value.to_float (Trace.read cursor source)
    | None ->
      invalid_arg
        (Printf.sprintf "signal %S: no place, transition or variable of that name"
           name)
  in
  let compute_of_signal = function
    | Place name -> reader (function Trace.Place _ -> true | _ -> false) name
    | Transition name ->
      reader (function Trace.Transition _ -> true | _ -> false) name
    | Var name -> reader (function Trace.Variable _ -> true | _ -> false) name
    | Fun (_, expr) ->
      let readers =
        List.map (fun v -> (v, reader (fun _ -> true) v)) (Expr.variables expr)
      in
      fun () ->
        let scratch = Env.create () in
        List.iter (fun (v, f) -> Env.set scratch v (Value.Float (f ()))) readers;
        Expr.eval_float scratch expr
  in
  let probes =
    List.map
      (fun s ->
        {
          signal = s;
          compute = compute_of_signal s;
          times_rev = [];
          values_rev = [];
          last = 0.0;
          started = false;
        })
      signals
  in
  (* Every value change is recorded, including several at the same
     instant: intermediate breakpoints keep zero-width pulses visible to
     the waveform renderer, and [value_at] resolves a repeated time to
     the last value recorded at it. *)
  let record time p =
    let v =
      try p.compute ()
      with Expr.Eval_error msg | Value.Type_error msg ->
        let shown =
          match p.signal with Fun (_, e) -> Expr.to_string e | s -> label s
        in
        invalid_arg (Printf.sprintf "signal %S: %s" shown msg)
    in
    if (not p.started) || not (Float.equal v p.last) then begin
      p.times_rev <- time :: p.times_rev;
      p.values_rev <- v :: p.values_rev;
      p.last <- v;
      p.started <- true
    end
  in
  List.iter (record 0.0) probes;
  let step = Trace.emit (Trace.step cursor) in
  Array.iter
    (fun d ->
      step d;
      List.iter (record d.Trace.d_time) probes)
    (Trace.deltas trace);
  let t_end = Trace.final_time trace in
  List.map
    (fun p ->
      ( p.signal,
        {
          times = Array.of_list (List.rev p.times_rev);
          values = Array.of_list (List.rev p.values_rev);
          t_end;
        } ))
    probes

let to_csv trace signals =
  let sampled = sample trace signals in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "time";
  List.iter
    (fun (sg, _) ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (label sg))
    sampled;
  Buffer.add_char buf '\n';
  (* union of breakpoint times, deduplicated *)
  let times =
    List.concat_map (fun (_, s) -> Array.to_list s.times) sampled
    @ [ Trace.final_time trace ]
    |> List.sort_uniq Float.compare
  in
  List.iter
    (fun t ->
      Buffer.add_string buf (Printf.sprintf "%.12g" t);
      List.iter
        (fun (_, s) ->
          Buffer.add_string buf (Printf.sprintf ",%.12g" (value_at s t)))
        sampled;
      Buffer.add_char buf '\n')
    times;
  Buffer.contents buf
