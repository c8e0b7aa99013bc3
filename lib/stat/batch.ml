module Trace = Pnut_trace.Trace

let windows ~warmup ~batches trace =
  let t_end = Trace.final_time trace in
  if batches < 2 then invalid_arg "Batch: need at least 2 batches";
  if warmup < 0.0 || warmup >= t_end then
    invalid_arg "Batch: warm-up leaves no observation window";
  let width = (t_end -. warmup) /. float_of_int batches in
  (warmup, width)

(* Integrate a place's token count over each batch window in one sweep. *)
let place_utilization ?(warmup = 0.0) ?(batches = 10) ?confidence trace name =
  let cursor = Trace.cursor (Trace.header trace) in
  let p =
    match Trace.lookup cursor name with
    | Trace.Place p :: _ -> p
    | _ -> raise Not_found
  in
  let marking = Trace.marking cursor in
  let start, width = windows ~warmup ~batches trace in
  let sums = Array.make batches 0.0 in
  let batch_of t =
    let b = int_of_float ((t -. start) /. width) in
    if b < 0 then -1 else min b (batches - 1)
  in
  (* accumulate value * overlap for a constant segment [t0, t1) *)
  let accumulate value t0 t1 =
    if t1 > start && value <> 0 then begin
      let t0 = Float.max t0 start in
      let b0 = max 0 (batch_of t0) in
      let b1 = batch_of (t1 -. 1e-12) in
      for b = b0 to b1 do
        let lo = start +. (float_of_int b *. width) in
        let hi = lo +. width in
        let overlap = Float.min hi t1 -. Float.max lo t0 in
        if overlap > 0.0 then
          sums.(b) <- sums.(b) +. (float_of_int value *. overlap)
      done
    end
  in
  let current = ref marking.(p) in
  let since = ref 0.0 in
  let step = Trace.emit (Trace.step cursor) in
  Array.iter
    (fun d ->
      step d;
      if marking.(p) <> !current then begin
        accumulate !current !since d.Trace.d_time;
        current := marking.(p);
        since := d.Trace.d_time
      end)
    (Trace.deltas trace);
  accumulate !current !since (Trace.final_time trace);
  Replication.of_samples ?confidence
    (Array.to_list (Array.map (fun s -> s /. width) sums))

let transition_throughput ?(warmup = 0.0) ?(batches = 10) ?confidence trace name =
  let t =
    match
      Array.find_index (String.equal name)
        (Trace.header trace).Trace.h_transitions
    with
    | Some t -> t
    | None -> raise Not_found
  in
  let start, width = windows ~warmup ~batches trace in
  let counts = Array.make batches 0 in
  Array.iter
    (fun (d : Trace.delta) ->
      if d.Trace.d_kind = Trace.Fire_end && d.Trace.d_transition = t
         && d.Trace.d_time >= start
      then begin
        let b =
          min (batches - 1)
            (int_of_float ((d.Trace.d_time -. start) /. width))
        in
        counts.(b) <- counts.(b) + 1
      end)
    (Trace.deltas trace);
  Replication.of_samples ?confidence
    (Array.to_list (Array.map (fun c -> float_of_int c /. width) counts))
