(* Shared helpers for the test suites. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

let check_contains what haystack needle =
  Alcotest.(check bool)
    (Printf.sprintf "%s contains %S" what needle)
    true (contains haystack needle)

(* Is |actual - expected| within tolerance? *)
let close ?(tolerance = 1e-9) expected actual =
  Float.abs (expected -. actual) <= tolerance

let check_close what ?tolerance expected actual =
  if not (close ?tolerance expected actual) then
    Alcotest.failf "%s: expected %g, got %g" what expected actual

(* A fresh cursor after deltas [0..i-1] of a stored trace; [after tr 0]
   is the initial state. *)
let after tr i =
  let module Trace = Pnut_trace.Trace in
  if i < 0 || i > Trace.length tr then
    invalid_arg "Testutil.after: index out of range";
  let c = Trace.cursor (Trace.header tr) in
  let step = Trace.emit (Trace.step c) in
  for k = 0 to i - 1 do
    step (Trace.deltas tr).(k)
  done;
  c

(* Marking in effect at [time]: after every delta stamped at or before
   it (deltas are in time order). *)
let state_at trace time =
  let module Trace = Pnut_trace.Trace in
  let n = ref 0 in
  Array.iter
    (fun d -> if d.Trace.d_time <= time then incr n)
    (Trace.deltas trace);
  Trace.marking (after trace !n)

(* Random timed nets for the steady-cycle oracles.  Each net has 2–5
   transitions; firing and enabling times are constants in 0–3 and each
   place starts with 0–3 tokens.  By default every transition owns 1–2
   input places, so no two transitions share an input, and gives back
   as many tokens as it takes: the first to a place of the next
   transition, the rest to places drawn at random.  With
   [~marked_graph:true] the places are a ring through every transition
   plus 0–2 chords, each place with one producer and one consumer. *)
let random_timed_net ?(marked_graph = false) rng =
  let module Net = Pnut_core.Net in
  let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let n = int 2 5 in
  (* places as (producer, consumer) pairs; without [marked_graph] only
     the consumer is fixed *)
  let arcs =
    if marked_graph then
      let chord _ =
        let u = int 0 (n - 1) in
        (u, int 0 (n - 1))
      in
      List.init n (fun t -> (t, (t + 1) mod n)) @ List.init (int 0 2) chord
    else List.concat (List.init n (fun t -> List.init (int 1 2) (fun _ -> (-1, t))))
  in
  let places = List.mapi (fun p arc -> (p, arc)) arcs in
  let inputs t = List.filter_map (fun (p, (_, c)) -> if c = t then Some p else None) places in
  let outputs t =
    if marked_graph then
      List.filter_map (fun (p, (u, _)) -> if u = t then Some p else None) places
    else
      let first = pick (inputs ((t + 1) mod n)) in
      first :: List.init (List.length (inputs t) - 1) (fun _ -> fst (pick places))
  in
  let weights ps =
    List.map (fun p -> (p, List.length (List.filter (( = ) p) ps))) (List.sort_uniq compare ps)
  in
  let delay () = match int 0 3 with 0 -> Net.Zero | d -> Net.Const (float_of_int d) in
  let b = Net.Builder.create "random" in
  List.iter
    (fun (p, _) ->
      ignore (Net.Builder.add_place b (Printf.sprintf "p%d" p) ~initial:(int 0 3) : int))
    places;
  for t = 0 to n - 1 do
    let firing = delay () in
    let enabling = delay () in
    ignore
      (Net.Builder.add_transition b (Printf.sprintf "t%d" t)
         ~inputs:(weights (inputs t)) ~outputs:(weights (outputs t)) ~firing ~enabling
        : int)
  done;
  Net.Builder.build b

(* Minor words allocated by [f ()], net of the two [Gc.minor_words]
   calls that measure it. *)
let minor_words_of f =
  let overhead =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  let a = Gc.minor_words () in
  f ();
  let b = Gc.minor_words () in
  b -. a -. overhead
