type reason =
  | Wall of float
  | Heap of int
  | States of int
  | Cancelled

type progress = {
  elapsed_s : float;
  heap_words : int;
  visited : int;
  frontier : int;
}

type 'a outcome =
  | Complete of 'a
  | Degraded of { reason : reason; partial : 'a; progress : progress }

let value = function Complete v -> v | Degraded { partial; _ } -> partial

let map f = function
  | Complete v -> Complete (f v)
  | Degraded { reason; partial; progress } ->
    Degraded { reason; partial = f partial; progress }

let degraded = function Complete _ -> false | Degraded _ -> true

let reason_message = function
  | Wall s -> Printf.sprintf "wall-clock budget exhausted after %.3f s" s
  | Heap w ->
    Printf.sprintf "heap budget exhausted at %.1f Mw (%d MB)"
      (float_of_int w /. 1e6)
      (w * (Sys.word_size / 8) / 1024 / 1024)
  | States n -> Printf.sprintf "state budget exhausted at %d states" n
  | Cancelled -> "cancelled"

let pp_progress ppf p =
  Format.fprintf ppf "visited %d (frontier %d) in %.3f s, heap %.1f Mw"
    p.visited p.frontier p.elapsed_s
    (float_of_int p.heap_words /. 1e6)

type monitor = {
  budget : Budget.t;
  started : float;
  is_active : bool;
  mutable heap_read : float;  (* when [check] last read the heap *)
}

let start budget =
  { budget; started = Unix.gettimeofday ();
    is_active = not (Budget.is_none budget); heap_read = neg_infinity }

(* [Gc.quick_stat] costs ~30 clock reads, so the heap is read at most
   once per millisecond of wall clock, whatever the caller's cadence. *)
let heap_interval_s = 1e-3

let active m = m.is_active

let elapsed m = Unix.gettimeofday () -. m.started

let check m =
  if not m.is_active then None
  else
    let b = m.budget in
    match b.Budget.cancel with
    | Some tok when Budget.cancelled tok -> Some Cancelled
    | _ -> (
      match (b.Budget.wall_s, b.Budget.heap_words) with
      | None, None -> None
      | wall_s, heap_words -> (
        let now = Unix.gettimeofday () in
        let e = now -. m.started in
        match (wall_s, heap_words) with
        | Some limit, _ when e >= limit -> Some (Wall e)
        | _, Some limit when now -. m.heap_read >= heap_interval_s ->
          m.heap_read <- now;
          let w = (Gc.quick_stat ()).Gc.heap_words in
          if w >= limit then Some (Heap w) else None
        | _ -> None))

let run_budget m =
  if not m.is_active then None
  else
    let b = m.budget in
    Some
      { b with
        Budget.wall_s =
          Option.map (fun w -> Float.max 1e-6 (w -. elapsed m)) b.Budget.wall_s }

let snapshot m ~visited ~frontier =
  {
    elapsed_s = elapsed m;
    heap_words = (Gc.quick_stat ()).Gc.heap_words;
    visited;
    frontier;
  }

let cap ~who max_states =
  if max_states < 1 then invalid_arg (who ^ ": max_states must be positive");
  max_states

let[@inline] poll m i = if i land 255 = 0 then check m else None

let sweep m ~length expand =
  let rec go i =
    if i >= length () then None
    else
      match poll m (i + 1) with
      | Some r -> Some (r, length () - i)
      | None ->
        expand i;
        go (i + 1)
  in
  go 0

let finish m ~visited stop result =
  match stop with
  | None -> Complete result
  | Some (reason, frontier) ->
    Degraded
      { reason; partial = result; progress = snapshot m ~visited ~frontier }
