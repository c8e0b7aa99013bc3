type spec = {
  keep_places : string list option;
  keep_transitions : string list option;
  keep_vars : bool;
}

let all = { keep_places = None; keep_transitions = None; keep_vars = true }

let make_spec ?places ?transitions ?(vars = true) () =
  { keep_places = places; keep_transitions = transitions; keep_vars = vars }

(* Renumbering maps computed from a header: old id -> new id (or -1). *)
type maps = {
  place_map : int array;
  trans_map : int array;
}

let build_maps spec (h : Trace.header) =
  let select keep names =
    match keep with
    | None -> Array.map (fun _ -> true) names
    | Some wanted -> Array.map (fun n -> List.mem n wanted) names
  in
  let renumber mask =
    let next = ref 0 in
    Array.map
      (fun keep ->
        if keep then begin
          let id = !next in
          incr next;
          id
        end
        else -1)
      mask
  in
  let place_map = renumber (select spec.keep_places h.Trace.h_places) in
  let trans_map = renumber (select spec.keep_transitions h.Trace.h_transitions) in
  { place_map; trans_map }

(* Deltas from dropped transitions that still change kept places or
   variables are preserved so that place signals stay exact; they are
   attributed to a reserved pseudo-transition named below, appended after
   the kept transitions. *)
let other_name = "_filtered"

let keep_by map arr =
  Array.to_list arr
  |> List.filteri (fun i _ -> map.(i) >= 0)
  |> Array.of_list

let needs_other maps =
  Array.exists (fun id -> id < 0) maps.trans_map

let filter_header maps spec (h : Trace.header) =
  let transitions = keep_by maps.trans_map h.Trace.h_transitions in
  let transitions =
    if needs_other maps then Array.append transitions [| other_name |]
    else transitions
  in
  {
    Trace.h_net = h.Trace.h_net;
    h_places = keep_by maps.place_map h.Trace.h_places;
    h_transitions = transitions;
    h_initial = keep_by maps.place_map h.Trace.h_initial;
    h_variables = (if spec.keep_vars then h.Trace.h_variables else []);
  }

(* An orphaned delta (dropped transition, surviving changes) cannot keep
   its original Fire_start/Fire_end kind: its partner record may be
   dropped (no surviving changes), leaving the pseudo-transition with
   unbalanced starts/ends and negative concurrency in [stat].  Each
   orphan is therefore re-emitted as a self-contained zero-duration
   firing of [_filtered] — an empty start immediately followed by an end
   carrying the changes, the documented convention for instantaneous
   firings — with firing ids drawn from a dedicated counter.

   The downstream view is the filter's own: it owns its marking arrays
   and borrows the upstream view's env arrays. *)
let filter_delta m spec ~other ~other_fid downstream (out : Trace.view)
    (v : Trace.view) =
  out.Trace.v_time.(0) <- v.Trace.v_time.(0);
  out.Trace.v_marking_n <- 0;
  for i = 0 to v.Trace.v_marking_n - 1 do
    let p' = m.place_map.(v.Trace.v_places.(i)) in
    if p' >= 0 then Trace.add_marking out p' v.Trace.v_counts.(i)
  done;
  out.Trace.v_names <- v.Trace.v_names;
  out.Trace.v_values <- v.Trace.v_values;
  let env_n = if spec.keep_vars then v.Trace.v_env_n else 0 in
  out.Trace.v_env_n <- env_n;
  let t' = m.trans_map.(v.Trace.v_transition) in
  if t' >= 0 then begin
    out.Trace.v_kind <- v.Trace.v_kind;
    out.Trace.v_transition <- t';
    out.Trace.v_firing <- v.Trace.v_firing;
    downstream.Trace.on_delta out
  end
  else if out.Trace.v_marking_n > 0 || env_n > 0 then begin
    let marking_n = out.Trace.v_marking_n in
    out.Trace.v_kind <- Trace.Fire_start;
    out.Trace.v_transition <- other;
    out.Trace.v_firing <- !other_fid;
    incr other_fid;
    out.Trace.v_marking_n <- 0;
    out.Trace.v_env_n <- 0;
    downstream.Trace.on_delta out;
    out.Trace.v_kind <- Trace.Fire_end;
    out.Trace.v_marking_n <- marking_n;
    out.Trace.v_env_n <- env_n;
    downstream.Trace.on_delta out
  end

let sink spec downstream =
  let maps = ref None in
  let other = ref (-1) in
  let other_fid = ref 0 in
  let out = Trace.view () in
  {
    Trace.on_header =
      (fun h ->
        let m = build_maps spec h in
        maps := Some m;
        let h' = filter_header m spec h in
        if needs_other m then
          other := Array.length h'.Trace.h_transitions - 1;
        downstream.Trace.on_header h');
    on_delta =
      (fun v ->
        match !maps with
        | None -> invalid_arg "Filter.sink: delta before header"
        | Some m -> filter_delta m spec ~other:!other ~other_fid downstream out v);
    on_finish = (fun t -> downstream.Trace.on_finish t);
  }

let apply spec tr =
  let s, get = Trace.collector () in
  Trace.replay tr (sink spec s);
  get ()
