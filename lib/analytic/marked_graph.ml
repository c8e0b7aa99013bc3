module Net = Pnut_core.Net

type verdict =
  | Cycle_time of float
  | Deadlock
  | Unbounded_rate

let mean_duration tr what = function
  | Net.Zero -> 0.0
  | Net.Const d -> d
  | Net.Uniform (lo, hi) -> (lo +. hi) /. 2.0
  | Net.Exponential mean -> mean
  | Net.Choice items ->
    let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 items in
    List.fold_left (fun acc (v, w) -> acc +. (v *. w /. total)) 0.0 items
  | Net.Dynamic _ ->
    invalid_arg
      (Printf.sprintf
         "Marked_graph: transition %s has a dynamic %s time (no static mean)"
         tr.Net.t_name what)

let is_marked_graph net =
  let np = Net.num_places net in
  let producers = Array.make np 0 in
  let consumers = Array.make np 0 in
  let violation = ref None in
  let note msg = if !violation = None then violation := Some msg in
  Array.iter
    (fun tr ->
      if tr.Net.t_inhibitors <> [] then
        note (Printf.sprintf "transition %s has inhibitor arcs" tr.Net.t_name);
      if tr.Net.t_predicate <> None then
        note (Printf.sprintf "transition %s has a predicate" tr.Net.t_name);
      if tr.Net.t_action <> [] then
        note (Printf.sprintf "transition %s has an action" tr.Net.t_name);
      List.iter
        (fun { Net.a_place; a_weight } ->
          if a_weight <> 1 then
            note
              (Printf.sprintf "arc %s -> %s has weight %d"
                 (Net.place net a_place).Net.p_name tr.Net.t_name a_weight);
          consumers.(a_place) <- consumers.(a_place) + 1)
        tr.Net.t_inputs;
      List.iter
        (fun { Net.a_place; a_weight } ->
          if a_weight <> 1 then
            note
              (Printf.sprintf "arc %s -> %s has weight %d" tr.Net.t_name
                 (Net.place net a_place).Net.p_name a_weight);
          producers.(a_place) <- producers.(a_place) + 1)
        tr.Net.t_outputs)
    (Net.transitions net);
  Array.iteri
    (fun p _ ->
      if producers.(p) <> 1 || consumers.(p) <> 1 then
        note
          (Printf.sprintf
             "place %s has %d producer(s) and %d consumer(s) (need exactly 1 \
              of each)"
             (Net.place net p).Net.p_name producers.(p) consumers.(p)))
    (Array.make np ());
  match !violation with
  | Some msg -> Error msg
  | None -> Ok ()

(* Edge list of the transition graph: one edge per place, from its
   producer to its consumer, carrying the consumer's mean delay and the
   place's initial tokens, plus the enabling self-loops. *)
let edges net =
  let np = Net.num_places net in
  let producer = Array.make np (-1) in
  let consumer = Array.make np (-1) in
  Array.iter
    (fun tr ->
      List.iter
        (fun { Net.a_place; _ } -> consumer.(a_place) <- tr.Net.t_id)
        tr.Net.t_inputs;
      List.iter
        (fun { Net.a_place; _ } -> producer.(a_place) <- tr.Net.t_id)
        tr.Net.t_outputs)
    (Net.transitions net);
  let delay = Array.make (Net.num_transitions net) 0.0 in
  Array.iter
    (fun tr ->
      delay.(tr.Net.t_id) <-
        mean_duration tr "enabling" tr.Net.t_enabling
        +. mean_duration tr "firing" tr.Net.t_firing)
    (Net.transitions net);
  let m0 = Pnut_core.Marking.to_array (Net.initial_marking net) in
  (* A transition's enabling clock is a single server: it restarts at
     each firing, so starts are at least one enabling delay apart — a
     one-token self-loop carrying that delay. *)
  let self_loops =
    Array.to_list (Net.transitions net)
    |> List.filter_map (fun tr ->
           let e = mean_duration tr "enabling" tr.Net.t_enabling in
           if e > 0.0 then Some (tr.Net.t_id, tr.Net.t_id, e, 1) else None)
  in
  (List.init np (fun p -> p)
  |> List.filter (fun p -> producer.(p) >= 0 && consumer.(p) >= 0)
  |> List.map (fun p -> (producer.(p), consumer.(p), delay.(consumer.(p)), m0.(p))))
  @ self_loops

(* Longest-path Bellman-Ford over weights (delay - lambda * tokens):
   detects whether some circuit has positive weight; optionally returns a
   node on such a circuit via the predecessor chain. *)
let positive_cycle nt edge_list lambda =
  let dist = Array.make nt 0.0 in
  let pred = Array.make nt (-1) in
  let improved = ref (-1) in
  for _ = 1 to nt do
    improved := -1;
    List.iter
      (fun (u, v, d, m) ->
        let w = d -. (lambda *. float_of_int m) in
        if dist.(u) +. w > dist.(v) +. 1e-12 then begin
          dist.(v) <- dist.(u) +. w;
          pred.(v) <- u;
          improved := v
        end)
      edge_list
  done;
  if !improved < 0 then None
  else begin
    (* walk back nt steps to land inside the cycle *)
    let v = ref !improved in
    for _ = 1 to nt do
      v := pred.(!v)
    done;
    Some (!v, pred)
  end

(* Whether the edges satisfying [keep] close a circuit. *)
let has_cycle nt keep edge_list =
  let adjacency = Array.make nt [] in
  List.iter
    (fun ((u, v, _, _) as e) -> if keep e then adjacency.(u) <- v :: adjacency.(u))
    edge_list;
  let color = Array.make nt 0 in
  let rec dfs v =
    color.(v) <- 1;
    let hit =
      List.exists
        (fun w ->
          if color.(w) = 1 then true
          else if color.(w) = 0 then dfs w
          else false)
        adjacency.(v)
    in
    if not hit then color.(v) <- 2;
    hit
  in
  let rec any v = v < nt && ((color.(v) = 0 && dfs v) || any (v + 1)) in
  any 0

let prepare net =
  (match is_marked_graph net with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Marked_graph: " ^ msg));
  (Net.num_transitions net, edges net)

let cycle_time net =
  let nt, edge_list = prepare net in
  if not (has_cycle nt (fun _ -> true) edge_list) then Unbounded_rate
  else if has_cycle nt (fun (_, _, _, m) -> m = 0) edge_list then
    Deadlock (* a tokenless circuit never fires *)
  else if positive_cycle nt edge_list 0.0 = None then
    Cycle_time 0.0 (* no circuit has a positive delay *)
  else begin
    let hi0 =
      1.0 +. List.fold_left (fun acc (_, _, d, _) -> acc +. d) 0.0 edge_list
    in
    let rec search lo hi k =
      if k = 0 then hi
      else
        let mid = (lo +. hi) /. 2.0 in
        match positive_cycle nt edge_list mid with
        | Some _ -> search mid hi (k - 1)   (* mid below the critical ratio *)
        | None -> search lo mid (k - 1)
    in
    Cycle_time (search 0.0 hi0 100)
  end

let critical_circuit net =
  let nt, edge_list = prepare net in
  match cycle_time net with
  | Deadlock | Unbounded_rate -> None
  | Cycle_time rho -> (
    (* slightly below the ratio a positive cycle exists; extract it *)
    let lambda = rho -. Float.max 1e-9 (rho *. 1e-9) in
    match positive_cycle nt edge_list lambda with
    | None -> None
    | Some (start, pred) ->
      let rec collect v acc =
        if List.mem v acc then
          (* rotate so the cycle starts at its first repeat *)
          let rec drop = function
            | w :: rest when w <> v -> drop rest
            | l -> l
          in
          List.rev (drop (List.rev acc))
        else collect pred.(v) (v :: acc)
      in
      Some (collect start [], rho))
