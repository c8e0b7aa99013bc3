module Net = Pnut_core.Net
module Marking = Pnut_core.Marking
module Trace = Pnut_trace.Trace

type phase =
  | Consume
  | Transit
  | Produce

type frame = {
  f_time : float;
  f_step : int;
  f_phase : phase;
  f_caption : string;
  f_text : string;
}

let gauge count =
  let shown = max 0 (min count 12) in
  let dots = String.concat "" (List.init shown (fun _ -> "o")) in
  if count > shown then dots ^ "+" else dots

(* The state panel's rows; every requested name must be a place. *)
let selected_places ?places net =
  match places with
  | None -> Array.to_list (Net.places net)
  | Some names -> (
    match List.filter (fun n -> Net.find_place net n = None) names with
    | [] -> List.filter_map (Net.find_place net) names
    | unknown ->
      invalid_arg
        ("Animator: no place named " ^ String.concat ", " unknown))

let render_state_rows rows marking ~highlight =
  let width =
    List.fold_left (fun acc p -> max acc (String.length p.Net.p_name)) 4 rows
  in
  List.map
    (fun p ->
      let count = Marking.get marking p.Net.p_id in
      let mark =
        match List.assoc_opt p.Net.p_id highlight with
        | Some `Out -> " <-"
        | Some `In -> " ->"
        | None -> ""
      in
      Printf.sprintf "  %-*s [%2d] %s%s" width p.Net.p_name count (gauge count)
        mark)
    rows

let render_state ?places net marking =
  let rows = selected_places ?places net in
  String.concat "\n" (render_state_rows rows marking ~highlight:[]) ^ "\n"

let arc_list net arcs =
  String.concat ", "
    (List.map
       (fun { Net.a_place; a_weight } ->
         let name = (Net.place net a_place).Net.p_name in
         if a_weight = 1 then name else Printf.sprintf "%d x %s" a_weight name)
       arcs)

let frame_for rows net marking v phase =
  let tr = Net.transition net v.Trace.v_transition in
  let name = tr.Net.t_name in
  let caption, arrow, highlight =
    match v.Trace.v_kind, phase with
    | Trace.Fire_start, Consume ->
      ( Printf.sprintf "%s takes %s" name (arc_list net tr.Net.t_inputs),
        Printf.sprintf "( %s ) ==> [ %s ]" (arc_list net tr.Net.t_inputs) name,
        List.map (fun a -> (a.Net.a_place, `Out)) tr.Net.t_inputs )
    | Trace.Fire_start, (Transit | Produce) ->
      ( Printf.sprintf "%s is firing" name,
        Printf.sprintf "[ %s ] (tokens in transit)" name,
        [] )
    | Trace.Fire_end, (Consume | Transit) ->
      ( Printf.sprintf "%s completes" name,
        Printf.sprintf "[ %s ] (about to release)" name,
        [] )
    | Trace.Fire_end, Produce ->
      ( Printf.sprintf "%s puts %s" name (arc_list net tr.Net.t_outputs),
        Printf.sprintf "[ %s ] ==> ( %s )" name (arc_list net tr.Net.t_outputs),
        List.map (fun a -> (a.Net.a_place, `In)) tr.Net.t_outputs )
  in
  let text =
    Printf.sprintf "t=%-10g %s\n%s\n%s\n" (Trace.time v) caption arrow
      (String.concat "\n" (render_state_rows rows marking ~highlight))
  in
  (caption, text)

let check_header net (h : Trace.header) =
  let places_match =
    Array.length h.Trace.h_places = Net.num_places net
    && Array.for_all
         (fun name -> Option.is_some (Net.find_place net name))
         h.Trace.h_places
  in
  let transitions_match =
    Array.length h.Trace.h_transitions = Net.num_transitions net
    && Array.for_all
         (fun name -> Option.is_some (Net.find_transition net name))
         h.Trace.h_transitions
  in
  if not (places_match && transitions_match) then
    invalid_arg "Animator: trace does not match the net"

let sink ?places net emit =
  let rows = selected_places ?places net in
  let cursor = ref (Trace.cursor (Trace.header_of_net net)) in
  let step = ref 0 in
  let frame v phase =
    let marking = Marking.unsafe_wrap (Trace.marking !cursor) in
    let f_caption, f_text = frame_for rows net marking v phase in
    emit
      { f_time = Trace.time v; f_step = !step; f_phase = phase; f_caption;
        f_text }
  in
  {
    Trace.on_header =
      (fun h ->
        check_header net h;
        cursor := Trace.cursor h);
    on_delta =
      (fun v ->
        (* pre-state frame: tokens about to move *)
        (match v.Trace.v_kind with
        | Trace.Fire_start -> frame v Consume
        | Trace.Fire_end -> frame v Transit);
        Trace.step !cursor v;
        (match v.Trace.v_kind with
        | Trace.Fire_start -> frame v Transit
        | Trace.Fire_end -> frame v Produce);
        incr step);
    on_finish = (fun _ -> ());
  }

let frames ?places net trace =
  let out = ref [] in
  Trace.replay trace (sink ?places net (fun f -> out := f :: !out));
  List.rev !out

let play ?(delay_s = 0.0) oc frame_list =
  List.iter
    (fun f ->
      output_string oc f.f_text;
      output_string oc "----------------------------------------\n";
      flush oc;
      if delay_s > 0.0 then Unix.sleepf delay_s)
    frame_list
