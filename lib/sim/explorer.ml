module Net = Pnut_core.Net
module Marking = Pnut_core.Marking
module Env = Pnut_core.Env
module Value = Pnut_core.Value

(* State-changing commands are logged so that [back] can rebuild the
   state by deterministic replay from the initial state (the random
   stream is seeded, so replay is exact). *)
type mutation =
  | M_fire of Net.transition_id
  | M_step
  | M_run of float

type session = {
  net : Net.t;
  seed : int;
  mutable sim : Simulator.t;
  mutable history : mutation list;  (* most recent first *)
}

let out_line oc fmt =
  Printf.ksprintf
    (fun s ->
      output_string oc s;
      output_char oc '\n';
      flush oc)
    fmt

let show session oc =
  let sim = session.sim in
  out_line oc "clock: %g" (Simulator.clock sim);
  let marking = Simulator.marking sim in
  Array.iter
    (fun p ->
      let count = Marking.get marking p.Net.p_id in
      if count > 0 then out_line oc "  %-32s %d" p.Net.p_name count)
    (Net.places session.net);
  let bindings = Env.bindings (Simulator.env sim) in
  if bindings <> [] then begin
    out_line oc "variables:";
    List.iter
      (fun (name, v) -> out_line oc "  %-32s %s" name (Value.to_string v))
      bindings
  end;
  let in_flight = Simulator.in_flight sim in
  Array.iteri
    (fun tid count ->
      if count > 0 then
        out_line oc "  firing: %s (x%d)"
          (Net.transition session.net tid).Net.t_name count)
    in_flight

let enabled session oc =
  match Simulator.fireable_transitions session.sim with
  | [] -> out_line oc "nothing fireable at t=%g" (Simulator.clock session.sim)
  | ready ->
    List.iter
      (fun tid ->
        out_line oc "  fireable: %s" (Net.transition session.net tid).Net.t_name)
      ready

let replay_mutation session m =
  match m with
  | M_fire tid -> Simulator.fire_transition session.sim tid
  | M_step -> ignore (Simulator.step session.sim : Simulator.step_result)
  | M_run d ->
    ignore
      (Simulator.run ~until:(Simulator.clock session.sim +. d) session.sim
        : Simulator.outcome)

let record session m = session.history <- m :: session.history

let fire session oc name =
  match Net.find_transition session.net name with
  | None -> out_line oc "error: no transition named %s" name
  | Some tr -> (
    match Simulator.fire_transition session.sim tr.Net.t_id with
    | () ->
      record session (M_fire tr.Net.t_id);
      out_line oc "fired %s at t=%g" name (Simulator.clock session.sim)
    | exception Invalid_argument msg -> out_line oc "error: %s" msg)

let mutation_label session = function
  | M_fire tid -> "fire " ^ (Net.transition session.net tid).Net.t_name
  | M_step -> "step"
  | M_run d -> Printf.sprintf "run %g" d

let back session oc =
  match session.history with
  | [] -> out_line oc "error: nothing to undo"
  | undone :: rest ->
    session.sim <- Simulator.create ~seed:session.seed session.net;
    session.history <- [];
    List.iter
      (fun m ->
        replay_mutation session m;
        record session m)
      (List.rev rest);
    out_line oc "undid %S; back at t=%g"
      (mutation_label session undone)
      (Simulator.clock session.sim)

let show_history session oc =
  match List.rev session.history with
  | [] -> out_line oc "(no state-changing commands yet)"
  | l -> List.iteri (fun i m -> out_line oc "%3d  %s" (i + 1) (mutation_label session m)) l

let step session oc =
  record session M_step;
  match Simulator.step session.sim with
  | Simulator.Fired tid ->
    out_line oc "fired %s at t=%g"
      (Net.transition session.net tid).Net.t_name
      (Simulator.clock session.sim)
  | Simulator.Completed tid ->
    out_line oc "completed %s at t=%g"
      (Net.transition session.net tid).Net.t_name
      (Simulator.clock session.sim)
  | Simulator.Advanced t -> out_line oc "time advances to %g" t
  | Simulator.Quiescent -> out_line oc "the net is dead (no activity possible)"

let run_for session oc duration =
  if not (duration > 0.0 && Float.is_finite duration) then
    out_line oc "error: run needs a finite positive duration"
  else begin
    record session (M_run duration);
    let target = Simulator.clock session.sim +. duration in
    let outcome = Simulator.run ~until:target session.sim in
    out_line oc "ran to t=%g (%d events started, %s)"
      outcome.Simulator.final_clock outcome.Simulator.started
      (match outcome.Simulator.stop with
      | Simulator.Horizon -> "still alive"
      | Simulator.Dead -> "net died"
      | Simulator.Event_limit -> "event limit"
      | Simulator.Budget_exhausted r -> Pnut_exec.Supervisor.reason_message r)
  end

let help oc =
  List.iter (out_line oc "%s")
    [
      "commands:";
      "  show         clock, marking, variables, in-flight firings";
      "  enabled      transitions fireable right now";
      "  fire NAME    fire a specific fireable transition";
      "  step         one engine micro-step (random resolution)";
      "  run T        simulate T more time units";
      "  back         undo the last state-changing command";
      "  history      list the state-changing commands so far";
      "  reset        back to the initial state";
      "  help         this summary";
      "  quit         leave";
    ]

let run ?(seed = 1) net ic oc =
  let session =
    { net; seed; sim = Simulator.create ~seed net; history = [] }
  in
  out_line oc "exploring %s (seed %d); 'help' lists commands" (Net.name net) seed;
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
      let line = String.trim line in
      let words =
        String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
      in
      (match words with
      | [] -> loop ()
      | cmd :: _ when String.length cmd > 0 && cmd.[0] = '#' -> loop ()
      | [ "quit" ] | [ "exit" ] -> ()
      | [ "show" ] ->
        show session oc;
        loop ()
      | [ "enabled" ] ->
        enabled session oc;
        loop ()
      | [ "fire"; name ] ->
        fire session oc name;
        loop ()
      | [ "step" ] ->
        step session oc;
        loop ()
      | [ "run"; t ] ->
        (match float_of_string_opt t with
        | Some d -> run_for session oc d
        | None -> out_line oc "error: run expects a number, got %s" t);
        loop ()
      | [ "back" ] ->
        back session oc;
        loop ()
      | [ "history" ] ->
        show_history session oc;
        loop ()
      | [ "reset" ] ->
        session.sim <- Simulator.create ~seed:session.seed net;
        session.history <- [];
        out_line oc "reset to the initial state";
        loop ()
      | [ "help" ] ->
        help oc;
        loop ()
      | _ ->
        out_line oc "error: unknown command %S ('help' lists commands)" line;
        loop ())
  in
  loop ()
