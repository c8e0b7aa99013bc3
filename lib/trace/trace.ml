type event_kind =
  | Fire_start
  | Fire_end

type delta = {
  d_time : float;
  d_kind : event_kind;
  d_transition : int;
  d_firing : int;
  d_marking : (int * int) list;
  d_env : (string * Pnut_core.Value.t) list;
}

type header = {
  h_net : string;
  h_places : string array;
  h_transitions : string array;
  h_initial : int array;
  h_variables : (string * Pnut_core.Value.t) list;
}

let header_of_net net =
  let module Net = Pnut_core.Net in
  {
    h_net = Net.name net;
    h_places = Array.map (fun p -> p.Net.p_name) (Net.places net);
    h_transitions = Array.map (fun t -> t.Net.t_name) (Net.transitions net);
    h_initial = Pnut_core.Marking.to_array (Net.initial_marking net);
    h_variables = Net.variables net;
  }

type sink = {
  on_header : header -> unit;
  on_delta : delta -> unit;
  on_finish : float -> unit;
}

let null_sink =
  { on_header = (fun _ -> ()); on_delta = (fun _ -> ()); on_finish = (fun _ -> ()) }

let tee sinks =
  {
    on_header = (fun h -> List.iter (fun s -> s.on_header h) sinks);
    on_delta = (fun d -> List.iter (fun s -> s.on_delta d) sinks);
    on_finish = (fun t -> List.iter (fun s -> s.on_finish t) sinks);
  }

type t = {
  header : header;
  deltas : delta array;
  final_time : float;
}

let header tr = tr.header
let deltas tr = tr.deltas
let final_time tr = tr.final_time
let length tr = Array.length tr.deltas

let make header deltas final_time =
  { header; deltas = Array.of_list deltas; final_time }

let collector () =
  let hdr = ref None in
  let acc = ref [] in
  let fin = ref None in
  let sink =
    {
      on_header = (fun h -> hdr := Some h);
      on_delta = (fun d -> acc := d :: !acc);
      on_finish = (fun t -> fin := Some t);
    }
  in
  let get () =
    match !hdr, !fin with
    | Some h, Some t ->
      { header = h; deltas = Array.of_list (List.rev !acc); final_time = t }
    | None, _ -> invalid_arg "Trace.collector: no header received"
    | _, None -> invalid_arg "Trace.collector: trace not finished"
  in
  (sink, get)

let replay tr sink =
  sink.on_header tr.header;
  Array.iter sink.on_delta tr.deltas;
  sink.on_finish tr.final_time

type cursor = {
  c_header : header;
  c_marking : int array;
  c_in_flight : int array;
  c_env : Pnut_core.Env.t;
}

let cursor h =
  {
    c_header = h;
    c_marking = Array.copy h.h_initial;
    c_in_flight = Array.make (Array.length h.h_transitions) 0;
    c_env = Pnut_core.Env.of_bindings h.h_variables;
  }

let step c d =
  List.iter (fun (p, dm) -> c.c_marking.(p) <- c.c_marking.(p) + dm) d.d_marking;
  let t = d.d_transition in
  (match d.d_kind with
  | Fire_start -> c.c_in_flight.(t) <- c.c_in_flight.(t) + 1
  | Fire_end -> c.c_in_flight.(t) <- c.c_in_flight.(t) - 1);
  List.iter (fun (name, v) -> Pnut_core.Env.set c.c_env name v) d.d_env

let marking c = c.c_marking
let in_flight c = c.c_in_flight
let env c = c.c_env

type source =
  | Place of int
  | Transition of int
  | Variable of string

let lookup c name =
  let find names mk =
    Option.to_list (Option.map mk (Array.find_index (String.equal name) names))
  in
  find c.c_header.h_places (fun p -> Place p)
  @ find c.c_header.h_transitions (fun t -> Transition t)
  @ if Pnut_core.Env.mem c.c_env name then [ Variable name ] else []

let read c = function
  | Place p -> Pnut_core.Value.Int c.c_marking.(p)
  | Transition t -> Pnut_core.Value.Int c.c_in_flight.(t)
  | Variable name -> Pnut_core.Env.get c.c_env name

let after tr i =
  if i < 0 || i > Array.length tr.deltas then
    invalid_arg "Trace.after: index out of range";
  let c = cursor tr.header in
  for k = 0 to i - 1 do
    step c tr.deltas.(k)
  done;
  c
