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

type view = {
  v_time : float array;
  mutable v_kind : event_kind;
  mutable v_transition : int;
  mutable v_firing : int;
  mutable v_places : int array;
  mutable v_counts : int array;
  mutable v_marking_n : int;
  mutable v_names : string array;
  mutable v_values : Pnut_core.Value.t array;
  mutable v_env_n : int;
}

let view () =
  { v_time = [| 0.0 |]; v_kind = Fire_start; v_transition = 0; v_firing = 0;
    v_places = [||]; v_counts = [||]; v_marking_n = 0; v_names = [||];
    v_values = [||]; v_env_n = 0 }

let time v = Array.unsafe_get v.v_time 0

(* A copy of the first [n] entries of [a], with room for as many more. *)
let grow a n fill =
  let b = Array.make (max 8 (2 * n)) fill in
  Array.blit a 0 b 0 n;
  b

let add_marking v p d =
  let n = v.v_marking_n in
  if n = Array.length v.v_places then begin
    v.v_places <- grow v.v_places n 0;
    v.v_counts <- grow v.v_counts n 0
  end;
  v.v_places.(n) <- p;
  v.v_counts.(n) <- d;
  v.v_marking_n <- n + 1

let add_env v name x =
  let n = v.v_env_n in
  if n = Array.length v.v_names then begin
    v.v_names <- grow v.v_names n "";
    v.v_values <- grow v.v_values n x
  end;
  v.v_names.(n) <- name;
  v.v_values.(n) <- x;
  v.v_env_n <- n + 1

let to_delta v =
  { d_time = time v; d_kind = v.v_kind; d_transition = v.v_transition;
    d_firing = v.v_firing;
    d_marking = List.init v.v_marking_n (fun i -> (v.v_places.(i), v.v_counts.(i)));
    d_env = List.init v.v_env_n (fun i -> (v.v_names.(i), v.v_values.(i))) }

let emit f =
  let v = view () in
  fun d ->
    v.v_time.(0) <- d.d_time;
    v.v_kind <- d.d_kind;
    v.v_transition <- d.d_transition;
    v.v_firing <- d.d_firing;
    v.v_marking_n <- 0;
    List.iter (fun (p, dm) -> add_marking v p dm) d.d_marking;
    v.v_env_n <- 0;
    List.iter (fun (name, x) -> add_env v name x) d.d_env;
    f v

type sink = {
  on_header : header -> unit;
  on_delta : view -> unit;
  on_finish : float -> unit;
}

let null_sink =
  { on_header = (fun _ -> ()); on_delta = (fun _ -> ()); on_finish = (fun _ -> ()) }

(* One sink is itself: a wrapper would allocate a closure per delta. *)
let tee = function
  | [ s ] -> s
  | sinks ->
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
      on_delta = (fun v -> acc := to_delta v :: !acc);
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
  Array.iter (emit sink.on_delta) tr.deltas;
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

let step c v =
  for i = 0 to v.v_marking_n - 1 do
    let p = v.v_places.(i) in
    c.c_marking.(p) <- c.c_marking.(p) + v.v_counts.(i)
  done;
  let t = v.v_transition in
  (match v.v_kind with
  | Fire_start -> c.c_in_flight.(t) <- c.c_in_flight.(t) + 1
  | Fire_end -> c.c_in_flight.(t) <- c.c_in_flight.(t) - 1);
  for i = 0 to v.v_env_n - 1 do
    Pnut_core.Env.set c.c_env v.v_names.(i) v.v_values.(i)
  done

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
