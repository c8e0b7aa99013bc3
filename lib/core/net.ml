type place_id = int
type transition_id = int

type place = {
  p_id : place_id;
  p_name : string;
  p_initial : int;
  p_capacity : int option;
}

type arc = {
  a_place : place_id;
  a_weight : int;
}

type duration =
  | Zero
  | Const of float
  | Uniform of float * float
  | Exponential of float
  | Choice of (float * float) list
  | Dynamic of Expr.t

type transition = {
  t_id : transition_id;
  t_name : string;
  t_inputs : arc list;
  t_inhibitors : arc list;
  t_outputs : arc list;
  t_firing : duration;
  t_enabling : duration;
  t_frequency : float;
  t_predicate : Expr.t option;
  t_action : Expr.stmt list;
}

type t = {
  name : string;
  places : place array;
  transitions : transition array;
  variables : (string * Value.t) list;
  tables : (string * Value.t array) list;
  place_index : (string, place_id) Hashtbl.t;
  transition_index : (string, transition_id) Hashtbl.t;
}

let name net = net.name
let places net = net.places
let transitions net = net.transitions
let num_places net = Array.length net.places
let num_transitions net = Array.length net.transitions
let place net id = net.places.(id)
let transition net id = net.transitions.(id)

let find_place net nm =
  Option.map (fun id -> net.places.(id)) (Hashtbl.find_opt net.place_index nm)

let find_transition net nm =
  Option.map
    (fun id -> net.transitions.(id))
    (Hashtbl.find_opt net.transition_index nm)

let place_id net nm =
  match Hashtbl.find_opt net.place_index nm with
  | Some id -> id
  | None -> raise Not_found

let transition_id net nm =
  match Hashtbl.find_opt net.transition_index nm with
  | Some id -> id
  | None -> raise Not_found

let initial_marking net =
  let m = Marking.create (num_places net) in
  Array.iter (fun p -> Marking.set m p.p_id p.p_initial) net.places;
  m

let variables net = net.variables
let tables net = net.tables

let initial_env net = Env.of_bindings ~tables:net.tables net.variables

let marking_enabled _net marking t =
  let input_ok { a_place; a_weight } = Marking.get marking a_place >= a_weight in
  let inhibitor_ok { a_place; a_weight } =
    Marking.get marking a_place < a_weight
  in
  List.for_all input_ok t.t_inputs && List.for_all inhibitor_ok t.t_inhibitors

let enabled ?prng net marking env t =
  marking_enabled net marking t
  &&
  match t.t_predicate with
  | None -> true
  | Some p -> Expr.eval_bool ?prng env p

let consume net marking t =
  if not (marking_enabled net marking t) then
    invalid_arg
      (Printf.sprintf "Net.consume: transition %s is not enabled" t.t_name);
  List.iter
    (fun { a_place; a_weight } -> Marking.add marking a_place (-a_weight))
    t.t_inputs

let produce _net marking t =
  List.iter
    (fun { a_place; a_weight } -> Marking.add marking a_place a_weight)
    t.t_outputs

(* The one delay check of every engine: [not (d >= 0.0)] rejects NaN
   too, which [d < 0.0] lets through. *)
let check_delay who d =
  if not (d >= 0.0) then
    invalid_arg
      (Printf.sprintf "%s: %s delay" (who ())
         (if Float.is_nan d then "NaN" else "negative"));
  d

let sample_duration ?prng env dur =
  let need_prng what =
    match prng with
    | Some g -> g
    | None ->
      invalid_arg
        (Printf.sprintf "Net.sample_duration: %s requires a random stream" what)
  in
  let check d = check_delay (fun () -> "Net.sample_duration") d in
  match dur with
  | Zero -> 0.0
  | Const d -> check d
  | Uniform (lo, hi) -> check (Prng.uniform (need_prng "uniform") lo hi)
  | Exponential mean -> check (Prng.exponential (need_prng "exponential") mean)
  | Choice items ->
    let values = List.map (fun (v, w) -> (v, w)) items in
    check (Prng.choose_weighted (need_prng "choice") values)
  | Dynamic e -> check (Expr.eval_float ?prng env e)

(* Compiled counterpart of [sample_duration]: distribution parameters,
   the random stream and (for [Dynamic]) the compiled expression are
   resolved once, so sampling in the simulator's hot loop is a single
   closure call.  Draw order and results are identical to
   [sample_duration] on the same stream; [who] names the delay. *)
let compile_duration ?prng ~who env dur =
  let no_prng what () =
    invalid_arg
      (Printf.sprintf "Net.sample_duration: %s requires a random stream" what)
  in
  let check d = check_delay who d in
  match dur with
  | Zero -> fun () -> 0.0
  | Const d -> fun () -> check d
  | Uniform (lo, hi) -> (
    match prng with
    | Some g -> fun () -> check (Prng.uniform g lo hi)
    | None -> no_prng "uniform")
  | Exponential mean -> (
    match prng with
    | Some g -> fun () -> check (Prng.exponential g mean)
    | None -> no_prng "exponential")
  | Choice items -> (
    let values = List.map (fun (v, w) -> (v, w)) items in
    match prng with
    | Some g -> fun () -> check (Prng.choose_weighted g values)
    | None -> no_prng "choice")
  | Dynamic e ->
    let c = Expr.compile ?prng env e in
    fun () -> check (Value.to_float (c ()))

(* -- printing in the textual model language -- *)

let pp_duration ppf = function
  | Zero -> Format.pp_print_string ppf "0"
  | Const d -> Format.fprintf ppf "%g" d
  | Uniform (lo, hi) -> Format.fprintf ppf "uniform(%g, %g)" lo hi
  | Exponential mean -> Format.fprintf ppf "exponential(%g)" mean
  | Choice items ->
    let pp_item ppf (v, w) = Format.fprintf ppf "%g:%g" v w in
    Format.fprintf ppf "choice(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp_item)
      items
  | Dynamic e -> Format.fprintf ppf "expr(%a)" Expr.pp e

let pp_place ppf p =
  Format.fprintf ppf "place %s" p.p_name;
  if p.p_initial <> 0 then Format.fprintf ppf " init %d" p.p_initial;
  (match p.p_capacity with
  | Some c -> Format.fprintf ppf " capacity %d"c
  | None -> ())

let pp_arcs net ppf arcs =
  let pp_arc ppf { a_place; a_weight } =
    if a_weight = 1 then Format.pp_print_string ppf net.places.(a_place).p_name
    else Format.fprintf ppf "%s * %d" net.places.(a_place).p_name a_weight
  in
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    pp_arc ppf arcs

let pp_transition_in net ppf t =
  Format.fprintf ppf "@[<v 2>transition %s" t.t_name;
  if t.t_inputs <> [] then Format.fprintf ppf "@,in %a" (pp_arcs net) t.t_inputs;
  if t.t_inhibitors <> [] then
    Format.fprintf ppf "@,inhibit %a" (pp_arcs net) t.t_inhibitors;
  if t.t_outputs <> [] then
    Format.fprintf ppf "@,out %a" (pp_arcs net) t.t_outputs;
  (match t.t_firing with
  | Zero -> ()
  | d -> Format.fprintf ppf "@,firing %a" pp_duration d);
  (match t.t_enabling with
  | Zero -> ()
  | d -> Format.fprintf ppf "@,enabling %a" pp_duration d);
  if not (Float.equal t.t_frequency 1.0) then
    Format.fprintf ppf "@,frequency %g" t.t_frequency;
  (match t.t_predicate with
  | Some p -> Format.fprintf ppf "@,predicate %a" Expr.pp p
  | None -> ());
  List.iter (fun s -> Format.fprintf ppf "@,action %a" Expr.pp_stmt s) t.t_action;
  Format.fprintf ppf "@]"

let pp ppf net =
  Format.fprintf ppf "@[<v>net %s@," net.name;
  List.iter
    (fun (nm, v) -> Format.fprintf ppf "var %s = %a@," nm Value.pp v)
    net.variables;
  List.iter
    (fun (nm, arr) ->
      Format.fprintf ppf "table %s = [%a]@," nm
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Value.pp)
        (Array.to_list arr))
    net.tables;
  Array.iter (fun p -> Format.fprintf ppf "%a@," pp_place p) net.places;
  Array.iter
    (fun t -> Format.fprintf ppf "%a@," (pp_transition_in net) t)
    net.transitions;
  Format.fprintf ppf "@]"

module Builder = struct
  type net = t

  type t = {
    b_name : string;
    mutable b_places : place list;  (* reversed *)
    mutable b_transitions : transition list;  (* reversed *)
    mutable b_variables : (string * Value.t) list;  (* reversed *)
    mutable b_tables : (string * Value.t array) list;  (* reversed *)
    b_place_index : (string, place_id) Hashtbl.t;
    b_transition_index : (string, transition_id) Hashtbl.t;
  }

  let create ?(variables = []) ?(tables = []) nm =
    {
      b_name = nm;
      b_places = [];
      b_transitions = [];
      b_variables = List.rev variables;
      b_tables = List.rev tables;
      b_place_index = Hashtbl.create 16;
      b_transition_index = Hashtbl.create 16;
    }

  let add_place ?(initial = 0) ?capacity b nm =
    if Hashtbl.mem b.b_place_index nm then
      invalid_arg ("Net.Builder.add_place: duplicate place " ^ nm);
    if initial < 0 then
      invalid_arg ("Net.Builder.add_place: negative initial marking for " ^ nm);
    (match capacity with
    | Some c when c < initial ->
      invalid_arg ("Net.Builder.add_place: capacity below initial for " ^ nm)
    | Some _ | None -> ());
    let id = Hashtbl.length b.b_place_index in
    let p = { p_id = id; p_name = nm; p_initial = initial; p_capacity = capacity } in
    b.b_places <- p :: b.b_places;
    Hashtbl.replace b.b_place_index nm id;
    id

  (* One arc per place: a place repeated within one list gets a single
     arc whose weight is [merge] of the repeated weights. *)
  let check_arcs b what nm ~merge arcs =
    let n = Hashtbl.length b.b_place_index in
    List.fold_left
      (fun acc (pid, w) ->
        if pid < 0 || pid >= n then
          invalid_arg
            (Printf.sprintf "Net.Builder: %s arc of %s names unknown place %d"
               what nm pid);
        if w <= 0 then
          invalid_arg
            (Printf.sprintf "Net.Builder: %s arc of %s has weight %d" what nm w);
        if List.exists (fun a -> a.a_place = pid) acc then
          List.map
            (fun a ->
              if a.a_place = pid then { a with a_weight = merge a.a_weight w }
              else a)
            acc
        else { a_place = pid; a_weight = w } :: acc)
      [] arcs
    |> List.rev

  let add_transition ?(inputs = []) ?(inhibitors = []) ?(outputs = [])
      ?(firing = Zero) ?(enabling = Zero) ?(frequency = 1.0) ?predicate
      ?(action = []) b nm =
    if Hashtbl.mem b.b_transition_index nm then
      invalid_arg ("Net.Builder.add_transition: duplicate transition " ^ nm);
    if frequency <= 0.0 then
      invalid_arg ("Net.Builder.add_transition: non-positive frequency for " ^ nm);
    let id = Hashtbl.length b.b_transition_index in
    let t =
      {
        t_id = id;
        t_name = nm;
        t_inputs = check_arcs b "input" nm ~merge:( + ) inputs;
        t_inhibitors = check_arcs b "inhibitor" nm ~merge:min inhibitors;
        t_outputs = check_arcs b "output" nm ~merge:( + ) outputs;
        t_firing = firing;
        t_enabling = enabling;
        t_frequency = frequency;
        t_predicate = predicate;
        t_action = action;
      }
    in
    b.b_transitions <- t :: b.b_transitions;
    Hashtbl.replace b.b_transition_index nm id;
    id

  let set_variable b nm v =
    b.b_variables <- (nm, v) :: List.remove_assoc nm b.b_variables

  let set_table b nm arr =
    b.b_tables <- (nm, Array.copy arr) :: List.remove_assoc nm b.b_tables

  let build b =
    if b.b_places = [] && b.b_transitions = [] then
      invalid_arg "Net.Builder.build: empty net";
    {
      name = b.b_name;
      places = Array.of_list (List.rev b.b_places);
      transitions = Array.of_list (List.rev b.b_transitions);
      variables = List.rev b.b_variables;
      tables = List.rev b.b_tables;
      place_index = Hashtbl.copy b.b_place_index;
      transition_index = Hashtbl.copy b.b_transition_index;
    }
end
