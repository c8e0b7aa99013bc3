module Net = Pnut_core.Net

type result = {
  states : int;
  place_means : float array;
  throughputs : float array;
}

let rate (tr : Net.transition) =
  match tr.Net.t_firing, tr.Net.t_enabling with
  | Net.Zero, Net.Exponential mean
    when mean > 0.0 && tr.Net.t_predicate = None && tr.Net.t_action = [] ->
    1.0 /. mean
  | _ ->
    invalid_arg
      (Printf.sprintf "Gth: transition %s is not exponentially timed"
         tr.Net.t_name)

let enabled (tr : Net.transition) m =
  List.for_all (fun a -> m.(a.Net.a_place) >= a.Net.a_weight) tr.Net.t_inputs
  && List.for_all
       (fun a -> m.(a.Net.a_place) < a.Net.a_weight)
       tr.Net.t_inhibitors

let fire (tr : Net.transition) m =
  let m' = Array.copy m in
  let move sign a = m'.(a.Net.a_place) <- m'.(a.Net.a_place) + (sign * a.Net.a_weight) in
  List.iter (move (-1)) tr.Net.t_inputs;
  List.iter (move 1) tr.Net.t_outputs;
  m'

(* Breadth-first over markings from the initial one: the markings by
   index and every firing as (source, transition, target). *)
let explore ~max_states net =
  let index = Hashtbl.create 64 in
  let found = ref [] in
  let queue = Queue.create () in
  let intern m =
    match Hashtbl.find_opt index m with
    | Some i -> i
    | None ->
      let i = Hashtbl.length index in
      if i >= max_states then
        invalid_arg (Printf.sprintf "Gth: more than %d markings" max_states);
      Hashtbl.add index m i;
      found := m :: !found;
      Queue.push (i, m) queue;
      i
  in
  ignore (intern (Pnut_core.Marking.to_array (Net.initial_marking net)) : int);
  let firings = ref [] in
  while not (Queue.is_empty queue) do
    let i, m = Queue.pop queue in
    Array.iter
      (fun (tr : Net.transition) ->
        if enabled tr m then firings := (i, tr.Net.t_id, intern (fire tr m)) :: !firings)
      (Net.transitions net)
  done;
  (Array.of_list (List.rev !found), List.rev !firings)

(* Every marking returns to marking 0; with every marking reachable
   from 0, the chain is then irreducible. *)
let check_irreducible n firings =
  let preds = Array.make n [] in
  List.iter (fun (i, _, j) -> preds.(j) <- i :: preds.(j)) firings;
  let seen = Array.make n false in
  let rec visit j =
    if not seen.(j) then begin
      seen.(j) <- true;
      List.iter visit preds.(j)
    end
  in
  visit 0;
  if Array.exists not seen then invalid_arg "Gth: the chain is not irreducible"

(* Stationary distribution of the chain whose off-diagonal rates are
   [q] (overwritten).  State k is censored out, highest first: its
   outflow to the states below it is [s], and each rate through it is
   folded into the rates among the rest.  Back substitution then
   balances each state against the ones before it.  Only sums,
   products and quotients of non-negative numbers occur. *)
let gth q =
  let n = Array.length q in
  for k = n - 1 downto 1 do
    let s = ref 0.0 in
    for j = 0 to k - 1 do
      s := !s +. q.(k).(j)
    done;
    for i = 0 to k - 1 do
      q.(i).(k) <- q.(i).(k) /. !s
    done;
    for i = 0 to k - 1 do
      let through = q.(i).(k) in
      if through > 0.0 then
        for j = 0 to k - 1 do
          if j <> i then q.(i).(j) <- q.(i).(j) +. (through *. q.(k).(j))
        done
    done
  done;
  let x = Array.make n 0.0 in
  x.(0) <- 1.0;
  for j = 1 to n - 1 do
    for i = 0 to j - 1 do
      x.(j) <- x.(j) +. (x.(i) *. q.(i).(j))
    done
  done;
  let total = Array.fold_left ( +. ) 0.0 x in
  Array.map (fun v -> v /. total) x

let analyze ?(max_states = 500) net =
  let rates = Array.map rate (Net.transitions net) in
  let markings, firings = explore ~max_states net in
  let n = Array.length markings in
  check_irreducible n firings;
  let q = Array.make_matrix n n 0.0 in
  List.iter
    (fun (i, t, j) -> if i <> j then q.(i).(j) <- q.(i).(j) +. rates.(t))
    firings;
  let pi = gth q in
  let place_means = Array.make (Net.num_places net) 0.0 in
  Array.iteri
    (fun i m ->
      Array.iteri
        (fun p k -> place_means.(p) <- place_means.(p) +. (pi.(i) *. float_of_int k))
        m)
    markings;
  let throughputs = Array.make (Net.num_transitions net) 0.0 in
  List.iter
    (fun (i, t, _) -> throughputs.(t) <- throughputs.(t) +. (pi.(i) *. rates.(t)))
    firings;
  { states = n; place_means; throughputs }
