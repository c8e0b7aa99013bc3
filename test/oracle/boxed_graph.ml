(* The boxed reachability builder, kept verbatim as the oracle for the
   packed sweep in {!Pnut_reach.Graph}: a plain FIFO over boxed
   (marking, env) keys, edge lists built per source, every analysis a
   direct walk over those arrays. *)

module Net = Pnut_core.Net
module Marking = Pnut_core.Marking
module Env = Pnut_core.Env
module Kernel = Pnut_core.Kernel
module Stubborn = Pnut_reach.Stubborn
module Supervisor = Pnut_exec.Supervisor
open Pnut_reach.Graph

type t = {
  net : Net.t;
  states : state array;
  succ : edge list array;   (* indexed by source state *)
  pred : edge list array;   (* indexed by target state *)
  complete : bool;
  n_edges : int;
}

let complete g = g.complete
let num_states g = Array.length g.states
let num_edges g = g.n_edges
let state g i = g.states.(i)
let successors g i = g.succ.(i)
let predecessors g j = g.pred.(j)
let edges g = List.concat (Array.to_list g.succ)

let build_supervised ?(max_states = 100_000) ?(budget = Pnut_exec.Budget.none)
    ?(por = false) net =
  let monitor = Supervisor.start budget in
  let monitored = Supervisor.active monitor in
  if max_states < 1 then invalid_arg "Boxed_graph: max_states must be positive";
  let kernel = Kernel.of_net net in
  let stubborn = if por then Some (Stubborn.create kernel) else None in
  let index = Statekey.Tbl.create 1024 in
  let states = ref [] in
  let n_states = ref 0 in
  let edges_rev = ref [] in   (* every edge, most recent first *)
  let n_edges = ref 0 in
  let truncated = ref false in
  let budget_stop = ref None in
  let frontier_left = ref 0 in
  (* [None]: a fresh state beyond the cap — the edge is dropped and the
     graph flagged incomplete *)
  let intern k =
    match Statekey.Tbl.find_opt index k with
    | Some i -> Some (i, false)
    | None ->
      if !n_states >= max_states then begin
        truncated := true;
        None
      end
      else begin
        let i = !n_states in
        incr n_states;
        Statekey.Tbl.replace index k i;
        states :=
          { s_index = i; s_marking = k.Statekey.k_marking;
            s_env = k.Statekey.k_bindings }
          :: !states;
        Some (i, true)
      end
  in
  let m0 = Net.initial_marking net in
  let env0 = Net.initial_env net in
  (match intern (Statekey.make m0 env0) with
  | Some (0, true) -> ()
  | Some _ | None -> assert false);
  let q = Queue.create () in
  Queue.add (0, m0, env0) q;
  let trans = Kernel.transitions kernel in
  let sb_scratch = Option.map Stubborn.scratch stubborn in
  let pops = ref 0 in
  (try
     while not (Queue.is_empty q) do
       incr pops;
       if monitored && !pops land 255 = 0 then begin
         match Supervisor.check monitor with
         | Some r ->
           budget_stop := Some r;
           frontier_left := Queue.length q;
           raise_notrace Exit
         | None -> ()
       end;
       let i, m, env = Queue.pop q in
       let fire (c : Kernel.ctrans) =
         let m' = Marking.copy m in
         Kernel.apply c m';
         let env' =
           if c.Kernel.s_has_action then begin
             let env' = Env.copy env in
             Kernel.run_action env' c;
             env'
           end
           else env
         in
         match intern (Statekey.make m' env') with
         | None -> ()
         | Some (j, fresh) ->
           edges_rev :=
             { e_from = i; e_transition = c.Kernel.s_id; e_to = j }
             :: !edges_rev;
           incr n_edges;
           if fresh then Queue.add (j, m', env') q
       in
       match stubborn, sb_scratch with
       | Some sb, Some sc ->
         Array.iter (fun tid -> fire trans.(tid)) (Stubborn.fired sb sc m)
       | _ ->
         Array.iter
           (fun (c : Kernel.ctrans) -> if Kernel.enabled c m env then fire c)
           trans
     done
   with Exit -> ());
  let n = !n_states in
  let states_arr = Array.make n { s_index = 0; s_marking = [||]; s_env = [] } in
  List.iter (fun s -> states_arr.(s.s_index) <- s) !states;
  let succ = Array.make n [] in
  (* walking most-recent-first and prepending leaves every per-source
     list in emission order *)
  List.iter (fun e -> succ.(e.e_from) <- e :: succ.(e.e_from)) !edges_rev;
  let pred = Array.make n [] in
  Array.iter
    (fun l -> List.iter (fun e -> pred.(e.e_to) <- e :: pred.(e.e_to)) l)
    succ;
  let g =
    { net; states = states_arr; succ; pred;
      complete = (not !truncated) && !budget_stop = None;
      n_edges = !n_edges }
  in
  let degraded reason frontier =
    Supervisor.Degraded
      {
        reason;
        partial = g;
        progress = Supervisor.snapshot monitor ~visited:n ~frontier;
      }
  in
  match !budget_stop with
  | Some reason -> degraded reason !frontier_left
  | None ->
    if !truncated then degraded (Supervisor.States n) 0
    else Supervisor.Complete g

let build ?max_states ?por net =
  Supervisor.value (build_supervised ?max_states ?por net)

(* -- analyses, straight over the boxed arrays -- *)

let deadlocks g =
  List.filter (fun i -> g.succ.(i) = []) (List.init (num_states g) Fun.id)

let bound g p =
  Array.fold_left (fun acc s -> max acc s.s_marking.(p)) 0 g.states

let is_safe g =
  Array.for_all (fun s -> Array.for_all (fun c -> c <= 1) s.s_marking) g.states

(* every state reaches [target]: a backward walk from it *)
let reached_by_all g target =
  let seen = Array.make (num_states g) false in
  let stack = Stack.create () in
  Stack.push target stack;
  while not (Stack.is_empty stack) do
    let i = Stack.pop stack in
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter (fun e -> Stack.push e.e_from stack) g.pred.(i)
    end
  done;
  Array.for_all Fun.id seen

let is_reversible g = reached_by_all g 0

let dead_transitions g =
  let fired = Array.make (Net.num_transitions g.net) false in
  Array.iter (List.iter (fun e -> fired.(e.e_transition) <- true)) g.succ;
  List.filter (fun t -> not fired.(t)) (List.init (Array.length fired) Fun.id)

let pp_summary ppf g =
  Format.fprintf ppf
    "@[<v>reachability graph of %s@,states: %d%s@,edges: %d@,deadlocks: %d@,\
     safe: %b@,reversible: %b@,dead transitions: %s@]"
    (Net.name g.net) (num_states g)
    (if g.complete then "" else " (truncated)")
    (num_edges g)
    (List.length (deadlocks g))
    (is_safe g) (is_reversible g)
    (match dead_transitions g with
    | [] -> "none"
    | l ->
      String.concat ", "
        (List.map (fun i -> (Net.transition g.net i).Net.t_name) l))
