module Net = Pnut_core.Net
module Kernel = Pnut_core.Kernel

type token =
  | Finite of int
  | Omega

type node = {
  n_index : int;
  n_marking : token array;
}

type edge = {
  e_from : int;
  e_transition : Net.transition_id;
  e_to : int;
}

type t = {
  nodes : node array;
  succ : edge list array;
  complete : bool;
}

let check_plain net =
  Array.iter
    (fun tr ->
      let reject feature =
        invalid_arg
          (Printf.sprintf
             "coverability: transition %s has %s; the Karp-Miller \
              construction needs plain monotone nets (weighted input/output \
              arcs only)"
             tr.Net.t_name feature)
      in
      if tr.Net.t_inhibitors <> [] then reject "inhibitor arcs";
      if tr.Net.t_predicate <> None then reject "a predicate";
      if tr.Net.t_action <> [] then reject "an action")
    (Net.transitions net)

let token_ge a b =
  match a, b with
  | Omega, _ -> true
  | Finite _, Omega -> false
  | Finite x, Finite y -> x >= y

let token_gt a b =
  match a, b with
  | Omega, Omega -> false
  | Omega, Finite _ -> true
  | Finite _, Omega -> false
  | Finite x, Finite y -> x > y

let marking_ge a b =
  let ok = ref true in
  Array.iteri (fun i t -> if not (token_ge t b.(i)) then ok := false) a;
  !ok

(* ω-markings keyed structurally: no string rendering, and a hash that
   folds over every place (the generic [Hashtbl.hash] only samples a
   prefix). *)
module Mark_tbl = Hashtbl.Make (struct
  type t = token array

  (* monomorphic loop — interning compares on every collision *)
  let equal (a : t) b =
    a == b
    || (Array.length a = Array.length b
       &&
       let n = Array.length a in
       let rec go i =
         i >= n
         || ((match a.(i), b.(i) with
             | Finite x, Finite y -> x = y
             | Omega, Omega -> true
             | Finite _, Omega | Omega, Finite _ -> false)
            && go (i + 1))
       in
       go 0)

  let hash (m : t) =
    let h = ref (Array.length m) in
    Array.iter
      (fun t ->
        h := (!h * 31) + (match t with Finite n -> n | Omega -> -1))
      m;
    !h land max_int
end)

(* The transition relation lifted to ω-markings, over the kernel's arc
   arrays (the only lifting any tool defines: everything on concrete
   markings lives in {!Pnut_core.Kernel}). *)
let enabled (c : Kernel.ctrans) marking =
  let n = Array.length c.Kernel.s_in_place in
  let rec go i =
    i >= n
    || (token_ge marking.(c.Kernel.s_in_place.(i))
          (Finite c.Kernel.s_in_weight.(i))
       && go (i + 1))
  in
  go 0

let fire (c : Kernel.ctrans) marking =
  let m = Array.copy marking in
  for k = 0 to Array.length c.Kernel.s_in_place - 1 do
    match m.(c.Kernel.s_in_place.(k)) with
    | Finite n -> m.(c.Kernel.s_in_place.(k)) <- Finite (n - c.Kernel.s_in_weight.(k))
    | Omega -> ()
  done;
  for k = 0 to Array.length c.Kernel.s_out_place - 1 do
    match m.(c.Kernel.s_out_place.(k)) with
    | Finite n -> m.(c.Kernel.s_out_place.(k)) <- Finite (n + c.Kernel.s_out_weight.(k))
    | Omega -> ()
  done;
  m

(* Accelerate: if the new marking strictly dominates an ancestor, the
   strictly-larger places grow without bound. *)
let accelerate ancestors m =
  let m = Array.copy m in
  List.iter
    (fun anc ->
      if marking_ge m anc then begin
        let strictly = ref false in
        Array.iteri (fun i t -> if token_gt t anc.(i) then strictly := true) m;
        if !strictly then
          Array.iteri
            (fun i t -> if token_gt t anc.(i) then m.(i) <- Omega)
            m
      end)
    ancestors;
  m

(* Whether the P-invariants give every place a positive weight: their
   sum [y > 0] keeps [y . M] constant over the reachable markings, so no
   reachable marking strictly dominates another and {!accelerate} never
   finds an ω.  Declared capacities do not count — they are not enforced.
   The size guard and the Farkas refusal are those of
   {!Pnut_core.Incidence.place_bounds}: without invariants, acceleration
   runs. *)
let conservative net =
  let np = Net.num_places net in
  np <= 200 && Net.num_transitions net <= 200
  &&
  let invs =
    try Pnut_core.Incidence.(p_invariants (of_net net))
    with Invalid_argument _ -> []
  in
  List.for_all
    (fun p -> List.exists (fun y -> y.(p) > 0) invs)
    (List.init np Fun.id)

let build_supervised ?(max_states = 100_000) ?(budget = Pnut_exec.Budget.none)
    net =
  check_plain net;
  let conservative = conservative net in
  let monitor = Pnut_exec.Supervisor.start budget in
  let monitored = Pnut_exec.Supervisor.active monitor in
  let max_states =
    Pnut_exec.Supervisor.cap ~who:"Reach.Coverability" max_states
  in
  let stop = ref None in
  let pops = ref 0 in
  let kernel = Kernel.of_net net in
  let initial =
    Array.map (fun c -> Finite c)
      (Pnut_core.Marking.to_array (Net.initial_marking net))
  in
  let index = Mark_tbl.create 256 in
  let nodes = ref [] in
  let n = ref 0 in
  let edge_acc = ref [] in
  (* work items carry the node index and the ancestor chain of
     ω-markings; the chain stays empty on a conservative net, where
     acceleration has nothing to find *)
  let intern marking =
    match Mark_tbl.find_opt index marking with
    | Some i -> (i, false)
    | None ->
      let i = !n in
      let marking = Array.copy marking in
      Mark_tbl.replace index marking i;
      nodes := { n_index = i; n_marking = marking } :: !nodes;
      incr n;
      (i, true)
  in
  let i0, _ = intern initial in
  let stack = ref [ (i0, initial, []) ] in
  (* Budget checks ride the DFS pop, every 256 nodes, so a budgeted
     build that completes is identical to an unbudgeted one. *)
  let rec loop () =
    match !stack with
    | [] -> ()
    | (i, marking, ancestors) :: rest ->
      incr pops;
      if
        monitored && !pops land 255 = 0
        && (match Pnut_exec.Supervisor.check monitor with
           | Some r ->
             stop := Some (r, List.length !stack);
             true
           | None -> false)
      then ()
      else begin
        stack := rest;
        if !n >= max_states then
          stop := Some (Pnut_exec.Supervisor.States !n, 1 + List.length rest)
        else begin
          let chain = if conservative then [] else marking :: ancestors in
          Array.iter
            (fun (c : Kernel.ctrans) ->
              if enabled c marking then begin
                let m' =
                  if conservative then fire c marking
                  else accelerate chain (fire c marking)
                in
                let j, fresh = intern m' in
                edge_acc := { e_from = i; e_transition = c.Kernel.s_id; e_to = j } :: !edge_acc;
                if fresh then stack := (j, m', chain) :: !stack
              end)
            (Kernel.transitions kernel);
          loop ()
        end
      end
  in
  loop ();
  let arr = Array.make !n { n_index = 0; n_marking = [||] } in
  List.iter (fun nd -> arr.(nd.n_index) <- nd) !nodes;
  let succ = Array.make !n [] in
  List.iter (fun e -> succ.(e.e_from) <- e :: succ.(e.e_from)) !edge_acc;
  Array.iteri (fun i l -> succ.(i) <- List.rev l) succ;
  Pnut_exec.Supervisor.finish monitor ~visited:!n !stop
    { nodes = arr; succ; complete = !stop = None }

let build ?max_states net =
  Pnut_exec.Supervisor.value (build_supervised ?max_states net)

let num_nodes g = Array.length g.nodes
let node g i = g.nodes.(i)
let successors g i = g.succ.(i)
let edges g = List.concat (Array.to_list g.succ)
let complete g = g.complete

let is_bounded g =
  Array.for_all
    (fun nd -> Array.for_all (fun t -> t <> Omega) nd.n_marking)
    g.nodes

let place_bound g p =
  let bound = ref 0 in
  let unbounded = ref false in
  Array.iter
    (fun nd ->
      match nd.n_marking.(p) with
      | Omega -> unbounded := true
      | Finite c -> bound := max !bound c)
    g.nodes;
  if !unbounded then None else Some !bound

let unbounded_places g =
  match g.nodes with
  | [||] -> []
  | _ ->
    let np = Array.length g.nodes.(0).n_marking in
    List.init np (fun p -> p)
    |> List.filter (fun p -> place_bound g p = None)

let covers g target =
  Array.exists
    (fun nd ->
      let ok = ref true in
      Array.iteri
        (fun i want ->
          if not (token_ge nd.n_marking.(i) (Finite want)) then ok := false)
        target;
      !ok)
    g.nodes

let pp_summary net ppf g =
  Format.fprintf ppf "@[<v>coverability graph of %s@,nodes: %d%s@,bounded: %b"
    (Net.name net) (num_nodes g)
    (if g.complete then "" else " (truncated)")
    (is_bounded g);
  (match unbounded_places g with
  | [] -> ()
  | l ->
    Format.fprintf ppf "@,unbounded places: %s"
      (String.concat ", " (List.map (fun p -> (Net.place net p).Net.p_name) l)));
  Format.fprintf ppf "@]"
