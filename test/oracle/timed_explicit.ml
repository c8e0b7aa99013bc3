(* The explicit timed expansion, frozen as the differential oracle for
   the state-class construction in {!Timed} — the same role
   {!Reference} plays for the fast simulator.  Deliberately
   self-contained: it keeps private copies of the duration resolution,
   the pending-refresh rule and the canonical clock rendering, so a bug
   (or a "fix") in the class builder can never silently rewrite the
   reference semantics it is tested against.  Serial FIFO only; the
   layered parallel machinery the old builder carried is gone — an
   oracle has no throughput requirements. *)

module Net = Pnut_core.Net
module Marking = Pnut_core.Marking
module Env = Pnut_core.Env
module Expr = Pnut_core.Expr
module Value = Pnut_core.Value
module Kernel = Pnut_core.Kernel

type label =
  | Fire of Net.transition_id
  | Complete of Net.transition_id
  | Tick of float

type state = {
  ts_index : int;
  ts_marking : int array;
  ts_in_flight : (Net.transition_id * float) list;
  ts_pending : (Net.transition_id * float) list;
  ts_env : (string * Value.t) list;
}

type edge = {
  e_from : int;
  e_label : label;
  e_to : int;
}

type t = {
  net : Net.t;
  states : state array;
  succ : edge list array;
  complete : bool;
  n_edges : int;
}

let complete g = g.complete
let num_states g = Array.length g.states
let num_edges g = g.n_edges
let state g i = g.states.(i)
let initial _ = 0
let successors g i = g.succ.(i)

let det_duration env = function
  | Net.Zero -> 0.0
  | Net.Const d -> d
  | Net.Uniform (lo, hi) when Float.equal lo hi -> lo
  | Net.Choice ((v, _) :: rest) when List.for_all (fun (v', _) -> Float.equal v v') rest
    -> v
  | Net.Dynamic e when Expr.is_deterministic e -> Expr.eval_float env e
  | Net.Uniform _ | Net.Exponential _ | Net.Choice _ | Net.Dynamic _ ->
    invalid_arg "Reach.Timed: stochastic duration in a timed reachability net"

let check_deterministic net =
  Array.iter
    (fun tr ->
      let check_dur what d =
        match d with
        | Net.Zero | Net.Const _ -> ()
        | Net.Uniform (lo, hi) when Float.equal lo hi -> ()
        | Net.Choice ((v, _) :: rest)
          when List.for_all (fun (v', _) -> Float.equal v v') rest -> ()
        | Net.Dynamic e when Expr.is_deterministic e -> ()
        | Net.Uniform _ | Net.Exponential _ | Net.Choice _ | Net.Dynamic _ ->
          invalid_arg
            (Printf.sprintf "Reach.Timed: stochastic %s time on transition %s"
               what tr.Net.t_name)
      in
      check_dur "firing" tr.Net.t_firing;
      check_dur "enabling" tr.Net.t_enabling;
      (match tr.Net.t_predicate with
      | Some p when not (Expr.is_deterministic p) ->
        invalid_arg
          ("Reach.Timed: stochastic predicate on transition " ^ tr.Net.t_name)
      | Some _ | None -> ());
      if
        List.exists
          (fun s ->
            match s with
            | Expr.Assign (_, e) -> not (Expr.is_deterministic e)
            | Expr.Table_assign (_, i, e) ->
              not (Expr.is_deterministic i && Expr.is_deterministic e))
          tr.Net.t_action
      then
        invalid_arg
          ("Reach.Timed: stochastic action on transition " ^ tr.Net.t_name))
    (Net.transitions net)

(* Recompute the pending (enabling) list after a state change: enabled
   transitions keep their old residual, newly enabled ones start at their
   full enabling delay, [restart] names transitions whose clock restarts
   regardless (the just-fired one). *)
let refresh_pending kernel marking env old_pending ~restart =
  Array.to_list (Kernel.transitions kernel)
  |> List.filter_map (fun (c : Kernel.ctrans) ->
         if Kernel.enabled c marking env then
           let residual =
             match List.assoc_opt c.s_id old_pending with
             | Some r when not (List.mem c.s_id restart) -> r
             | Some _ | None -> det_duration env c.s_tr.Net.t_enabling
           in
           Some (c.s_id, residual)
         else None)

(* Canonical rendering of the two timer lists (must already be sorted):
   each residual as its exact IEEE bit pattern, so two states share a
   key only when every clock is bit-identical; marking and environment
   are hashed structurally by {!Statekey}, never stringified. *)
let clocks_repr in_flight pending =
  let buf = Buffer.create 32 in
  let add (t, r) = Printf.bprintf buf "%d:%Lx;" t (Int64.bits_of_float r) in
  List.iter add in_flight;
  Buffer.add_char buf '|';
  List.iter add pending;
  Buffer.contents buf

let sort_flight l =
  List.sort
    (fun (t1, r1) (t2, r2) ->
      match compare t1 t2 with 0 -> Float.compare r1 r2 | c -> c)
    l

type succ = {
  c_label : label;
  c_marking : Marking.t;
  c_in_flight : (Net.transition_id * float) list;  (* sorted *)
  c_pending : (Net.transition_id * float) list;  (* sorted *)
  c_env : Env.t;
  c_time : float;
  c_key : Statekey.t;
}

(* All successors of one timed state, in the fixed completion / firing /
   tick order. *)
let successors_of kernel horizon (marking, in_flight, pending, env, time) =
  let acc = ref [] in
  let visit label marking' in_flight' pending' env' time' =
    let in_flight' = sort_flight in_flight' in
    let pending' = sort_flight pending' in
    let key =
      Statekey.make ~clocks:(clocks_repr in_flight' pending') marking' env'
    in
    acc :=
      { c_label = label; c_marking = marking'; c_in_flight = in_flight';
        c_pending = pending'; c_env = env'; c_time = time'; c_key = key }
      :: !acc
  in
  (* 1. completions of in-flight firings whose residual reached zero *)
  let completable =
    List.filter (fun (_, r) -> Float.equal r 0.0) in_flight
  in
  List.iter
    (fun (tid, _) ->
      let c = Kernel.transition kernel tid in
      let m' = Marking.copy marking in
      Kernel.produce c m';
      let env' =
        if c.Kernel.s_has_action then begin
          let env' = Env.copy env in
          Kernel.run_action env' c;
          env'
        end
        else env
      in
      let remove l =
        let rec go = function
          | [] -> []
          | (t, r) :: rest when t = tid && Float.equal r 0.0 -> rest
          | x :: rest -> x :: go rest
        in
        go l
      in
      let in_flight' = remove in_flight in
      let pending' = refresh_pending kernel m' env' pending ~restart:[] in
      visit (Complete tid) m' in_flight' pending' env' time)
    (List.sort_uniq compare completable);
  (* 2. firings of fireable transitions *)
  let fireable =
    List.filter
      (fun (tid, r) ->
        Float.equal r 0.0
        && Kernel.enabled (Kernel.transition kernel tid) marking env)
      pending
  in
  List.iter
    (fun (tid, _) ->
      let c = Kernel.transition kernel tid in
      let m' = Marking.copy marking in
      Kernel.consume c m';
      let d = det_duration env c.Kernel.s_tr.Net.t_firing in
      if Float.equal d 0.0 then begin
        Kernel.produce c m';
        let env' =
          if c.Kernel.s_has_action then begin
            let env' = Env.copy env in
            Kernel.run_action env' c;
            env'
          end
          else env
        in
        let pending' = refresh_pending kernel m' env' pending ~restart:[ tid ] in
        visit (Fire tid) m' in_flight pending' env' time
      end
      else begin
        let in_flight' = (tid, d) :: in_flight in
        let pending' = refresh_pending kernel m' env pending ~restart:[ tid ] in
        visit (Fire tid) m' in_flight' pending' env time
      end)
    fireable;
  (* 3. if nothing can happen now, advance time *)
  if completable = [] && fireable = [] then begin
    let residuals =
      List.map snd in_flight
      @ List.filter_map
          (fun (_, r) -> if r > 0.0 then Some r else None)
          pending
    in
    match residuals with
    | [] -> ()  (* timed-dead state *)
    | first :: rest ->
      let d = List.fold_left Float.min first rest in
      let time' = time +. d in
      let within =
        match horizon with None -> true | Some h -> time' <= h
      in
      if within then begin
        let tick l =
          List.map (fun (t, r) -> (t, Float.max 0.0 (r -. d))) l
        in
        visit (Tick d) marking (tick in_flight) (tick pending) env time'
      end
  end;
  List.rev !acc

let build_supervised ?(max_states = 50_000) ?horizon
    ?(budget = Pnut_exec.Budget.none) net =
  check_deterministic net;
  let monitor = Pnut_exec.Supervisor.start budget in
  let monitored = Pnut_exec.Supervisor.active monitor in
  let budget_stop = ref None in
  let frontier_left = ref 0 in
  let kernel = Kernel.of_net net in
  let index = Statekey.Tbl.create 1024 in
  let states = ref [] in
  let n_states = ref 0 in
  let succ_acc = Hashtbl.create 1024 in
  let n_edges = ref 0 in
  let truncated = ref false in
  let intern c =
    match Statekey.Tbl.find_opt index c.c_key with
    | Some i -> (i, false)
    | None ->
      let i = !n_states in
      incr n_states;
      Statekey.Tbl.replace index c.c_key i;
      states :=
        {
          ts_index = i;
          ts_marking = c.c_key.Statekey.k_marking;
          ts_in_flight = c.c_in_flight;
          ts_pending = c.c_pending;
          ts_env = c.c_key.Statekey.k_bindings;
        }
        :: !states;
      (i, true)
  in
  let add_edge i label j =
    Hashtbl.replace succ_acc i
      ({ e_from = i; e_label = label; e_to = j }
      :: (try Hashtbl.find succ_acc i with Not_found -> []));
    incr n_edges
  in
  let m0 = Net.initial_marking net in
  let env0 = Net.initial_env net in
  let pending0 = sort_flight (refresh_pending kernel m0 env0 [] ~restart:[]) in
  let c0 =
    { c_label = Tick 0.0 (* unused *); c_marking = m0; c_in_flight = [];
      c_pending = pending0; c_env = env0; c_time = 0.0;
      c_key = Statekey.make ~clocks:(clocks_repr [] pending0) m0 env0 }
  in
  let i0, _ = intern c0 in
  assert (i0 = 0);
  let q = Queue.create () in
  Queue.add (i0, (m0, [], pending0, env0, 0.0)) q;
  let pops = ref 0 in
  (try
     while not (Queue.is_empty q) do
       incr pops;
       if monitored && !pops land 255 = 0 then begin
         match Pnut_exec.Supervisor.check monitor with
         | Some r ->
           budget_stop := Some r;
           frontier_left := Queue.length q;
           raise_notrace Exit
         | None -> ()
       end;
       let i, st = Queue.pop q in
       List.iter
         (fun c ->
           let existing = Statekey.Tbl.mem index c.c_key in
           if existing || !n_states < max_states then begin
             let j, fresh = intern c in
             add_edge i c.c_label j;
             if fresh then
               Queue.add
                 (j, (c.c_marking, c.c_in_flight, c.c_pending, c.c_env, c.c_time))
                 q
           end
           else truncated := true)
         (successors_of kernel horizon st)
     done
   with Exit -> ());
  let n = !n_states in
  let states_arr =
    Array.make n
      { ts_index = 0; ts_marking = [||]; ts_in_flight = []; ts_pending = [];
        ts_env = [] }
  in
  List.iter (fun s -> states_arr.(s.ts_index) <- s) !states;
  let succ = Array.make n [] in
  Hashtbl.iter (fun i l -> succ.(i) <- List.rev l) succ_acc;
  let g =
    { net; states = states_arr; succ;
      complete = (not !truncated) && !budget_stop = None;
      n_edges = !n_edges }
  in
  match !budget_stop with
  | Some reason ->
    Pnut_exec.Supervisor.Degraded
      {
        reason;
        partial = g;
        progress =
          Pnut_exec.Supervisor.snapshot monitor ~visited:n
            ~frontier:!frontier_left;
      }
  | None ->
    if !truncated then
      Pnut_exec.Supervisor.Degraded
        {
          reason = Pnut_exec.Supervisor.States n;
          partial = g;
          progress = Pnut_exec.Supervisor.snapshot monitor ~visited:n ~frontier:0;
        }
    else Pnut_exec.Supervisor.Complete g

let build ?max_states ?horizon net =
  Pnut_exec.Supervisor.value (build_supervised ?max_states ?horizon net)

let deadlocks g =
  let acc = ref [] in
  for i = num_states g - 1 downto 0 do
    if g.succ.(i) = [] then acc := i :: !acc
  done;
  !acc

(* Earliest accumulated time to reach each state: Dijkstra with Tick
   weights (Fire/Complete edges cost nothing). *)
let earliest_times g =
  let n = num_states g in
  let dist = Array.make n infinity in
  dist.(0) <- 0.0;
  let module Pq = Set.Make (struct
    type t = float * int

    let compare = compare
  end) in
  let pq = ref (Pq.singleton (0.0, 0)) in
  while not (Pq.is_empty !pq) do
    let ((d, i) as top) = Pq.min_elt !pq in
    pq := Pq.remove top !pq;
    if d <= dist.(i) then
      List.iter
        (fun e ->
          let w = match e.e_label with Tick dt -> dt | Fire _ | Complete _ -> 0.0 in
          let d' = d +. w in
          if d' < dist.(e.e_to) then begin
            dist.(e.e_to) <- d';
            pq := Pq.add (d', e.e_to) !pq
          end)
        g.succ.(i)
  done;
  dist

let min_cycle_time g tid =
  let dist = earliest_times g in
  let best = ref infinity in
  Array.iteri
    (fun i edges ->
      List.iter
        (fun e ->
          match e.e_label with
          | Fire t when t = tid -> best := Float.min !best dist.(i)
          | Fire _ | Complete _ | Tick _ -> ())
        edges)
    g.succ;
  if Float.is_finite !best then Some !best else None

let max_tokens g p =
  Array.fold_left (fun acc s -> max acc s.ts_marking.(p)) 0 g.states

let pp_summary ppf g =
  Format.fprintf ppf
    "@[<v>timed reachability graph of %s@,states: %d%s@,edges: %d@,timed \
     deadlocks: %d@]"
    (Net.name g.net) (num_states g)
    (if g.complete then "" else " (truncated)")
    (num_edges g)
    (List.length (deadlocks g))
