module Net = Pnut_core.Net
module Marking = Pnut_core.Marking
module Env = Pnut_core.Env
module Expr = Pnut_core.Expr
module Value = Pnut_core.Value
module Kernel = Pnut_core.Kernel

type state = {
  s_index : int;
  s_marking : int array;
  s_env : (string * Value.t) list;
}

type edge = {
  e_from : int;
  e_transition : Net.transition_id;
  e_to : int;
}

(* Two physical layouts behind one graph type.  [Boxed] is the classic
   per-state record plus edge lists — cheap to build, rich to walk.
   [Compact] keeps every state bit-packed in the {!Store} arena with
   CSR edges; accessors decode on the fly.  Both builders intern states
   in the same FIFO order and record edges at the same points, so the
   numbering, edge order and truncation behaviour are bit-identical —
   the representation is invisible to every analysis. *)
type repr =
  | Boxed of {
      states : state array;
      succ : edge list array;   (* indexed by source state *)
      pred : edge list array;   (* indexed by target state *)
    }
  | Compact of Store.t

type t = {
  net : Net.t;
  repr : repr;
  complete : bool;
  n_edges : int;  (* cached at construction; [edges] stays O(E) to list *)
}

let net g = g.net
let complete g = g.complete

let num_states g =
  match g.repr with
  | Boxed b -> Array.length b.states
  | Compact st -> Store.num_states st

let num_edges g = g.n_edges

let state g i =
  match g.repr with
  | Boxed b -> b.states.(i)
  | Compact st ->
    let codec = Store.codec st in
    let np = Packed.places (Packed.layout codec) in
    let m = Array.make np 0 in
    Store.marking_into st i m;
    {
      s_index = i;
      s_marking = m;
      s_env = Packed.extra_bindings codec (Store.extra st i);
    }

let initial _ = 0

let successors g i =
  match g.repr with
  | Boxed b -> b.succ.(i)
  | Compact st ->
    List.map
      (fun (tid, tgt) -> { e_from = i; e_transition = tid; e_to = tgt })
      (Store.successors st i)

let predecessors g j =
  match g.repr with
  | Boxed b -> b.pred.(j)
  | Compact st ->
    List.map
      (fun (src, tid) -> { e_from = src; e_transition = tid; e_to = j })
      (Store.predecessors st j)

let edges g =
  match g.repr with
  | Boxed b -> List.concat (Array.to_list b.succ)
  | Compact st ->
    let acc = ref [] in
    Store.iter_edges st (fun src tid tgt ->
        acc := { e_from = src; e_transition = tid; e_to = tgt } :: !acc);
    List.rev !acc

let packed_bytes_per_state g =
  match g.repr with
  | Boxed _ -> None
  | Compact st -> Some (Store.bytes_per_state st)

let stochastic_parts net =
  Array.to_list (Net.transitions net)
  |> List.concat_map (fun tr ->
         let pred_bad =
           match tr.Net.t_predicate with
           | Some p when not (Expr.is_deterministic p) -> [ tr.Net.t_name ]
           | Some _ | None -> []
         in
         let action_bad =
           if
             List.exists
               (fun s ->
                 match s with
                 | Expr.Assign (_, e) -> not (Expr.is_deterministic e)
                 | Expr.Table_assign (_, i, e) ->
                   not (Expr.is_deterministic i && Expr.is_deterministic e))
               tr.Net.t_action
           then [ tr.Net.t_name ]
           else []
         in
         pred_bad @ action_bad)

(* The packed sweep: a serial FIFO over state indices.  Pop order is
   push order is interning order, so begin_source sees ascending
   sources and the CSR offsets append in one pass.  The popped state is
   decoded into a scratch array once.  An action-free firing whose
   changed places all still fit their fields skips the marking
   altogether: the child key is the parent's arena words plus the
   transition's precomputed word delta, interned in place — no per-edge
   allocation.  Firings with actions, and any firing that would
   overflow a field, take the general path (blit, kernel apply, encode)
   whose overflow widens the layout; the deltas are rebuilt whenever the
   codec's layout is no longer the one they were computed for. *)
let build_packed ~max_states ~monitor ~monitored ~spill_threshold ~stubborn
    net kernel =
  let codec = Packed.create net in
  let store = Store.create codec ~num_transitions:(Net.num_transitions net) in
  let np = Net.num_places net in
  let env0 = Net.initial_env net in
  let id0 = Packed.intern_extra codec env0 in
  assert (id0 = 0);
  let truncated = ref false in
  let budget_stop = ref None in
  let frontier_left = ref 0 in
  let m0 = Marking.to_array (Net.initial_marking net) in
  (match Store.intern store m0 ~extra:id0 ~max_states with
  | `Added 0 -> ()
  | `Added _ | `Found _ | `Capped -> assert false);
  let parent = Array.make np 0 in
  let parent_mk = Marking.unsafe_wrap parent in
  let child = Array.make np 0 in
  let child_mk = Marking.unsafe_wrap child in
  let trans = Kernel.transitions kernel in
  let deltas = Array.make (Array.length trans) [||] in
  let delta_layout = ref (Packed.layout codec) in
  let refresh_deltas lay =
    delta_layout := lay;
    Array.iter
      (fun (c : Kernel.ctrans) ->
        if not c.Kernel.s_has_action then
          deltas.(c.Kernel.s_id) <-
            Packed.word_delta lay c.Kernel.s_delta_place
              c.Kernel.s_delta_weight)
      trans
  in
  refresh_deltas !delta_layout;
  let q = Store.Frontier.create ~threshold:spill_threshold () in
  let fire i ex env (c : Kernel.ctrans) =
    let lay = Packed.layout codec in
    if lay != !delta_layout then refresh_deltas lay;
    let n0 = Store.num_states store in
    let j =
      if
        (not c.Kernel.s_has_action)
        && Packed.delta_fits lay parent c.Kernel.s_delta_place
             c.Kernel.s_delta_weight
      then Store.intern_delta store ~src:i deltas.(c.Kernel.s_id) ~max_states
      else begin
        Array.blit parent 0 child 0 np;
        Kernel.apply c child_mk;
        let ex' =
          if c.Kernel.s_has_action then begin
            let env' = Env.copy env in
            Kernel.run_action env' c;
            Packed.intern_extra codec env'
          end
          else ex
        in
        Store.intern_index store child ~extra:ex' ~max_states
      end
    in
    if j < 0 then truncated := true
    else begin
      Store.add_edge store ~tid:c.Kernel.s_id ~target:j;
      if j >= n0 then Store.Frontier.push q j
    end
  in
  Fun.protect
    ~finally:(fun () -> Store.Frontier.close q)
    (fun () ->
      Store.Frontier.push q 0;
      let sb_scratch = Option.map Stubborn.scratch stubborn in
      let pops = ref 0 in
      (* Budget checks ride the dequeue boundary every 256 states —
         the exact cadence of the boxed sweep. *)
      try
        while not (Store.Frontier.is_empty q) do
          incr pops;
          if monitored && !pops land 255 = 0 then begin
            match Pnut_exec.Supervisor.check monitor with
            | Some r ->
              budget_stop := Some r;
              frontier_left := Store.Frontier.length q;
              raise_notrace Exit
            | None -> ()
          end;
          let i = Store.Frontier.pop q in
          Store.begin_source store i;
          Store.marking_into store i parent;
          let ex = Store.extra store i in
          let env = Packed.extra_env codec ex in
          match stubborn, sb_scratch with
          | Some sb, Some sc ->
            let tids = Stubborn.fired sb sc parent_mk in
            for k = 0 to Array.length tids - 1 do
              fire i ex env trans.(tids.(k))
            done
          | _ ->
            for tid = 0 to Array.length trans - 1 do
              let c = trans.(tid) in
              if Kernel.enabled c parent_mk env then fire i ex env c
            done
        done
      with Exit -> ());
  Store.finalize store;
  (store, !truncated, !budget_stop, !frontier_left)

let build_supervised ?(max_states = 100_000) ?jobs:_
    ?(budget = Pnut_exec.Budget.none) ?(packed = false) ?frontier_spill
    ?(por = false) net =
  (match stochastic_parts net with
  | [] -> ()
  | bad ->
    invalid_arg
      ("Reach.Graph.build: stochastic predicate/action on transitions: "
      ^ String.concat ", " (List.sort_uniq String.compare bad)));
  let monitor = Pnut_exec.Supervisor.start budget in
  let monitored = Pnut_exec.Supervisor.active monitor in
  let max_states =
    match Pnut_exec.Supervisor.max_states monitor with
    | Some cap -> min cap max_states
    | None -> max_states
  in
  if max_states < 1 then invalid_arg "Reach.Graph: max_states must be positive";
  let kernel = Kernel.of_net net in
  (* Raises Stubborn.Unsupported when the net falls outside the
     reduction's fragment — callers choosing [por] must catch it or
     pre-check with Stubborn.unsupported. *)
  let stubborn = if por then Some (Stubborn.create kernel) else None in
  let finish ~repr ~truncated ~budget_stop ~frontier_left ~n ~n_edges =
    let complete = (not truncated) && budget_stop = None in
    let g = { net; repr; complete; n_edges } in
    match budget_stop with
    | Some reason ->
      Pnut_exec.Supervisor.Degraded
        {
          reason;
          partial = g;
          progress =
            Pnut_exec.Supervisor.snapshot monitor ~visited:n
              ~frontier:frontier_left;
        }
    | None ->
      if truncated then
        Pnut_exec.Supervisor.Degraded
          {
            reason = Pnut_exec.Supervisor.States n;
            partial = g;
            progress =
              Pnut_exec.Supervisor.snapshot monitor ~visited:n ~frontier:0;
          }
      else Pnut_exec.Supervisor.Complete g
  in
  if packed then begin
    let spill_threshold =
      match frontier_spill with
      | Some b -> b
      | None -> Pnut_exec.Budget.spill_threshold_bytes budget
    in
    let store, truncated, budget_stop, frontier_left =
      build_packed ~max_states ~monitor ~monitored ~spill_threshold ~stubborn
        net kernel
    in
    finish ~repr:(Compact store) ~truncated ~budget_stop ~frontier_left
      ~n:(Store.num_states store) ~n_edges:(Store.num_edges store)
  end
  else begin
  let index = Statekey.Tbl.create 1024 in
  let states = ref [] in
  let n_states = ref 0 in
  let edges_rev = ref [] in   (* every edge, most recent first *)
  let n_edges = ref 0 in
  let truncated = ref false in
  (* wall/heap/cancellation trip — [None] until the budget fires *)
  let budget_stop = ref None in
  (* states interned but not yet expanded when a trip stopped the sweep *)
  let frontier_left = ref 0 in
  (* Intern a key, computed exactly once per explored edge.  [None]
     means the target would be a fresh state beyond the cap: the edge
     is dropped and the graph flagged incomplete (edges into
     already-interned states are still recorded at the cap). *)
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
  (* A plain FIFO sweep: the expansion of one state interns its
     successors and records its edges inline, with no intermediate
     successor lists.  Budget checks ride the dequeue boundary every 256
     states, so a budgeted sweep that completes interns exactly the same
     states in exactly the same order as an unbudgeted one. *)
  let q = Queue.create () in
  Queue.add (0, m0, env0) q;
  let trans = Kernel.transitions kernel in
  let sb_scratch = Option.map Stubborn.scratch stubborn in
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
       (match stubborn, sb_scratch with
       | Some sb, Some sc ->
         Array.iter (fun tid -> fire trans.(tid)) (Stubborn.fired sb sc m)
       | _ ->
         Array.iter
           (fun (c : Kernel.ctrans) ->
             if Kernel.enabled c m env then fire c)
           trans)
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
  Array.iter (fun l -> List.iter (fun e -> pred.(e.e_to) <- e :: pred.(e.e_to)) l) succ;
  finish ~repr:(Boxed { states = states_arr; succ; pred })
    ~truncated:!truncated ~budget_stop:!budget_stop
    ~frontier_left:!frontier_left ~n ~n_edges:!n_edges
  end

let build ?max_states ?packed ?por net =
  Pnut_exec.Supervisor.value (build_supervised ?max_states ?packed ?por net)

(* monomorphic int-array comparison — [find_state] and friends sit on
   user-facing query paths over millions of states *)
let marking_eq (a : int array) b =
  a == b
  || (Array.length a = Array.length b
     &&
     let n = Array.length a in
     let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
     go 0)

let find_state g marking =
  match g.repr with
  | Boxed b ->
    let n = Array.length b.states in
    let rec go i =
      if i >= n then None
      else if marking_eq b.states.(i).s_marking marking then Some i
      else go (i + 1)
    in
    go 0
  | Compact st ->
    let np = Net.num_places g.net in
    if Array.length marking <> np then None
    else begin
      let scratch = Array.make np 0 in
      let n = Store.num_states st in
      let rec go i =
        if i >= n then None
        else begin
          Store.marking_into st i scratch;
          if marking_eq scratch marking then Some i else go (i + 1)
        end
      in
      go 0
    end

let deadlocks g =
  let acc = ref [] in
  (match g.repr with
  | Boxed b ->
    for i = Array.length b.states - 1 downto 0 do
      if b.succ.(i) = [] then acc := i :: !acc
    done
  | Compact st ->
    for i = Store.num_states st - 1 downto 0 do
      if Store.out_degree st i = 0 then acc := i :: !acc
    done);
  !acc

let bound g p =
  match g.repr with
  | Boxed b ->
    Array.fold_left (fun acc s -> max acc s.s_marking.(p)) 0 b.states
  | Compact st ->
    let scratch = Array.make (Net.num_places g.net) 0 in
    let acc = ref 0 in
    for i = 0 to Store.num_states st - 1 do
      Store.marking_into st i scratch;
      if scratch.(p) > !acc then acc := scratch.(p)
    done;
    !acc

let is_safe g =
  match g.repr with
  | Boxed b ->
    Array.for_all
      (fun s -> Array.for_all (fun c -> c <= 1) s.s_marking)
      b.states
  | Compact st ->
    let np = Net.num_places g.net in
    let scratch = Array.make np 0 in
    let n = Store.num_states st in
    let rec go i =
      i >= n
      || (Store.marking_into st i scratch;
          Array.for_all (fun c -> c <= 1) scratch && go (i + 1))
    in
    go 0

(* One pass over the edges marks fired transitions; both liveness
   queries read the same bool array instead of the old O(T^2)
   list-membership scan. *)
let transition_fired g =
  let seen = Array.make (Net.num_transitions g.net) false in
  (match g.repr with
  | Boxed b ->
    Array.iter
      (fun l -> List.iter (fun e -> seen.(e.e_transition) <- true) l)
      b.succ
  | Compact st -> Store.iter_edges st (fun _ tid _ -> seen.(tid) <- true));
  seen

let live_transitions g =
  let seen = transition_fired g in
  let acc = ref [] in
  for i = Array.length seen - 1 downto 0 do
    if seen.(i) then acc := i :: !acc
  done;
  !acc

let dead_transitions g =
  let seen = transition_fired g in
  let acc = ref [] in
  for i = Array.length seen - 1 downto 0 do
    if not seen.(i) then acc := i :: !acc
  done;
  !acc

let iter_pred_sources g i f =
  match g.repr with
  | Boxed b -> List.iter (fun e -> f e.e_from) b.pred.(i)
  | Compact st -> Store.iter_pred_sources st i f

(* How many states reach [target] (itself included): a backward walk
   over the predecessors.  Each state is marked before it is pushed, so
   it enters the int stack at most once, and the walk allocates nothing
   per visited state beyond the stack's occasional doubling.  Marks are
   bytes, not words: the random reads of a million-state walk then stay
   in cache. *)
let count_reaching g target =
  let marked = Bytes.make (num_states g) '\000' in
  let stack = ref (Array.make 256 0) in
  let sp = ref 0 in
  let count = ref 0 in
  let visit i =
    if Bytes.get marked i = '\000' then begin
      Bytes.set marked i '\001';
      incr count;
      if !sp = Array.length !stack then begin
        let bigger = Array.make (2 * !sp) 0 in
        Array.blit !stack 0 bigger 0 !sp;
        stack := bigger
      end;
      !stack.(!sp) <- i;
      incr sp
    end
  in
  visit target;
  while !sp > 0 do
    decr sp;
    iter_pred_sources g !stack.(!sp) visit
  done;
  !count

let is_reversible g = count_reaching g 0 = num_states g

let home_states g =
  let n = num_states g in
  let acc = ref [] in
  for i = n - 1 downto 0 do
    if count_reaching g i = n then acc := i :: !acc
  done;
  !acc

let check_invariant g p =
  let n = num_states g in
  let rec go i =
    if i >= n then None else if not (p (state g i)) then Some i else go (i + 1)
  in
  go 0

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
