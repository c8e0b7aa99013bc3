module Net = Pnut_core.Net
module Marking = Pnut_core.Marking
module Env = Pnut_core.Env
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

(* Every state lives bit-packed in the {!Store} arena with CSR edges;
   the accessors decode on the fly. *)
type t = {
  net : Net.t;
  store : Store.t;
  complete : bool;
  por_reduction : float;
}

let net g = g.net
let complete g = g.complete
let num_states g = Store.num_states g.store
let num_edges g = Store.num_edges g.store
let por_reduction g = g.por_reduction

let state g i =
  let codec = Store.codec g.store in
  let np = Packed.places (Packed.layout codec) in
  let m = Array.make np 0 in
  Store.marking_into g.store i m;
  { s_index = i; s_marking = m;
    s_env = Packed.extra_bindings codec (Store.extra g.store i) }

let initial _ = 0

let successors g i =
  List.map
    (fun (tid, tgt) -> { e_from = i; e_transition = tid; e_to = tgt })
    (Store.successors g.store i)

let predecessors g j =
  List.map
    (fun (src, tid) -> { e_from = src; e_transition = tid; e_to = j })
    (Store.predecessors g.store j)

let edges g =
  let acc = ref [] in
  Store.iter_edges g.store (fun src tid tgt ->
      acc := { e_from = src; e_transition = tid; e_to = tgt } :: !acc);
  List.rev !acc

let packed_bytes_per_state g = Some (Store.bytes_per_state g.store)

(* The sweep: {!Pnut_exec.Supervisor.sweep} over state indices.  States
   are interned in discovery order and expanded in index order, so the
   store is the BFS frontier — every index past the cursor is still
   unexpanded — and begin_source sees ascending sources, letting the
   CSR offsets append in one pass.  The expanded state is
   decoded into a scratch array once.  An action-free firing whose
   changed places all still fit their fields skips the marking
   altogether: the child key is the parent's arena words plus the
   transition's precomputed word delta, interned in place — no per-edge
   allocation.  Firings with actions, and any firing that would
   overflow a field, take the general path (blit, kernel apply, encode)
   whose overflow widens the layout; the deltas are rebuilt whenever the
   codec's layout is no longer the one they were computed for. *)
let sweep ~max_states ~monitor ~por ~stubborn net kernel =
  let codec = Packed.create net in
  let store = Store.create codec ~num_transitions:(Net.num_transitions net) in
  let np = Net.num_places net in
  let env0 = Net.initial_env net in
  let id0 = Packed.intern_extra codec env0 in
  assert (id0 = 0);
  let truncated = ref false in
  let enabled = ref 0 in
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
  let fire i ex env (c : Kernel.ctrans) =
    let lay = Packed.layout codec in
    if lay != !delta_layout then refresh_deltas lay;
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
    else Store.add_edge store ~tid:c.Kernel.s_id ~target:j
  in
  let sb_scratch = Option.map Stubborn.scratch stubborn in
  let expand i =
    Store.begin_source store i;
    Store.marking_into store i parent;
    let ex = Store.extra store i in
    let env = Packed.extra_env codec ex in
    match stubborn, sb_scratch with
    | Some sb, Some sc ->
      let tids = Stubborn.fired sb sc parent_mk in
      enabled := !enabled + Stubborn.enabled_count sc;
      for k = 0 to Array.length tids - 1 do
        fire i ex env trans.(tids.(k))
      done
    | _ ->
      for tid = 0 to Array.length trans - 1 do
        let c = trans.(tid) in
        if Kernel.enabled c parent_mk env then begin
          incr enabled;
          fire i ex env c
        end
      done
  in
  let stop =
    match
      Pnut_exec.Supervisor.sweep monitor
        ~length:(fun () -> Store.num_states store) expand
    with
    | None when !truncated ->
      Some (Pnut_exec.Supervisor.States (Store.num_states store), 0)
    | stop -> stop
  in
  (* A budget trip leaves the last [left] states unexpanded.  Under
     [por], count their enabled transitions too, so the total covers
     every recorded state. *)
  (match stop with
  | Some (_, left) when por ->
    let n = Store.num_states store in
    for i = n - left to n - 1 do
      Store.marking_into store i parent;
      Array.iter
        (fun c -> if Kernel.token_enabled c parent_mk then incr enabled)
        trans
    done
  | _ -> ());
  Store.finalize store;
  (store, stop, !enabled)

let build_supervised ?(max_states = 100_000) ?jobs:_
    ?(budget = Pnut_exec.Budget.none) ?packed:_ ?(por = false) net =
  (match
     Array.to_list (Net.transitions net)
     |> List.filter (fun tr -> Pnut_core.Duration.stochastic_logic tr <> None)
   with
  | [] -> ()
  | bad ->
    invalid_arg
      ("Reach.Graph.build: stochastic predicate/action on transitions: "
      ^ String.concat ", "
          (List.sort_uniq String.compare
             (List.map (fun tr -> tr.Net.t_name) bad))));
  let monitor = Pnut_exec.Supervisor.start budget in
  let max_states = Pnut_exec.Supervisor.cap ~who:"Reach.Graph" max_states in
  let kernel = Kernel.of_net net in
  (* Raises Invalid_argument when the net falls outside the reduction's
     fragment — callers choosing [por] must catch it or pre-check with
     Stubborn.unsupported. *)
  let stubborn =
    if not por then None
    else
      (* A net the static test proves irreducible takes the plain loop:
         [fired] would return the full ascending enabled set anyway, so
         the graph is the same, without the closures. *)
      let sb = Stubborn.create kernel in
      if Stubborn.reduces sb then Some sb else None
  in
  let store, stop, enabled =
    sweep ~max_states ~monitor ~por ~stubborn net kernel
  in
  let por_reduction =
    if not por then 1.0
    else float_of_int enabled /. float_of_int (max 1 (Store.num_edges store))
  in
  Pnut_exec.Supervisor.finish monitor ~visited:(Store.num_states store) stop
    { net; store; complete = stop = None; por_reduction }

let build ?max_states ?por net =
  Pnut_exec.Supervisor.value (build_supervised ?max_states ?por net)

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
  let np = Net.num_places g.net in
  if Array.length marking <> np then None
  else begin
    let scratch = Array.make np 0 in
    let n = num_states g in
    let rec go i =
      if i >= n then None
      else begin
        Store.marking_into g.store i scratch;
        if marking_eq scratch marking then Some i else go (i + 1)
      end
    in
    go 0
  end

let deadlocks g = Store.deadlocks g.store
let bound g p = Store.max_tokens g.store p

let is_safe g =
  let scratch = Array.make (Net.num_places g.net) 0 in
  let n = num_states g in
  let rec go i =
    i >= n
    || (Store.marking_into g.store i scratch;
        Array.for_all (fun c -> c <= 1) scratch && go (i + 1))
  in
  go 0

let dead_transitions g =
  let seen = Array.make (Net.num_transitions g.net) false in
  Store.iter_edges g.store (fun _ tid _ -> seen.(tid) <- true);
  let acc = ref [] in
  for i = Array.length seen - 1 downto 0 do
    if not seen.(i) then acc := i :: !acc
  done;
  !acc

(* Every interned state is reachable from state 0 — each was interned
   together with its incoming edge, in a truncated or budget-stopped
   prefix too — so state 0 is reachable from every state exactly when
   the graph is one SCC. *)
let is_reversible g = Store.strongly_connected g.store

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
