module Net = Pnut_core.Net
module Marking = Pnut_core.Marking
module Kernel = Pnut_core.Kernel
module Budget = Pnut_exec.Budget
module Supervisor = Pnut_exec.Supervisor
module Packed = Pnut_reach.Packed
module Store = Pnut_reach.Store

type kind =
  | Immediate of float  (* conflict weight *)
  | Timed of float      (* rate = 1 / mean *)

type result = {
  tangible_states : int;
  vanishing_states : int;
  place_means : float array;
  throughputs : float array;
}

let classify net =
  Array.map
    (fun tr ->
      let fail fmt =
        Printf.ksprintf
          (fun s -> invalid_arg (Printf.sprintf "Gspn: transition %s %s" tr.Net.t_name s))
          fmt
      in
      if tr.Net.t_predicate <> None then fail "has a predicate";
      if tr.Net.t_action <> [] then fail "has an action";
      match tr.Net.t_firing, tr.Net.t_enabling with
      | Net.Zero, Net.Zero -> Immediate tr.Net.t_frequency
      | Net.Zero, Net.Exponential mean ->
        if mean <= 0.0 then fail "has a non-positive exponential mean";
        Timed (1.0 /. mean)
      | Net.Exponential _, _ ->
        fail "has an exponential firing time (use an enabling time)"
      | (Net.Const _ | Net.Uniform _ | Net.Choice _ | Net.Dynamic _), _
      | _, (Net.Const _ | Net.Uniform _ | Net.Choice _ | Net.Dynamic _) ->
        fail "has a non-exponential delay (analyze the exponential_variant)")
    (Net.transitions net)

(* -- state space -- *)

type state = {
  marking : int array;
  (* outgoing edges: immediate (probability) for vanishing states, timed
     (rate) for tangible ones; targets are state indices *)
  edges : (int * float * int) list;  (* transition id, weight, target *)
  vanishing : bool;
}

(* The chain is interned in the packed store: states get indices in
   discovery order and {!Supervisor.sweep} expands them in index order,
   so the store is the BFS frontier — every index past its cursor is
   still unexpanded.  Bounds are left unknown (fields widen on demand),
   so no invariant analysis runs before the first state.  A state that
   enables an immediate transition is vanishing and fires only its
   immediate transitions, weighted by frequency; a tangible one fires
   its timed transitions at their rates.  Firings follow ascending
   transition ids, so state indices, edge order and every float sum
   downstream are fixed by the net alone. *)
let explore ~max_states ~monitor net kinds =
  let np = Net.num_places net in
  let trans = Kernel.transitions (Kernel.of_net net) in
  let tids = List.init (Array.length trans) Fun.id in
  let codec =
    Packed.create ~bounds:(Array.make np None) ~with_extra:false net
  in
  let store = Store.create codec ~num_transitions:(Array.length trans) in
  let intern m =
    let j = Store.intern_index store m ~extra:0 ~max_states in
    if j < 0 then
      invalid_arg
        (Printf.sprintf
           "Gspn: state space exceeds max_states (%d states explored, cap \
            %d) — the net may be unbounded; raise the cap or bound the \
            offending places"
           (Store.num_states store) max_states);
    j
  in
  ignore (intern (Marking.to_array (Net.initial_marking net)) : int);
  let child = Array.make np 0 in
  let child_mk = Marking.unsafe_wrap child in
  let param tid = match kinds.(tid) with Immediate w | Timed w -> w in
  (* State [i]'s record; [expanded] fires its transitions, else its
     edge list stays empty. *)
  let state ~expanded i =
    let m = Array.make np 0 in
    Store.marking_into store i m;
    let mk = Marking.unsafe_wrap m in
    let immediates, timed =
      List.filter (fun tid -> Kernel.token_enabled trans.(tid) mk) tids
      |> List.partition (fun tid ->
             match kinds.(tid) with Immediate _ -> true | Timed _ -> false)
    in
    let fire tid =
      Array.blit m 0 child 0 np;
      Kernel.apply trans.(tid) child_mk;
      intern child
    in
    let edges =
      match immediates with
      | _ when not expanded -> []
      | [] -> List.map (fun tid -> (tid, param tid, fire tid)) timed
      | _ ->
        let total =
          List.fold_left (fun acc tid -> acc +. param tid) 0.0 immediates
        in
        List.map (fun tid -> (tid, param tid /. total, fire tid)) immediates
    in
    { marking = m; edges; vanishing = immediates <> [] }
  in
  let states = ref [] in  (* reversed: the head is the last state built *)
  (* A budget trip leaves the last [left] states with empty edge lists;
     downstream they behave as absorbing states, which uniformization
     tolerates. *)
  let stop =
    Supervisor.sweep monitor
      ~length:(fun () -> Store.num_states store)
      (fun i -> states := state ~expanded:true i :: !states)
  in
  let n = Store.num_states store in
  let left = match stop with Some (_, left) -> left | None -> 0 in
  for i = n - left to n - 1 do
    states := state ~expanded:false i :: !states
  done;
  (Array.of_list (List.rev !states), stop)

(* -- vanishing elimination (Jacobi over absorption vectors) -- *)

(* For each vanishing state v: [absorb.(v)] maps tangible index -> absorption
   probability, and [fires.(v)] maps transition id -> expected immediate
   firings before absorption. *)
let eliminate_vanishing ~monitor states tangible_index nt n_transitions =
  let n = Array.length states in
  let tripped = ref None in
  let absorb = Array.map (fun s -> if s.vanishing then Array.make nt 0.0 else [||]) states in
  let fires =
    Array.map (fun s -> if s.vanishing then Array.make n_transitions 0.0 else [||]) states
  in
  let max_sweeps = 100_000 in
  let rec sweep k =
    if k >= max_sweeps then
      invalid_arg "Gspn: vanishing elimination did not converge (immediate loop?)";
    let delta = ref 0.0 in
    for v = 0 to n - 1 do
      if states.(v).vanishing then begin
        let new_absorb = Array.make nt 0.0 in
        let new_fires = Array.make n_transitions 0.0 in
        List.iter
          (fun (tid, prob, target) ->
            new_fires.(tid) <- new_fires.(tid) +. prob;
            if states.(target).vanishing then begin
              let a = absorb.(target) and f = fires.(target) in
              for j = 0 to nt - 1 do
                new_absorb.(j) <- new_absorb.(j) +. (prob *. a.(j))
              done;
              for u = 0 to n_transitions - 1 do
                new_fires.(u) <- new_fires.(u) +. (prob *. f.(u))
              done
            end
            else begin
              let j = tangible_index.(target) in
              new_absorb.(j) <- new_absorb.(j) +. prob
            end)
          states.(v).edges;
        for j = 0 to nt - 1 do
          delta := Float.max !delta (Float.abs (new_absorb.(j) -. absorb.(v).(j)))
        done;
        absorb.(v) <- new_absorb;
        fires.(v) <- new_fires
      end
    done;
    if !delta > 1e-14 then begin
      (* A sweep visits every vanishing state, so polling once per sweep
         bounds post-trip work to a single pass over the chain. *)
      match Supervisor.check monitor with
      | Some reason -> tripped := Some reason
      | None -> sweep (k + 1)
    end
  in
  sweep 0;
  (absorb, fires, !tripped)

(* The power iteration stops once an iterate moves less than
   [tolerance] in L1, and fails after [max_iterations]. *)
let tolerance = 1e-12
let max_iterations = 100_000

let analyze_supervised ?(max_states = 2000) ?(budget = Budget.none) net =
  let monitor = Supervisor.start budget in
  let kinds = classify net in
  let max_states = Supervisor.cap ~who:"Gspn" max_states in
  let states, stop = explore ~max_states ~monitor net kinds in
  let n = Array.length states in
  let n_transitions = Net.num_transitions net in
  (* index tangible states *)
  let tangible_index = Array.make n (-1) in
  let nt = ref 0 in
  Array.iteri
    (fun i s ->
      if not s.vanishing then begin
        tangible_index.(i) <- !nt;
        incr nt
      end)
    states;
  let nt = !nt in
  if nt = 0 then invalid_arg "Gspn: no tangible states (immediate livelock)";
  let tangible_of = Array.make nt 0 in
  Array.iteri (fun i s -> if not s.vanishing then tangible_of.(tangible_index.(i)) <- i) states;
  let absorb, fires, elim_trip =
    eliminate_vanishing ~monitor states tangible_index nt n_transitions
  in
  let solve_trip = ref elim_trip in
  (* tangible CTMC: rows of (target tangible, rate), plus per-row exit rate *)
  let rows = Array.make nt [] in
  let exit = Array.make nt 0.0 in
  for ti = 0 to nt - 1 do
    let i = tangible_of.(ti) in
    let acc = Hashtbl.create 8 in
    let add j rate =
      Hashtbl.replace acc j (rate +. try Hashtbl.find acc j with Not_found -> 0.0)
    in
    List.iter
      (fun (_, rate, target) ->
        exit.(ti) <- exit.(ti) +. rate;
        if states.(target).vanishing then
          Array.iteri
            (fun j p -> if p > 0.0 then add j (rate *. p))
            absorb.(target)
        else add tangible_index.(target) rate)
      states.(i).edges;
    rows.(ti) <- Hashtbl.fold (fun j r acc -> (j, r) :: acc) acc []
  done;
  (* uniformized power iteration; a rate strictly above every exit rate
     leaves each state a self-loop, so the uniformized chain is aperiodic
     even where the jump chain has period 2 *)
  let lambda = 1.05 *. Array.fold_left Float.max 1e-9 exit in
  (* The iteration starts from the initial marking (state 0), or from the
     absorption vector of its immediate excursion when it is vanishing:
     on a chain with several closed classes the limit depends on where it
     starts.  A vector with no mass is left only by a budget trip that
     cut the excursion short; that degraded answer starts uniform. *)
  let pi = Array.make nt 0.0 in
  if states.(0).vanishing then Array.blit absorb.(0) 0 pi 0 nt
  else pi.(tangible_index.(0)) <- 1.0;
  if not (Array.fold_left ( +. ) 0.0 pi > 0.0) then
    Array.fill pi 0 nt (1.0 /. float_of_int nt);
  let next = Array.make nt 0.0 in
  let rec iterate k =
    Array.fill next 0 nt 0.0;
    for i = 0 to nt - 1 do
      let stay = 1.0 -. (exit.(i) /. lambda) in
      next.(i) <- next.(i) +. (pi.(i) *. stay);
      List.iter
        (fun (j, rate) -> next.(j) <- next.(j) +. (pi.(i) *. rate /. lambda))
        rows.(i)
    done;
    let delta = ref 0.0 in
    for i = 0 to nt - 1 do
      delta := !delta +. Float.abs (next.(i) -. pi.(i));
      pi.(i) <- next.(i)
    done;
    if !delta > tolerance then begin
      (* Each iteration sweeps the whole tangible chain, so a per-iteration
         poll keeps the solve responsive even on a huge partial chain left
         behind by a tripped exploration; the unconverged iterate is still
         emitted as the partial result. *)
      match Supervisor.check monitor with
      | Some reason -> if !solve_trip = None then solve_trip := Some reason
      | None when k + 1 < max_iterations -> iterate (k + 1)
      | None ->
        (* an exploration trip leaves a partial chain: its iterate is
           reported as degraded, not as a failure *)
        if stop = None then
          invalid_arg
            (Printf.sprintf
               "Gspn: power iteration did not converge in %d iterations \
                (last L1 change %g)"
               max_iterations !delta)
    end
  in
  if !solve_trip = None then iterate 0;
  (* normalize (guards drift) *)
  let total = Array.fold_left ( +. ) 0.0 pi in
  Array.iteri (fun i v -> pi.(i) <- v /. total) pi;
  (* outputs *)
  let np = Net.num_places net in
  let place_means = Array.make np 0.0 in
  for ti = 0 to nt - 1 do
    let m = states.(tangible_of.(ti)).marking in
    for p = 0 to np - 1 do
      place_means.(p) <- place_means.(p) +. (pi.(ti) *. float_of_int m.(p))
    done
  done;
  let throughputs = Array.make n_transitions 0.0 in
  for ti = 0 to nt - 1 do
    let i = tangible_of.(ti) in
    List.iter
      (fun (tid, rate, target) ->
        (* the timed firing itself *)
        throughputs.(tid) <- throughputs.(tid) +. (pi.(ti) *. rate);
        (* immediate firings in the vanishing excursion it triggers *)
        if states.(target).vanishing then
          Array.iteri
            (fun u f ->
              if f > 0.0 then
                throughputs.(u) <- throughputs.(u) +. (pi.(ti) *. rate *. f))
            fires.(target))
      states.(i).edges
  done;
  let result =
    {
      tangible_states = nt;
      vanishing_states = n - nt;
      place_means;
      throughputs;
    }
  in
  (* An exploration trip outranks a solve trip: it is the first budget
     violation and explains why the chain is a prefix at all. *)
  let stop =
    match stop with
    | Some _ -> stop
    | None -> Option.map (fun r -> (r, 0)) !solve_trip
  in
  Supervisor.finish monitor ~visited:n stop result

let analyze ?max_states net =
  Supervisor.value (analyze_supervised ?max_states net)

let place_mean r net name =
  r.place_means.(Net.place_id net name)

let throughput r net name =
  r.throughputs.(Net.transition_id net name)

(* -- deterministic -> exponential rebuild -- *)

module B = Net.Builder

let exponential_variant net =
  let b =
    B.create (Net.name net ^ "_exp") ~variables:(Net.variables net)
      ~tables:(Net.tables net)
  in
  Array.iter
    (fun p ->
      ignore
        (match p.Net.p_capacity with
        | Some c -> B.add_place b p.Net.p_name ~initial:p.Net.p_initial ~capacity:c
        | None -> B.add_place b p.Net.p_name ~initial:p.Net.p_initial
          : Net.place_id))
    (Net.places net);
  Array.iter
    (fun tr ->
      if tr.Net.t_predicate <> None || tr.Net.t_action <> [] then
        invalid_arg
          (Printf.sprintf
             "Gspn.exponential_variant: transition %s has a predicate or action"
             tr.Net.t_name);
      let mean =
        match tr.Net.t_firing, tr.Net.t_enabling with
        | Net.Zero, Net.Zero -> None
        | Net.Const d, Net.Zero | Net.Zero, Net.Const d -> Some d
        | Net.Const d1, Net.Const d2 -> Some (d1 +. d2)
        | Net.Zero, Net.Exponential m | Net.Exponential m, Net.Zero -> Some m
        | (Net.Uniform _ | Net.Choice _ | Net.Dynamic _ | Net.Exponential _ | Net.Const _), _
        | Net.Zero, (Net.Uniform _ | Net.Choice _ | Net.Dynamic _) ->
          invalid_arg
            (Printf.sprintf
               "Gspn.exponential_variant: transition %s has an unsupported \
                delay shape"
               tr.Net.t_name)
      in
      let arcs l = List.map (fun a -> (a.Net.a_place, a.Net.a_weight)) l in
      let enabling =
        match mean with
        | Some m when m > 0.0 -> Net.Exponential m
        | Some _ | None -> Net.Zero
      in
      ignore
        (B.add_transition b tr.Net.t_name ~inputs:(arcs tr.Net.t_inputs)
           ~inhibitors:(arcs tr.Net.t_inhibitors)
           ~outputs:(arcs tr.Net.t_outputs) ~enabling
           ~frequency:tr.Net.t_frequency
          : Net.transition_id))
    (Net.transitions net);
  B.build b
