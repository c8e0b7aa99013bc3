(* The optimized simulation engine.

   The per-event critical path scales with the *locality* of a firing —
   how many transitions share places with it — not with the size of the
   net:

   - Enabling state is incremental.  [refresh_after] visits only the
     transitions reading a touched place (plus the predicated ones when
     the environment changed), deduplicated through a generation-stamped
     scratch array instead of a fresh per-event boolean array.
   - The fireable set is maintained, not recomputed.  Transitions whose
     enabling deadline is at or before the clock sit in a sorted dense
     [ready] array; strictly-future deadlines sit in an indexed min-heap
     ([Dheap]) keyed by deadline, so disabling a transition retracts its
     deadline in O(log n) and [next_instant] reads the earliest deadline
     in O(1) instead of sweeping every transition.
   - Predicates, delay distributions and actions are compiled once at
     [create]/[restore] into closures over pre-resolved environment
     cells ([Expr.compile], [Net.compile_duration]); the hot loop never
     walks an AST or looks up a name.
   - The per-event path builds no closure and boxes no random state;
     [test_simulator]'s "allocation pin" bounds what is left.
   - Trace deltas for consumed/produced tokens are precomputed per
     transition as arrays, and the one trace view points at them.

   Everything observable — trace deltas, random draw order, checkpoints,
   errors, outcomes — is bit-for-bit identical to the straightforward
   engine preserved in the test-only oracle library; the differential
   test suite holds the two against each other on random nets. *)

module Net = Pnut_core.Net
module Marking = Pnut_core.Marking
module Env = Pnut_core.Env
module Expr = Pnut_core.Expr
module Prng = Pnut_core.Prng
module Kernel = Pnut_core.Kernel
module Trace = Pnut_trace.Trace

type error =
  | Livelock of { clock : float; firings : int }
  | Transition_error of
      { transition : string; what : string; clock : float; message : string }
  | Restore_error of string

exception Sim_error of error

let error_message = function
  | Livelock { clock; firings } ->
    Printf.sprintf
      "livelock: more than %d firings at time %g (zero-delay loop?)" firings
      clock
  | Transition_error { transition; what; clock; message } ->
    Printf.sprintf "%s of %s failed at t=%g: %s" what transition clock message
  | Restore_error msg -> Printf.sprintf "checkpoint restore error: %s" msg

let sim_error e = raise (Sim_error e)

type t = {
  net : Net.t;
  prng : Prng.t;
  sink : Trace.sink;
  view : Trace.view;  (* every delta handed to [sink] *)
  max_instant_firings : int;
  marking : Marking.t;
  env : Env.t;
  mutable clock : float;
  queue : Event_queue.t;  (* in-flight firings by completion time *)
  (* the net's transitions compiled against this instance's environment
     and random stream by the shared semantics kernel *)
  ctrans : Kernel.compiled array;
  (* enabling bookkeeping: a transition with a deadline ([active]) is
     either in [ready] (deadline at or before the clock, so it may fire
     now) or in [heap] (strictly future deadline) — never both *)
  active : bool array;
  deadline : float array;  (* meaningful only where [active] *)
  heap : Dheap.t;
  ready : int array;       (* ascending ids, dense prefix of length ready_n *)
  mutable ready_n : int;
  in_flight : int array;
  (* incremental-refresh indexes: which transitions read each place
     (input or inhibitor arcs), and which carry predicates (affected by
     any environment change) *)
  readers : int array array;  (* per place, ascending *)
  predicated : int array;     (* ascending *)
  (* reusable scratch: refresh_after's touched set (deduplicated by
     generation stamp, no per-event allocation) *)
  touched_stamp : int array;
  touched : int array;
  mutable touched_n : int;
  mutable generation : int;
  mutable next_firing_id : int;
  mutable started : int;
  mutable finished : int;
  mutable instant_firings : int;  (* firings at the current clock value *)
  mutable last_activity : float;  (* clock of the latest start/completion *)
  mutable finished_emitted : bool;
}

let clock st = st.clock
let marking st = Marking.copy st.marking
let env st = st.env
let in_flight st = Array.copy st.in_flight
let events_started st = st.started

let tokens st name = Marking.get st.marking (Net.place_id st.net name)

(* -- the ready set (sorted dense array of fire-ready transition ids) --

   Kept in ascending id order so that iterating it enumerates candidates
   exactly as the full O(T) scan of the straightforward engine does;
   conflict resolution then walks the same weighted list and draws the
   same random number.  The set is the handful of transitions fireable
   at one instant, so linear insertion is cheap. *)

let ready_add st tid =
  let a = st.ready in
  let i = ref st.ready_n in
  while !i > 0 && a.(!i - 1) > tid do
    a.(!i) <- a.(!i - 1);
    decr i
  done;
  a.(!i) <- tid;
  st.ready_n <- st.ready_n + 1

let ready_remove st tid =
  let a = st.ready in
  let n = st.ready_n in
  let i = ref 0 in
  while a.(!i) <> tid do
    incr i
  done;
  while !i < n - 1 do
    a.(!i) <- a.(!i + 1);
    incr i
  done;
  st.ready_n <- n - 1

(* Retract a transition's enabling deadline, wherever it lives. *)
let deactivate st tid =
  st.active.(tid) <- false;
  if Dheap.mem st.heap tid then Dheap.remove st.heap tid
  else ready_remove st tid

(* Re-evaluate enabledness and maintain the enabling deadline for one
   transition: newly enabled transitions sample their enabling delay,
   newly disabled ones lose their deadline, continuously enabled ones
   keep it. *)
let refresh_one st (c : Kernel.compiled) =
  let id = c.c_s.s_id in
  let is_enabled = Kernel.compiled_enabled c st.marking in
  if st.active.(id) then begin
    if not is_enabled then deactivate st id
  end
  else if is_enabled then begin
    let dl = st.clock +. c.c_enabling () in
    st.active.(id) <- true;
    st.deadline.(id) <- dl;
    if dl <= st.clock then ready_add st id else Dheap.insert st.heap id dl
  end

let refresh_enabling st = Array.iter (refresh_one st) st.ctrans

let touch st tid =
  if st.touched_stamp.(tid) <> st.generation then begin
    st.touched_stamp.(tid) <- st.generation;
    st.touched.(st.touched_n) <- tid;
    st.touched_n <- st.touched_n + 1
  end

(* Incremental refresh after a firing touched only [places] (and, when
   [env_changed], the model variables): only transitions reading a
   touched place or carrying a predicate can change enabledness.
   Processed in ascending id order — the same order as a full scan — so
   the random enabling-delay draws are identical to a full refresh and
   traces are bit-for-bit reproducible either way. *)
let refresh_after st ~places ~env_changed =
  st.generation <- st.generation + 1;
  st.touched_n <- 0;
  for i = 0 to Array.length places - 1 do
    let rs = st.readers.(places.(i)) in
    for k = 0 to Array.length rs - 1 do
      touch st rs.(k)
    done
  done;
  if env_changed then
    for k = 0 to Array.length st.predicated - 1 do
      touch st st.predicated.(k)
    done;
  let a = st.touched in
  let n = st.touched_n in
  (* insertion sort: the touched set is small and nearly sorted *)
  for i = 1 to n - 1 do
    let v = a.(i) in
    let j = ref i in
    while !j > 0 && a.(!j - 1) > v do
      a.(!j) <- a.(!j - 1);
      decr j
    done;
    a.(!j) <- v
  done;
  for k = 0 to n - 1 do
    refresh_one st st.ctrans.(a.(k))
  done

(* A predicate, dynamic delay or action that fails to evaluate aborts
   the run naming the transition.  Only closures of expressions carry
   the handler. *)
let guard st (c : Kernel.compiled) what f () =
  try f ()
  with Expr.Eval_error message ->
    sim_error
      (Transition_error
         { transition = c.c_s.s_tr.Net.t_name; what; clock = st.clock; message })

let make ~prng ~sink ~max_instant_firings ~marking ~env ~clock ~queue net =
  let nt = Net.num_transitions net in
  let kernel = Kernel.of_net net in
  let st = {
    net;
    prng;
    sink;
    view = Trace.view ();
    max_instant_firings;
    marking;
    env;
    clock;
    queue;
    ctrans = Kernel.compile ~prng env kernel;
    active = Array.make nt false;
    deadline = Array.make nt 0.0;
    heap = Dheap.create nt;
    ready = Array.make (max nt 1) 0;
    ready_n = 0;
    in_flight = Array.make nt 0;
    readers = Kernel.readers kernel;
    predicated = Kernel.predicated kernel;
    touched_stamp = Array.make nt 0;
    touched = Array.make (max nt 1) 0;
    touched_n = 0;
    generation = 0;
    next_firing_id = 0;
    started = 0;
    finished = 0;
    instant_firings = 0;
    last_activity = 0.0;
    finished_emitted = false;
  } in
  let delay c what d f =
    match d with Net.Dynamic _ -> guard st c what f | _ -> f
  in
  Array.map_inplace
    (fun (c : Kernel.compiled) ->
      { c with
        c_pred = Option.map (guard st c "predicate") c.c_pred;
        c_enabling = delay c "enabling time" c.c_s.s_tr.Net.t_enabling c.c_enabling;
        c_firing = delay c "firing time" c.c_s.s_tr.Net.t_firing c.c_firing })
    st.ctrans;
  st

let create ?(seed = 1) ?prng ?(sink = Trace.null_sink)
    ?(max_instant_firings = 10_000) net =
  let prng = match prng with Some g -> g | None -> Prng.create seed in
  let st =
    make ~prng ~sink ~max_instant_firings
      ~marking:(Net.initial_marking net) ~env:(Net.initial_env net) ~clock:0.0
      ~queue:(Event_queue.create ()) net
  in
  sink.Trace.on_header (Trace.header_of_net net);
  refresh_enabling st;
  st

(* Weighted conflict resolution over the ready set, replicating
   [Prng.choose_weighted] on the same stream: total weight first, one
   unit draw, cumulative walk, last element as the rounding fallback.
   Frequencies are validated positive by the net builder, so the
   argument checks of [choose_weighted] can never fire here. *)
let select_weighted st =
  let m = st.ready_n in
  let total = ref 0.0 in
  for k = 0 to m - 1 do
    total := !total +. st.ctrans.(st.ready.(k)).c_s.s_frequency
  done;
  let target = Prng.float st.prng !total in
  let acc = ref 0.0 in
  let k = ref 0 in
  let picked = ref (-1) in
  while !picked < 0 do
    if !k >= m - 1 then picked := st.ready.(m - 1)
    else begin
      acc := !acc +. st.ctrans.(st.ready.(!k)).c_s.s_frequency;
      if target < !acc then picked := st.ready.(!k) else incr k
    end
  done;
  !picked

(* Run a compiled action, writing every assignment into the view's
   variable updates. *)
let run_action st (c : Kernel.compiled) =
  let v = st.view in
  v.Trace.v_env_n <- 0;
  if c.c_s.s_has_action then
    guard st c "action"
      (fun () ->
        Array.iter (fun f -> let name, x = f () in Trace.add_env v name x)
          c.c_action)
      ()

(* Hands the view to the sink, its marking pointed at the kernel's
   arrays and its variable updates already written. *)
let emit_delta st kind tid firing places counts =
  let v = st.view in
  v.Trace.v_time.(0) <- st.clock;
  v.Trace.v_kind <- kind;
  v.Trace.v_transition <- tid;
  v.Trace.v_firing <- firing;
  v.Trace.v_places <- places;
  v.Trace.v_counts <- counts;
  v.Trace.v_marking_n <- Array.length places;
  st.sink.Trace.on_delta v

let complete_firing ?(zero = false) st (c : Kernel.compiled) firing =
  let s = c.c_s in
  for k = 0 to Array.length s.s_out_place - 1 do
    Marking.add st.marking s.s_out_place.(k) s.s_out_weight.(k)
  done;
  run_action st c;
  st.in_flight.(s.s_id) <- st.in_flight.(s.s_id) - 1;
  st.finished <- st.finished + 1;
  st.last_activity <- st.clock;
  if zero then begin
    emit_delta st Trace.Fire_end s.s_id firing s.s_delta_place s.s_delta_weight;
    refresh_after st ~places:s.s_in_place ~env_changed:false
  end
  else
    emit_delta st Trace.Fire_end s.s_id firing s.s_produced_place
      s.s_produced_weight;
  refresh_after st ~places:s.s_out_place ~env_changed:s.s_has_action

(* Starting a firing consumes the input tokens.  For a positive firing
   time this is observable (tokens are on neither side while the
   transition fires) so the Fire_start delta reports the consumption; a
   zero firing time is atomic in the paper's semantics, so the Fire_start
   delta is empty and the paired Fire_end delta carries the net marking
   change — no intermediate trace state ever violates invariants such as
   Bus_free + Bus_busy = 1.  Enabling is not re-tested between the
   consume and the produce either: a transition sharing an input place
   keeps its enabling clock. *)
let start_firing st (c : Kernel.compiled) =
  let s = c.c_s in
  (* the transition is fireable, hence token-enabled: consume without
     the redundant recheck of [Net.consume] *)
  for k = 0 to Array.length s.s_in_place - 1 do
    Marking.add st.marking s.s_in_place.(k) (-s.s_in_weight.(k))
  done;
  let firing = st.next_firing_id in
  st.next_firing_id <- st.next_firing_id + 1;
  st.started <- st.started + 1;
  st.in_flight.(s.s_id) <- st.in_flight.(s.s_id) + 1;
  st.last_activity <- st.clock;
  (* The fired transition's own enabling clock restarts. *)
  deactivate st s.s_id;
  let duration = c.c_firing () in
  st.view.Trace.v_env_n <- 0;
  if duration <= 0.0 then begin
    emit_delta st Trace.Fire_start s.s_id firing [||] [||];
    complete_firing ~zero:true st c firing
  end
  else begin
    emit_delta st Trace.Fire_start s.s_id firing s.s_in_place
      s.s_consumed_weight;
    Event_queue.push st.queue (st.clock +. duration) ~transition:s.s_id
      ~firing;
    refresh_after st ~places:s.s_in_place ~env_changed:false
  end;
  s.s_id

type step_result =
  | Fired of Net.transition_id
  | Completed of Net.transition_id
  | Advanced of float
  | Quiescent

(* Earliest instant at which something can happen after the current one:
   the next scheduled fire-end or the earliest pending enabling deadline
   (the heap holds exactly the strictly-future ones).  O(1); [infinity]
   when both are empty. *)
let next_instant st =
  Float.min (Event_queue.min_time st.queue) (Dheap.min_key st.heap)

(* Move the clock to the next instant and promote every deadline that
   has come due from the heap into the ready set. *)
let advance st =
  let t = next_instant st in
  assert (t > st.clock);
  st.clock <- t;
  st.instant_firings <- 0;
  while (not (Dheap.is_empty st.heap)) && Dheap.min_key st.heap <= t do
    ready_add st (Dheap.pop_min st.heap)
  done;
  t

let fire_ready st =
  if st.instant_firings >= st.max_instant_firings then
    sim_error (Livelock { clock = st.clock; firings = st.max_instant_firings });
  st.instant_firings <- st.instant_firings + 1;
  start_firing st st.ctrans.(select_weighted st)

(* End the earliest in-flight firing, which is due now. *)
let complete_next st =
  let q = st.queue in
  let tid = Event_queue.top_transition q in
  let firing = Event_queue.top_firing q in
  Event_queue.drop q;
  complete_firing st st.ctrans.(tid) firing;
  tid

(* What the engine does next, given a horizon the clock may not pass:
   start a firing, end a firing due now, advance the clock, stop short
   of an instant beyond the horizon, or nothing at all (no fireable
   transition and nothing scheduled: the net is dead).  A constant
   constructor, so deciding allocates nothing. *)
type move = Fire | Complete | Advance | Overshoot | Quiet

let next_move st ~horizon =
  if st.ready_n > 0 then Fire
  else if Event_queue.is_empty st.queue && Dheap.is_empty st.heap then Quiet
  else if next_instant st > horizon then Overshoot
  else if Float.equal (Event_queue.min_time st.queue) st.clock then Complete
  else Advance

let step st =
  match next_move st ~horizon:infinity with
  | Fire -> Fired (fire_ready st)
  | Complete -> Completed (complete_next st)
  | Advance -> Advanced (advance st)
  | Quiet -> Quiescent
  | Overshoot -> assert false (* nothing lies beyond an infinite horizon *)

let fireable_transitions st = List.init st.ready_n (Array.get st.ready)

let fire_transition st tid =
  let present =
    let rec mem k = k < st.ready_n && (st.ready.(k) = tid || mem (k + 1)) in
    mem 0
  in
  if present then ignore (start_firing st st.ctrans.(tid) : Net.transition_id)
  else
    invalid_arg
      (Printf.sprintf "Simulator.fire_transition: %s is not fireable now"
         (Net.transition st.net tid).Net.t_name)

type stop_reason =
  | Horizon
  | Dead
  | Event_limit
  | Budget_exhausted of Pnut_exec.Supervisor.reason

type outcome = {
  stop : stop_reason;
  final_clock : float;
  started : int;
  finished : int;
}

exception Budget_trip of Pnut_exec.Supervisor.reason

let check_horizon horizon ~clock =
  if not (horizon >= clock) then
    invalid_arg
      (Printf.sprintf "Simulator.run: horizon %g is before the clock %g"
         horizon clock)

let run ?until ?max_events ?budget ?(finish = true) (st : t) =
  if until = None && max_events = None then
    invalid_arg "Simulator.run: needs a horizon or an event limit";
  let horizon = Option.value until ~default:infinity in
  check_horizon horizon ~clock:st.clock;
  let limit = Option.value max_events ~default:max_int in
  let monitor =
    Pnut_exec.Supervisor.start
      (Option.value budget ~default:Pnut_exec.Budget.none)
  in
  let stop reason =
    if finish && not st.finished_emitted then begin
      st.finished_emitted <- true;
      st.sink.Trace.on_finish st.clock
    end;
    { stop = reason; final_clock = st.clock; started = st.started;
      finished = st.finished }
  in
  let settle t =
    st.clock <- t;
    st.instant_firings <- 0
  in
  (* Budget checks cost one monitor poll every 256 engine steps, so a
     budgeted run pays nothing extra per event. *)
  let rec loop steps =
    let steps = steps + 1 in
    (match Pnut_exec.Supervisor.poll monitor steps with
     | Some reason -> raise_notrace (Budget_trip reason)
     | None -> ());
    if st.started >= limit then stop Event_limit
    else
      match next_move st ~horizon with
      | Fire ->
        ignore (fire_ready st : Net.transition_id);
        loop steps
      | Complete ->
        ignore (complete_next st : Net.transition_id);
        loop steps
      | Advance ->
        ignore (advance st : float);
        loop steps
      | Overshoot ->
        settle horizon;
        stop Horizon
      | Quiet ->
        settle (if Float.is_finite horizon then horizon else st.clock);
        stop Dead
  in
  try loop 0 with Budget_trip reason -> stop (Budget_exhausted reason)

let simulate ?seed ?prng ?max_instant_firings ?until ?max_events ?sink net =
  let st = create ?seed ?prng ?sink ?max_instant_firings net in
  run ?until ?max_events st

let trace ?seed ?until ?max_events net =
  let sink, get = Trace.collector () in
  let outcome = simulate ?seed ?until ?max_events ~sink net in
  (get (), outcome)

(* -- deadlock diagnosis -- *)

type block_reason =
  | Missing_tokens of { place : string; have : int; need : int }
  | Inhibited of { place : string; have : int; limit : int }
  | Predicate_false of string
  | Awaiting_enabling of { ready_at : float }

type transition_diagnosis = {
  td_name : string;
  td_reasons : block_reason list;
}

type diagnosis = {
  dg_clock : float;
  dg_last_activity : float;
  dg_marking : (string * int) list;
  dg_transitions : transition_diagnosis list;
}

let diagnose st =
  let place_name p = (Net.place st.net p).Net.p_name in
  let diagnose_transition tr =
    let token_blocks =
      List.filter_map
        (fun { Net.a_place; a_weight } ->
          let have = Marking.get st.marking a_place in
          if have < a_weight then
            Some
              (Missing_tokens
                 { place = place_name a_place; have; need = a_weight })
          else None)
        tr.Net.t_inputs
      @ List.filter_map
          (fun { Net.a_place; a_weight } ->
            let have = Marking.get st.marking a_place in
            if have >= a_weight then
              Some
                (Inhibited { place = place_name a_place; have; limit = a_weight })
            else None)
          tr.Net.t_inhibitors
    in
    let predicate_blocks =
      match tr.Net.t_predicate with
      | Some p
        when token_blocks = []
             (* predicates may call irand: evaluate against a copy so
                diagnosis never perturbs the simulation stream *)
             && not (Expr.eval_bool ~prng:(Prng.copy st.prng) st.env p) ->
        [ Predicate_false (Expr.to_string p) ]
      | Some _ | None -> []
    in
    let timing_blocks =
      if token_blocks <> [] || predicate_blocks <> [] then []
      else if st.active.(tr.Net.t_id) && st.deadline.(tr.Net.t_id) > st.clock
      then [ Awaiting_enabling { ready_at = st.deadline.(tr.Net.t_id) } ]
      else []
    in
    { td_name = tr.Net.t_name;
      td_reasons = token_blocks @ predicate_blocks @ timing_blocks }
  in
  {
    dg_clock = st.clock;
    dg_last_activity = st.last_activity;
    dg_marking =
      Array.to_list (Net.places st.net)
      |> List.filter_map (fun p ->
             let n = Marking.get st.marking p.Net.p_id in
             if n > 0 then Some (p.Net.p_name, n) else None);
    dg_transitions =
      Array.to_list (Net.transitions st.net) |> List.map diagnose_transition;
  }

let pp_reason ppf = function
  | Missing_tokens { place; have; need } ->
    Format.fprintf ppf "input %s has %d token%s, needs %d" place have
      (if have = 1 then "" else "s")
      need
  | Inhibited { place; have; limit } ->
    Format.fprintf ppf "inhibitor %s holds %d (fires only below %d)" place
      have limit
  | Predicate_false p -> Format.fprintf ppf "predicate is false: %s" p
  | Awaiting_enabling { ready_at } ->
    Format.fprintf ppf "enabled, fireable at t=%g" ready_at

let pp_diagnosis ppf d =
  Format.fprintf ppf "@[<v>deadlock diagnosis at t=%g (last event at t=%g)@,"
    d.dg_clock d.dg_last_activity;
  (match d.dg_marking with
  | [] -> Format.fprintf ppf "marking: empty (every place holds 0 tokens)@,"
  | m ->
    Format.fprintf ppf "marking: %s@,"
      (String.concat ", "
         (List.map (fun (p, n) -> Printf.sprintf "%s=%d" p n) m)));
  List.iter
    (fun td ->
      match td.td_reasons with
      | [] -> Format.fprintf ppf "  %s: fireable@," td.td_name
      | reasons ->
        Format.fprintf ppf "  %s: %a@," td.td_name
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
             pp_reason)
          reasons)
    d.dg_transitions;
  Format.fprintf ppf "@]"

(* -- checkpoint / restore -- *)

let checkpoint st =
  {
    Checkpoint.ck_net = Net.name st.net;
    ck_clock = st.clock;
    ck_prng = Prng.state st.prng;
    ck_marking = Marking.to_array st.marking;
    ck_deadlines =
      (let acc = ref [] in
       for tid = Array.length st.active - 1 downto 0 do
         if st.active.(tid) then acc := (tid, st.deadline.(tid)) :: !acc
       done;
       !acc);
    ck_in_flight =
      (let acc = ref [] in
       Array.iteri
         (fun tid n -> if n <> 0 then acc := (tid, n) :: !acc)
         st.in_flight;
       List.rev !acc);
    ck_pending = Event_queue.to_sorted_list st.queue;
    ck_variables = Env.bindings st.env;
    ck_tables = Env.tables st.env;
    ck_next_firing_id = st.next_firing_id;
    ck_started = st.started;
    ck_finished = st.finished;
    ck_instant_firings = st.instant_firings;
  }

let restore ?(sink = Trace.null_sink) ?(max_instant_firings = 10_000) net ck =
  let restore_error fmt =
    Printf.ksprintf (fun s -> sim_error (Restore_error s)) fmt
  in
  if Net.name net <> ck.Checkpoint.ck_net then
    restore_error "checkpoint is for net %S, not %S" ck.Checkpoint.ck_net
      (Net.name net);
  if Array.length ck.Checkpoint.ck_marking <> Net.num_places net then
    restore_error "checkpoint has %d places, net has %d"
      (Array.length ck.Checkpoint.ck_marking)
      (Net.num_places net);
  let check_tid what tid =
    if tid < 0 || tid >= Net.num_transitions net then
      restore_error "%s entry names transition id %d (net has %d)" what tid
        (Net.num_transitions net)
  in
  List.iter (fun (tid, _) -> check_tid "deadline" tid) ck.Checkpoint.ck_deadlines;
  List.iter (fun (tid, _) -> check_tid "inflight" tid) ck.Checkpoint.ck_in_flight;
  List.iter
    (fun (_, tid, _) -> check_tid "pending" tid)
    ck.Checkpoint.ck_pending;
  let marking =
    try Marking.of_array ck.Checkpoint.ck_marking
    with Invalid_argument msg -> restore_error "bad marking: %s" msg
  in
  let env =
    try
      Env.of_bindings ~tables:ck.Checkpoint.ck_tables
        ck.Checkpoint.ck_variables
    with Invalid_argument msg -> restore_error "bad environment: %s" msg
  in
  let queue = Event_queue.create () in
  List.iter
    (fun (time, transition, firing) ->
      Event_queue.push queue time ~transition ~firing)
    ck.Checkpoint.ck_pending;
  let st =
    make ~prng:(Prng.of_state ck.Checkpoint.ck_prng) ~sink
      ~max_instant_firings ~marking ~env
      ~clock:ck.Checkpoint.ck_clock ~queue net
  in
  st.next_firing_id <- ck.Checkpoint.ck_next_firing_id;
  st.started <- ck.Checkpoint.ck_started;
  st.finished <- ck.Checkpoint.ck_finished;
  st.instant_firings <- ck.Checkpoint.ck_instant_firings;
  st.last_activity <- ck.Checkpoint.ck_clock;
  List.iter (fun (tid, n) -> st.in_flight.(tid) <- n) ck.Checkpoint.ck_in_flight;
  (* The deadlines were captured live, so no [refresh_enabling] here:
     re-sampling enabling delays would fork the random stream and break
     the identical-suffix guarantee.  Deadlines at or before the
     restored clock go straight into the ready set; later ones into the
     heap. *)
  List.iter
    (fun (tid, t) ->
      if st.active.(tid) then deactivate st tid;
      st.active.(tid) <- true;
      st.deadline.(tid) <- t;
      if t <= st.clock then ready_add st tid else Dheap.insert st.heap tid t)
    ck.Checkpoint.ck_deadlines;
  Checkpoint.resume_trace sink net ck;
  st
