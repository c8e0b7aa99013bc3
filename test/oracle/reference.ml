(* The pre-optimization simulation engine, kept as a frozen baseline.

   This is the straightforward O(T)-per-event engine the optimized
   [Simulator] replaced: every step rescans all transitions for
   fireability, [next_instant] sweeps every deadline, and predicates,
   delay distributions and actions are interpreted AST walks.  It is
   retained verbatim, as test code, so the differential test suite and
   the bench can check that the optimized engine produces bit-for-bit
   identical traces, checkpoints and outcomes on the same seeds.

   The single deliberate deviation from the pre-optimization code is
   shared with [Simulator]: the future-completion branch of [step] peeks
   at the pending completions instead of popping and re-pushing the head
   entry.  The old pop/re-push allotted the entry a fresh tie-break
   sequence number, which rotated the completion order of simultaneous
   fire-ends every time the clock advanced; both engines now complete
   simultaneous events in firing-start order.  The pending completions
   are a plain sorted list here, not the simulator's heap, so the
   differential suite checks that heap too.

   Types are re-exported from [Simulator], so errors, outcomes and
   diagnoses interoperate. *)

module Net = Pnut_core.Net
module Marking = Pnut_core.Marking
module Env = Pnut_core.Env
module Expr = Pnut_core.Expr
module Prng = Pnut_core.Prng
module Trace = Pnut_trace.Trace
module Simulator = Pnut_sim.Simulator
module Checkpoint = Pnut_sim.Checkpoint

type error = Simulator.error =
  | Livelock of { clock : float; firings : int }
  | Transition_error of {
      transition : string;
      what : string;
      clock : float;
      message : string;
    }
  | Restore_error of string

let sim_error e = raise (Simulator.Sim_error e)

(* Pending completions (time, transition, firing id), sorted by time; a
   new entry goes after every entry with the same time, so simultaneous
   completions leave in firing-start order. *)
type pending = (float * Net.transition_id * int) list

let rec schedule ((time, _, _) as e) = function
  | ((t, _, _) as hd) :: tl when t <= time -> hd :: schedule e tl
  | l -> e :: l

type t = {
  net : Net.t;
  prng : Prng.t;
  sink : Trace.sink;
  max_instant_firings : int;
  marking : Marking.t;
  env : Env.t;
  mutable clock : float;
  mutable queue : pending;
  (* enabling bookkeeping *)
  deadline : float option array;  (* per transition: time it may fire *)
  in_flight : int array;
  (* incremental-refresh indexes: which transitions read each place
     (input or inhibitor arcs), and which carry predicates (affected by
     any environment change) *)
  readers : Net.transition_id list array;  (* per place, ascending *)
  predicated : Net.transition_id list;     (* ascending *)
  mutable next_firing_id : int;
  mutable started : int;
  mutable finished : int;
  mutable instant_firings : int;  (* firings at the current clock value *)
  mutable last_activity : float;  (* clock of the latest start/completion *)
  mutable finished_emitted : bool;
}

let net st = st.net
let clock st = st.clock
let marking st = Marking.copy st.marking
let env st = st.env
let in_flight st = Array.copy st.in_flight
let events_started st = st.started
let events_finished st = st.finished
let last_activity st = st.last_activity

let tokens st name = Marking.get st.marking (Net.place_id st.net name)

(* Re-evaluate enabledness and maintain enabling deadlines for one
   transition: newly enabled transitions sample their enabling delay,
   newly disabled ones lose their deadline, continuously enabled ones
   keep it. *)
let refresh_one st tr =
  let id = tr.Net.t_id in
  let is_enabled = Net.enabled st.net st.marking st.env tr in
  match st.deadline.(id), is_enabled with
  | Some _, true -> ()
  | Some _, false -> st.deadline.(id) <- None
  | None, false -> ()
  | None, true ->
    let d = Net.sample_duration ~prng:st.prng st.env tr.Net.t_enabling in
    st.deadline.(id) <- Some (st.clock +. d)

let refresh_enabling st =
  Array.iter (refresh_one st) (Net.transitions st.net)

(* Incremental refresh after a firing touched only [places] (and, when
   [env_changed], the model variables): only transitions reading a
   touched place or carrying a predicate can change enabledness.
   Processed in ascending id order — the same order as the full scan —
   so the random enabling-delay draws are identical to a full refresh
   and traces are bit-for-bit reproducible either way. *)
let refresh_after st ~places ~env_changed =
  let affected = Array.make (Net.num_transitions st.net) false in
  List.iter
    (fun p -> List.iter (fun tid -> affected.(tid) <- true) st.readers.(p))
    places;
  if env_changed then
    List.iter (fun tid -> affected.(tid) <- true) st.predicated;
  Array.iteri
    (fun tid hit -> if hit then refresh_one st (Net.transition st.net tid))
    affected

(* Which transitions read each place (input or inhibitor arcs), per
   place, in ascending transition order. *)
let build_readers net =
  let idx = Array.make (Net.num_places net) [] in
  (* build in descending id order so each list ends up ascending *)
  for i = Net.num_transitions net - 1 downto 0 do
    let tr = Net.transition net i in
    let note { Net.a_place; _ } =
      match idx.(a_place) with
      | hd :: _ when hd = i -> ()
      | l -> idx.(a_place) <- i :: l
    in
    List.iter note tr.Net.t_inputs;
    List.iter note tr.Net.t_inhibitors
  done;
  idx

let build_predicated net =
  Array.to_list (Net.transitions net)
  |> List.filter_map (fun tr ->
         if tr.Net.t_predicate <> None then Some tr.Net.t_id else None)

let create ?(seed = 1) ?prng ?(sink = Trace.null_sink)
    ?(max_instant_firings = 10_000) net =
  let prng = match prng with Some g -> g | None -> Prng.create seed in
  let st =
    {
      net;
      prng;
      sink;
      max_instant_firings;
      marking = Net.initial_marking net;
      env = Net.initial_env net;
      clock = 0.0;
      queue = [];
      deadline = Array.make (Net.num_transitions net) None;
      in_flight = Array.make (Net.num_transitions net) 0;
      readers = build_readers net;
      predicated = build_predicated net;
      next_firing_id = 0;
      started = 0;
      finished = 0;
      instant_firings = 0;
      last_activity = 0.0;
      finished_emitted = false;
    }
  in
  sink.Trace.on_header (Trace.header_of_net net);
  refresh_enabling st;
  st

(* Transitions that are enabled and past their enabling deadline. *)
let fireable st =
  let acc = ref [] in
  Array.iter
    (fun tr ->
      match st.deadline.(tr.Net.t_id) with
      | Some d when d <= st.clock -> acc := tr :: !acc
      | Some _ | None -> ())
    (Net.transitions st.net);
  List.rev !acc

(* Run an action, recording every assignment for the trace delta.  Table
   writes are recorded under the pseudo-variable name "tbl[i]".  Failures
   surface as structured [Transition_error]s naming the transition. *)
let run_action st tr stmts =
  let action_error message =
    sim_error
      (Transition_error
         { transition = tr.Net.t_name; what = "action"; clock = st.clock;
           message })
  in
  let changes = ref [] in
  let record name v = changes := (name, v) :: !changes in
  let run = function
    | Expr.Assign (name, e) ->
      let v = Expr.eval ~prng:st.prng st.env e in
      Env.set st.env name v;
      record name v
    | Expr.Table_assign (tbl, ie, e) -> (
      let i = Expr.eval_int ~prng:st.prng st.env ie in
      let v = Expr.eval ~prng:st.prng st.env e in
      try
        Env.table_set st.env tbl i v;
        record (Printf.sprintf "%s[%d]" tbl i) v
      with
      | Env.Unbound name ->
        action_error (Printf.sprintf "action writes unbound table %s" name)
      | Invalid_argument msg -> action_error msg)
  in
  List.iter run stmts;
  List.rev !changes

let emit_delta st kind tr firing marking_changes env_changes =
  Trace.emit st.sink.Trace.on_delta
    {
      Trace.d_time = st.clock;
      d_kind = kind;
      d_transition = tr.Net.t_id;
      d_firing = firing;
      d_marking = marking_changes;
      d_env = env_changes;
    }

(* Merge (place, delta) lists, summing deltas per place and dropping
   zero entries (self-loops). *)
let merge_changes a b =
  let tbl = Hashtbl.create 8 in
  let add (p, d) =
    Hashtbl.replace tbl p (d + try Hashtbl.find tbl p with Not_found -> 0)
  in
  List.iter add a;
  List.iter add b;
  Hashtbl.fold (fun p d acc -> if d = 0 then acc else (p, d) :: acc) tbl []
  |> List.sort compare

let complete_firing ?(extra_changes = []) st tr firing =
  Net.produce st.net st.marking tr;
  let env_changes = run_action st tr tr.Net.t_action in
  let produced =
    List.map (fun { Net.a_place; a_weight } -> (a_place, a_weight)) tr.Net.t_outputs
  in
  st.in_flight.(tr.Net.t_id) <- st.in_flight.(tr.Net.t_id) - 1;
  st.finished <- st.finished + 1;
  st.last_activity <- st.clock;
  emit_delta st Trace.Fire_end tr firing (merge_changes extra_changes produced)
    env_changes;
  (* a zero-time firing re-tests its consumed places only now *)
  refresh_after st ~places:(List.map fst extra_changes) ~env_changed:false;
  refresh_after st
    ~places:(List.map (fun a -> a.Net.a_place) tr.Net.t_outputs)
    ~env_changed:(tr.Net.t_action <> [])

(* Starting a firing consumes the input tokens.  For a positive firing
   time this is observable (tokens are on neither side while the
   transition fires) so the Fire_start delta reports the consumption; a
   zero firing time is atomic in the paper's semantics, so the Fire_start
   delta is empty and the paired Fire_end delta carries the net marking
   change — no intermediate trace state ever violates invariants such as
   Bus_free + Bus_busy = 1.  Enabling is not re-tested between the
   consume and the produce either. *)
let start_firing st tr =
  Net.consume st.net st.marking tr;
  let firing = st.next_firing_id in
  st.next_firing_id <- st.next_firing_id + 1;
  st.started <- st.started + 1;
  st.in_flight.(tr.Net.t_id) <- st.in_flight.(tr.Net.t_id) + 1;
  st.last_activity <- st.clock;
  let consumed =
    List.map
      (fun { Net.a_place; a_weight } -> (a_place, -a_weight))
      tr.Net.t_inputs
  in
  (* The fired transition's own enabling clock restarts. *)
  st.deadline.(tr.Net.t_id) <- None;
  let consumed_places = List.map (fun a -> a.Net.a_place) tr.Net.t_inputs in
  let duration = Net.sample_duration ~prng:st.prng st.env tr.Net.t_firing in
  if duration <= 0.0 then begin
    emit_delta st Trace.Fire_start tr firing [] [];
    complete_firing ~extra_changes:consumed st tr firing
  end
  else begin
    emit_delta st Trace.Fire_start tr firing consumed [];
    st.queue <- schedule (st.clock +. duration, tr.Net.t_id, firing) st.queue;
    refresh_after st ~places:consumed_places ~env_changed:false
  end;
  tr.Net.t_id

type step_result = Simulator.step_result =
  | Fired of Net.transition_id
  | Completed of Net.transition_id
  | Advanced of float
  | Quiescent

(* Earliest instant at which something can happen after the current one:
   the next scheduled fire-end or the earliest pending enabling
   deadline. *)
let next_instant st =
  let candidates = ref [] in
  (match st.queue with
  | (t, _, _) :: _ -> candidates := t :: !candidates
  | [] -> ());
  Array.iter
    (fun deadline ->
      match deadline with
      | Some d when d > st.clock -> candidates := d :: !candidates
      | Some _ | None -> ())
    st.deadline;
  match !candidates with
  | [] -> None
  | first :: rest -> Some (List.fold_left Float.min first rest)

let step st =
  match fireable st with
  | _ :: _ as ready ->
    if st.instant_firings >= st.max_instant_firings then
      sim_error
        (Livelock { clock = st.clock; firings = st.max_instant_firings });
    st.instant_firings <- st.instant_firings + 1;
    let weighted = List.map (fun tr -> (tr, tr.Net.t_frequency)) ready in
    let chosen = Prng.choose_weighted st.prng weighted in
    Fired (start_firing st chosen)
  | [] -> (
    match st.queue with
    | (time, tid, firing) :: rest when Float.equal time st.clock ->
      st.queue <- rest;
      complete_firing st (Net.transition st.net tid) firing;
      Completed tid
    | _ :: _ ->
      (* head strictly in the future: advance the clock, leaving the
         entry in place (peek, not pop/re-push — see the header note) *)
      (match next_instant st with
      | Some t ->
        assert (t > st.clock);
        st.clock <- t;
        st.instant_firings <- 0;
        Advanced t
      | None -> assert false)
    | [] -> (
      match next_instant st with
      | Some t when t > st.clock ->
        st.clock <- t;
        st.instant_firings <- 0;
        Advanced t
      | Some _ | None -> Quiescent))

let fireable_transitions st = List.map (fun tr -> tr.Net.t_id) (fireable st)

let fire_transition st tid =
  let ready = fireable st in
  match List.find_opt (fun tr -> tr.Net.t_id = tid) ready with
  | Some tr -> ignore (start_firing st tr : Net.transition_id)
  | None ->
    invalid_arg
      (Printf.sprintf "Simulator.fire_transition: %s is not fireable now"
         (Net.transition st.net tid).Net.t_name)

type stop_reason = Simulator.stop_reason =
  | Horizon
  | Dead
  | Event_limit
  | Budget_exhausted of Pnut_exec.Supervisor.reason

type outcome = Simulator.outcome = {
  stop : stop_reason;
  final_clock : float;
  started : int;
  finished : int;
}

exception Budget_trip of Pnut_exec.Supervisor.reason

let run ?until ?max_events ?budget ?(finish = true) (st : t) =
  if until = None && max_events = None then
    invalid_arg "Simulator.run: needs a horizon or an event limit";
  let horizon = Option.value until ~default:infinity in
  if not (horizon >= st.clock) then
    invalid_arg
      (Printf.sprintf "Simulator.run: horizon %g is before the clock %g"
         horizon st.clock);
  let limit = Option.value max_events ~default:max_int in
  let monitor =
    Pnut_exec.Supervisor.start
      (Option.value budget ~default:Pnut_exec.Budget.none)
  in
  let monitored = Pnut_exec.Supervisor.active monitor in
  let emit_finish t = if finish then begin
    if not st.finished_emitted then begin
      st.finished_emitted <- true;
      st.sink.Trace.on_finish t
    end
  end in
  (* Budget checks cost one monitor poll every 256 engine steps,
     mirroring the optimized engine exactly. *)
  let steps = ref 0 in
  let check_budget () =
    incr steps;
    if monitored && !steps land 255 = 0 then
      match Pnut_exec.Supervisor.check monitor with
      | Some reason -> raise_notrace (Budget_trip reason)
      | None -> ()
  in
  let stop_budget reason =
    emit_finish st.clock;
    { stop = Budget_exhausted reason; final_clock = st.clock;
      started = st.started; finished = st.finished }
  in
  let rec loop () =
    check_budget ();
    if st.started >= limit then begin
      emit_finish st.clock;
      { stop = Event_limit; final_clock = st.clock; started = st.started;
        finished = st.finished }
    end
    else
      (* Peek whether the next instant would overshoot the horizon. *)
      match fireable st with
      | _ :: _ ->
        ignore (step st);
        loop ()
      | [] -> (
        match next_instant st with
        | Some t when t > horizon ->
          st.clock <- horizon;
          st.instant_firings <- 0;
          emit_finish horizon;
          { stop = Horizon; final_clock = horizon; started = st.started;
            finished = st.finished }
        | Some _ ->
          ignore (step st);
          loop ()
        | None ->
          let final =
            if Float.is_finite horizon then horizon else st.clock
          in
          st.clock <- final;
          st.instant_firings <- 0;
          emit_finish final;
          { stop = Dead; final_clock = final; started = st.started;
            finished = st.finished })
  in
  try loop () with Budget_trip reason -> stop_budget reason

let simulate ?seed ?prng ?max_instant_firings ?until ?max_events ?sink net =
  let st = create ?seed ?prng ?sink ?max_instant_firings net in
  run ?until ?max_events st

(* -- deadlock diagnosis -- *)

type block_reason = Simulator.block_reason =
  | Missing_tokens of { place : string; have : int; need : int }
  | Inhibited of { place : string; have : int; limit : int }
  | Predicate_false of string
  | Awaiting_enabling of { ready_at : float }

type transition_diagnosis = Simulator.transition_diagnosis = {
  td_name : string;
  td_reasons : block_reason list;
}

type diagnosis = Simulator.diagnosis = {
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
      else
        match st.deadline.(tr.Net.t_id) with
        | Some d when d > st.clock -> [ Awaiting_enabling { ready_at = d } ]
        | Some _ | None -> []
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

(* -- checkpoint / restore -- *)

let checkpoint st =
  {
    Checkpoint.ck_net = Net.name st.net;
    ck_clock = st.clock;
    ck_prng = Prng.state st.prng;
    ck_marking = Marking.to_array st.marking;
    ck_deadlines =
      (let acc = ref [] in
       Array.iteri
         (fun tid d ->
           match d with Some t -> acc := (tid, t) :: !acc | None -> ())
         st.deadline;
       List.rev !acc);
    ck_in_flight =
      (let acc = ref [] in
       Array.iteri
         (fun tid n -> if n <> 0 then acc := (tid, n) :: !acc)
         st.in_flight;
       List.rev !acc);
    ck_pending = st.queue;
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
  let deadline = Array.make (Net.num_transitions net) None in
  List.iter
    (fun (tid, t) -> deadline.(tid) <- Some t)
    ck.Checkpoint.ck_deadlines;
  let in_flight = Array.make (Net.num_transitions net) 0 in
  List.iter (fun (tid, n) -> in_flight.(tid) <- n) ck.Checkpoint.ck_in_flight;
  let queue =
    List.fold_left (fun q e -> schedule e q) [] ck.Checkpoint.ck_pending
  in
  let st =
    {
      net;
      prng = Prng.of_state ck.Checkpoint.ck_prng;
      sink;
      max_instant_firings;
      marking;
      env;
      clock = ck.Checkpoint.ck_clock;
      queue;
      deadline;
      in_flight;
      readers = build_readers net;
      predicated = build_predicated net;
      next_firing_id = ck.Checkpoint.ck_next_firing_id;
      started = ck.Checkpoint.ck_started;
      finished = ck.Checkpoint.ck_finished;
      instant_firings = ck.Checkpoint.ck_instant_firings;
      last_activity = ck.Checkpoint.ck_clock;
      finished_emitted = false;
    }
  in
  (* The deadlines were captured live, so no [refresh_enabling] here:
     re-sampling enabling delays would fork the random stream and break
     the identical-suffix guarantee. *)
  Checkpoint.resume_trace sink net ck;
  st
