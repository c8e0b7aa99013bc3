module Net = Pnut_core.Net
module Prng = Pnut_core.Prng
module Simulator = Pnut_sim.Simulator
module Stat = Pnut_stat.Stat
module Budget = Pnut_exec.Budget
module Supervisor = Pnut_exec.Supervisor

type run_class =
  | Completed
  | Deadlocked of float
  | Errored of string
  | Exhausted of Supervisor.reason

type run_result = {
  rr_run : int;
  rr_class : run_class;
  rr_throughput : float;
  rr_started : int;
  rr_diagnosis : string option;
}

type report = {
  cr_net : string;
  cr_observe : string;
  cr_until : float;
  cr_runs : int;
  cr_specs : Fault.spec list;
  cr_baseline : run_result list;
  cr_faulty : run_result list;
  cr_tokens_dropped : int;
  cr_tokens_injected : int;
}

(* Result of one simulation before the observed transition is known. *)
type raw_run = {
  raw_class : run_class;
  raw_stats : Stat.report option;  (* None when the run errored *)
  raw_started : int;
  raw_diagnosis : string option;
}

(* One experiment: plain when [compiled] is None, segmented around the
   fault token pulses otherwise.  [finish:false] keeps the stat sink
   open across segments; the final call closes it. *)
let one_run ?budget ~prng ~until ~compiled net =
  let stat_sink, stat_get = Stat.sink () in
  let hooks =
    match compiled with
    | Some c -> Fault.hooks c
    | None -> Simulator.no_hooks
  in
  let st = Simulator.create ~prng ~sink:stat_sink ~hooks net in
  match
    let rec segments () =
      match compiled with
      | None -> Simulator.run ~until ?budget st
      | Some c -> (
        match Fault.next_pulse c ~after:(Simulator.clock st) with
        | Some t when t < until ->
          let tripped =
            if t > Simulator.clock st then
              let seg =
                Simulator.run ~until:t ?budget ~finish:false st
              in
              match seg.Simulator.stop with
              | Simulator.Budget_exhausted _ -> Some seg
              | _ -> None
            else None
          in
          (match tripped with
          | Some seg -> seg
          | None ->
            Fault.apply_pulses c ~at:t st;
            segments ())
        | Some _ | None -> Simulator.run ~until ?budget st)
    in
    segments ()
  with
  | outcome ->
    let raw_class =
      match outcome.Simulator.stop with
      | Simulator.Horizon | Simulator.Event_limit -> Completed
      | Simulator.Dead -> Deadlocked (Simulator.last_activity st)
      | Simulator.Budget_exhausted r -> Exhausted r
    in
    let raw_diagnosis =
      match raw_class with
      | Deadlocked _ ->
        Some (Format.asprintf "%a" Simulator.pp_diagnosis (Simulator.diagnose st))
      | Completed | Errored _ | Exhausted _ -> None
    in
    {
      raw_class;
      raw_stats = Some (stat_get ());
      raw_started = outcome.Simulator.started;
      raw_diagnosis;
    }
  | exception Simulator.Sim_error e ->
    {
      raw_class = Errored (Simulator.error_message e);
      raw_stats = None;
      raw_started = Simulator.events_started st;
      raw_diagnosis = None;
    }

let pick_observe net = function
  | Some stats ->
    let best = ref None in
    Array.iter
      (fun ts ->
        match !best with
        | Some b when b.Stat.ts_ends >= ts.Stat.ts_ends -> ()
        | _ -> best := Some ts)
      stats.Stat.transitions;
    (match !best with
    | Some b -> b.Stat.ts_name
    | None -> (Net.transition net 0).Net.t_name)
  | None -> (Net.transition net 0).Net.t_name

let finalize ~observe run raw =
  {
    rr_run = run;
    rr_class = raw.raw_class;
    rr_throughput =
      (match raw.raw_stats with
      | Some stats -> ( try Stat.throughput stats observe with Not_found -> 0.0)
      | None -> 0.0);
    rr_started = raw.raw_started;
    rr_diagnosis = raw.raw_diagnosis;
  }

let fault_error fmt =
  Printf.ksprintf
    (fun s -> raise (Simulator.Sim_error (Simulator.Fault_error s)))
    fmt

let run_core ?(seed = 1) ?(runs = 5) ?(until = 10_000.0) ?observe ?jobs
    ~monitor net specs =
  if runs <= 0 then invalid_arg "Campaign.run: runs must be positive";
  if until <= 0.0 then invalid_arg "Campaign.run: horizon must be positive";
  Fault.validate net specs;
  (match observe with
  | Some name when Net.find_transition net name = None ->
    fault_error "net %s has no transition %S to observe" (Net.name net) name
  | Some _ | None -> ());
  let master = Prng.create seed in
  (* Per run: one stream for the experiment randomness (shared by the
     baseline and the faulty twin so they are comparable) and an
     independent one for fault activation and jitter.  All streams are
     split from the master up front, in run order, so the campaign is
     bit-identical for every [jobs] value. *)
  let streams =
    Array.init runs (fun _ ->
        let sim_stream = Prng.split master in
        let fault_stream = Prng.split master in
        (sim_stream, fault_stream))
  in
  let results =
    Pnut_exec.Pool.init ?jobs runs (fun i ->
        let sim_stream, fault_stream = streams.(i) in
        let budget = Supervisor.run_budget monitor in
        let baseline =
          one_run ?budget ~prng:(Prng.copy sim_stream) ~until ~compiled:None
            net
        in
        let compiled = Fault.compile ~prng:fault_stream net specs in
        let faulty =
          one_run ?budget ~prng:(Prng.copy sim_stream) ~until
            ~compiled:(Some compiled) net
        in
        (* The hooks mutate [compiled] during the run; read the counters
           here, on the worker, once the faulty twin is done. *)
        ( baseline,
          faulty,
          Fault.tokens_dropped compiled,
          Fault.tokens_injected compiled ))
  in
  (* A baseline failure aborts the campaign; check in run order so the
     reported run matches the serial behaviour.  A budget-degraded
     baseline is not a model error — it stays in the report. *)
  Array.iteri
    (fun i (baseline, _, _, _) ->
      match baseline.raw_class with
      | Errored msg ->
        fault_error "baseline run %d failed without any fault: %s" (i + 1) msg
      | Completed | Deadlocked _ | Exhausted _ -> ())
    results;
  let dropped = ref 0 and injected = ref 0 in
  Array.iter
    (fun (_, _, d, j) ->
      dropped := !dropped + d;
      injected := !injected + j)
    results;
  let pairs =
    Array.to_list (Array.map (fun (b, f, _, _) -> (b, f)) results)
  in
  let observe =
    match observe with
    | Some name -> name
    | None -> pick_observe net (fst (List.hd pairs)).raw_stats
  in
  {
    cr_net = Net.name net;
    cr_observe = observe;
    cr_until = until;
    cr_runs = runs;
    cr_specs = specs;
    cr_baseline =
      List.mapi (fun i (b, _) -> finalize ~observe (i + 1) b) pairs;
    cr_faulty = List.mapi (fun i (_, f) -> finalize ~observe (i + 1) f) pairs;
    cr_tokens_dropped = !dropped;
    cr_tokens_injected = !injected;
  }

let run ?seed ?runs ?until ?observe ?jobs net specs =
  run_core ?seed ?runs ?until ?observe ?jobs
    ~monitor:(Supervisor.start Budget.none) net specs

(* First budget-tripped twin, in run order (baseline before faulty). *)
let first_exhausted report =
  let scan results =
    List.find_map
      (fun r ->
        match r.rr_class with Exhausted reason -> Some reason | _ -> None)
      results
  in
  let rec zip = function
    | b :: bs, f :: fs -> (
      match scan [ b; f ] with Some r -> Some r | None -> zip (bs, fs))
    | _ -> None
  in
  zip (report.cr_baseline, report.cr_faulty)

let run_supervised ?seed ?runs ?until ?observe ?jobs ?budget net specs =
  let monitor =
    Supervisor.start (Option.value budget ~default:Budget.none)
  in
  let report = run_core ?seed ?runs ?until ?observe ?jobs ~monitor net specs in
  match first_exhausted report with
  | None -> Supervisor.Complete report
  | Some reason ->
    let intact =
      List.length
        (List.filter
           (fun r -> match r.rr_class with Exhausted _ -> false | _ -> true)
           report.cr_faulty)
    in
    Supervisor.Degraded
      {
        reason;
        partial = report;
        progress =
          Supervisor.snapshot monitor ~visited:intact
            ~frontier:(report.cr_runs - intact);
      }

let mean_throughput results =
  match results with
  | [] -> 0.0
  | _ ->
    List.fold_left (fun acc r -> acc +. r.rr_throughput) 0.0 results
    /. float_of_int (List.length results)

let degradation r =
  let base = mean_throughput r.cr_baseline in
  if base <= 0.0 then 0.0 else 1.0 -. (mean_throughput r.cr_faulty /. base)

let count f results = List.length (List.filter f results)

let deadlocks r =
  count (fun x -> match x.rr_class with Deadlocked _ -> true | _ -> false)
    r.cr_faulty

let errors r =
  count (fun x -> match x.rr_class with Errored _ -> true | _ -> false)
    r.cr_faulty

let class_label = function
  | Completed -> "completed"
  | Deadlocked t -> Printf.sprintf "deadlocked at t=%g" t
  | Errored msg -> "error: " ^ msg
  | Exhausted reason -> "degraded: " ^ Supervisor.reason_message reason

let delta_pct baseline faulty =
  if baseline <= 0.0 then 0.0 else 100.0 *. (faulty -. baseline) /. baseline

let render r =
  let b = Buffer.create 2048 in
  Printf.bprintf b "FAULT CAMPAIGN  net %s, %d run%s x %g cycles, observing %s\n"
    r.cr_net r.cr_runs
    (if r.cr_runs = 1 then "" else "s")
    r.cr_until r.cr_observe;
  Printf.bprintf b "faults:\n";
  List.iter
    (fun s -> Printf.bprintf b "  %s\n" (Format.asprintf "%a" Fault.pp_spec s))
    r.cr_specs;
  Printf.bprintf b "\n%4s %14s %14s %9s  %s\n" "run" "baseline thr"
    "faulty thr" "delta" "outcome";
  List.iter2
    (fun base faulty ->
      Printf.bprintf b "%4d %14.6f %14.6f %8.1f%%  %s\n" base.rr_run
        base.rr_throughput faulty.rr_throughput
        (delta_pct base.rr_throughput faulty.rr_throughput)
        (class_label faulty.rr_class))
    r.cr_baseline r.cr_faulty;
  let base = mean_throughput r.cr_baseline in
  let faulty = mean_throughput r.cr_faulty in
  Printf.bprintf b "%4s %14.6f %14.6f %8.1f%%\n" "mean" base faulty
    (delta_pct base faulty);
  Printf.bprintf b
    "\ndeadlocked %d/%d, errored %d/%d, tokens dropped %d, injected %d\n"
    (deadlocks r) r.cr_runs (errors r) r.cr_runs r.cr_tokens_dropped
    r.cr_tokens_injected;
  Buffer.contents b

let render_csv r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "run,baseline_throughput,faulty_throughput,delta_pct,outcome,detail\n";
  List.iter2
    (fun base faulty ->
      let outcome, detail =
        match faulty.rr_class with
        | Completed -> ("completed", "")
        | Deadlocked t -> ("deadlocked", Printf.sprintf "t=%g" t)
        | Errored msg -> ("error", msg)
        | Exhausted reason -> ("degraded", Supervisor.reason_message reason)
      in
      Printf.bprintf b "%d,%.6f,%.6f,%.2f,%s,%S\n" base.rr_run
        base.rr_throughput faulty.rr_throughput
        (delta_pct base.rr_throughput faulty.rr_throughput)
        outcome detail)
    r.cr_baseline r.cr_faulty;
  Buffer.contents b
