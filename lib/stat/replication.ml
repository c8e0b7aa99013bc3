type estimate = {
  runs : int;
  mean : float;
  stddev : float;
  half_width : float;
  confidence : float;
}

(* Two-sided Student-t critical values, df 1..30 then the normal limit. *)
let t_90 =
  [| 6.314; 2.920; 2.353; 2.132; 2.015; 1.943; 1.895; 1.860; 1.833; 1.812;
     1.796; 1.782; 1.771; 1.761; 1.753; 1.746; 1.740; 1.734; 1.729; 1.725;
     1.721; 1.717; 1.714; 1.711; 1.708; 1.706; 1.703; 1.701; 1.699; 1.697 |]

let t_95 =
  [| 12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
     2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
     2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042 |]

let t_99 =
  [| 63.657; 9.925; 5.841; 4.604; 4.032; 3.707; 3.499; 3.355; 3.250; 3.169;
     3.106; 3.055; 3.012; 2.977; 2.947; 2.921; 2.898; 2.878; 2.861; 2.845;
     2.831; 2.819; 2.807; 2.797; 2.787; 2.779; 2.771; 2.763; 2.756; 2.750 |]

let critical confidence df =
  let table, limit =
    if Float.equal confidence 0.90 then (t_90, 1.645)
    else if Float.equal confidence 0.95 then (t_95, 1.960)
    else if Float.equal confidence 0.99 then (t_99, 2.576)
    else
      invalid_arg
        "Replication: supported confidence levels are 0.90, 0.95, 0.99"
  in
  if df >= 1 && df <= Array.length table then table.(df - 1) else limit

let of_samples ?(confidence = 0.95) samples =
  let n = List.length samples in
  if n < 2 then invalid_arg "Replication.of_samples: need at least two samples";
  let nf = float_of_int n in
  let mean = List.fold_left ( +. ) 0.0 samples /. nf in
  let ss =
    List.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 samples
  in
  let stddev = sqrt (ss /. (nf -. 1.0)) in
  let half_width = critical confidence (n - 1) *. stddev /. sqrt nf in
  { runs = n; mean; stddev; half_width; confidence }

let interval e = (e.mean -. e.half_width, e.mean +. e.half_width)

let contains e x =
  let lo, hi = interval e in
  x >= lo && x <= hi

type partial_sweep = {
  pr_estimate : estimate option;
  pr_samples : float list;
  pr_completed : int;
  pr_requested : int;
}

module Budget = Pnut_exec.Budget
module Supervisor = Pnut_exec.Supervisor

exception Aborted of int * Pnut_sim.Simulator.error

let sweep ?(seed = 1) ?jobs ?(budget = Budget.none) ~runs ~until net =
  if runs < 2 then invalid_arg "Replication.replicate: need at least two runs";
  let monitor = Supervisor.start budget in
  let master = Pnut_core.Prng.create seed in
  (* Split every stream up front, in run order: [Prng.split] mutates the
     master, so the streams — and hence the reports — are the same
     regardless of how the runs are later scheduled. *)
  let streams = Array.init runs (fun _ -> Pnut_core.Prng.split master) in
  let results =
    Pnut_exec.Pool.init ?jobs runs (fun i ->
        let sink, get = Stat.sink () in
        match
          Pnut_sim.Simulator.run ~until ?budget:(Supervisor.run_budget monitor)
            (Pnut_sim.Simulator.create ~prng:streams.(i) ~sink net)
        with
        | { Pnut_sim.Simulator.stop = Budget_exhausted r; _ } -> Error r
        | _ -> Ok (get ())
        | exception Pnut_sim.Simulator.Sim_error e -> raise (Aborted (i + 1, e)))
  in
  let reports = Array.map Result.to_option results in
  let completed =
    Array.fold_left (fun k r -> if Option.is_some r then k + 1 else k) 0 reports
  in
  Supervisor.finish monitor ~visited:completed
    (Array.find_map
       (function Error r -> Some (r, runs - completed) | Ok _ -> None)
       results)
    reports

(* Completed samples keep their run-order position, so an estimate over
   them is bit-identical to a smaller unbudgeted sweep over the same
   prefix of streams. *)
let summarize ?confidence read reports =
  let samples = Array.to_list reports |> List.filter_map (Option.map read) in
  let completed = List.length samples in
  {
    pr_estimate =
      (if completed >= 2 then Some (of_samples ?confidence samples) else None);
    pr_samples = samples;
    pr_completed = completed;
    pr_requested = Array.length reports;
  }

let replicate ?seed ?confidence ?jobs ~runs ~until net read =
  match
    summarize ?confidence read
      (Supervisor.value (sweep ?seed ?jobs ~runs ~until net))
  with
  | { pr_estimate = Some e; _ } -> e
  | { pr_estimate = None; _ } -> assert false (* no budget, two runs *)

let pp ppf e =
  Format.fprintf ppf "%.4f ± %.4f (%.0f%% CI, %d runs)" e.mean e.half_width
    (100.0 *. e.confidence) e.runs
