(* Differential harness: the optimized engine ([Simulator]) against the
   frozen straightforward engine ([Reference]) on randomly generated
   timed Petri nets.

   The optimized engine rebuilt the whole hot path — incremental
   fireable set, deadline heap, compiled predicates/delays/actions — so
   its correctness argument is this suite: on the same net and seed the
   two engines must produce byte-identical traces, equal outcomes,
   byte-identical checkpoints, and identical continuations after a
   restore.  The generator deliberately covers everything the compiler
   touches: arc weights above 1, inhibitors, every duration kind
   (including [Dynamic] expressions over mutable variables), enabling
   and firing delays, predicates, and table-writing actions. *)

module Net = Pnut_core.Net
module B = Net.Builder
module Expr = Pnut_core.Expr
module Value = Pnut_core.Value
module Sim = Pnut_sim.Simulator
module Ref = Pnut_oracle.Reference
module Checkpoint = Pnut_sim.Checkpoint
module Trace = Pnut_trace.Trace
module Codec = Pnut_trace.Codec

(* -- random net generation -- *)

type tr_spec = {
  ts_inputs : (int * int) list;      (* (place index, weight) *)
  ts_inhibitors : (int * int) list;  (* (place index, limit) *)
  ts_outputs : (int * int) list;
  ts_enabling : int;                 (* duration code *)
  ts_firing : int;
  ts_frequency : int;
  ts_predicate : int;                (* 0 = none *)
  ts_action : int;                   (* 0 = none *)
}

type spec = {
  sp_tokens : int list;  (* initial marking; length = number of places *)
  sp_trans : tr_spec list;
}

let gen_spec =
  QCheck2.Gen.(
    let* np = int_range 2 5 in
    let* tokens = list_size (return np) (int_range 0 3) in
    (* at least one token so something can happen *)
    let tokens =
      if List.for_all (fun t -> t = 0) tokens then 2 :: List.tl tokens
      else tokens
    in
    let gen_arcs lo hi =
      list_size (int_range lo hi) (pair (int_range 0 (np - 1)) (int_range 1 2))
    in
    let gen_tr =
      let* ts_inputs = gen_arcs 1 2 in
      let* ts_inhibitors =
        (* inhibitors on a quarter of the transitions *)
        let* with_inh = int_range 0 3 in
        if with_inh = 0 then gen_arcs 1 1 else return []
      in
      let* ts_outputs = gen_arcs 1 2 in
      let* ts_enabling = int_range 0 6 in
      let* ts_firing = int_range 0 6 in
      let* ts_frequency = int_range 1 3 in
      let* ts_predicate = int_range 0 5 in   (* none in 2/6 of cases *)
      let* ts_action = int_range 0 3 in
      return
        { ts_inputs; ts_inhibitors; ts_outputs; ts_enabling; ts_firing;
          ts_frequency; ts_predicate; ts_action }
    in
    let* ntr = int_range 1 6 in
    let* sp_trans = list_size (return ntr) gen_tr in
    return { sp_tokens = tokens; sp_trans })

let emod a b = Expr.Binop (Expr.Mod, a, b)

let duration_of_code = function
  | 0 -> Net.Zero
  | 1 -> Net.Const 1.0
  | 2 -> Net.Const 2.5
  | 3 -> Net.Uniform (0.5, 2.0)
  | 4 -> Net.Exponential 1.5
  | 5 -> Net.Choice [ (1.0, 1.0); (2.0, 2.0); (0.5, 1.0) ]
  | _ -> Net.Dynamic Expr.(int 1 + emod (var "counter") (int 3))

let predicate_of_code = function
  | 1 -> Some Expr.(emod (var "counter") (int 2) = int 0)
  | 2 -> Some Expr.(var "counter" < int 25)
  | 3 -> Some Expr.(index "tbl" (emod (var "counter") (int 4)) <= int 6)
  | _ -> None  (* codes 0, 4, 5: no predicate *)

let action_of_code = function
  | 1 -> [ Expr.Assign ("counter", Expr.(var "counter" + int 1)) ]
  | 2 ->
    (* the second statement sees the first one's write, in both engines *)
    [ Expr.Assign ("counter", Expr.(var "counter" + int 1));
      Expr.Table_assign
        ( "tbl",
          emod (Expr.var "counter") (Expr.int 4),
          Expr.(index "tbl" (emod (var "counter") (int 4)) + int 1) ) ]
  | 3 -> [ Expr.Table_assign ("tbl", Expr.int 0, Expr.(index "tbl" (int 0) + int 1)) ]
  | _ -> []

let build_net spec =
  let b =
    B.create "differential"
      ~variables:[ ("counter", Value.Int 0) ]
      ~tables:[ ("tbl", Array.make 4 (Value.Int 0)) ]
  in
  let np = List.length spec.sp_tokens in
  let places =
    List.mapi
      (fun i tokens -> B.add_place b (Printf.sprintf "p%d" i) ~initial:tokens)
      spec.sp_tokens
  in
  let arcs l =
    (* one arc per place: keep the heaviest requirement *)
    List.sort_uniq compare l
    |> List.map (fun (i, w) -> (List.nth places (i mod np), w))
    |> List.fold_left
         (fun acc (p, w) ->
           match acc with
           | (p', w') :: rest when p' = p -> (p, max w w') :: rest
           | _ -> (p, w) :: acc)
         []
    |> List.rev
  in
  List.iteri
    (fun ti ts ->
      ignore
        (B.add_transition b
           (Printf.sprintf "t%d" ti)
           ~inputs:(arcs ts.ts_inputs)
           ~inhibitors:(arcs ts.ts_inhibitors)
           ~outputs:(arcs ts.ts_outputs)
           ~enabling:(duration_of_code ts.ts_enabling)
           ~firing:(duration_of_code ts.ts_firing)
           ~frequency:(float_of_int ts.ts_frequency)
           ?predicate:(predicate_of_code ts.ts_predicate)
           ~action:(action_of_code ts.ts_action)
          : Net.transition_id))
    spec.sp_trans;
  B.build b

(* -- running either engine to a comparable result --

   A run is its rendered trace plus its ending: a normal outcome, or the
   message of the structured error it raised.  Zero-delay token loops in
   generated nets legitimately hit the livelock guard; then the engines
   must agree on the error and on the partial trace up to it. *)

let horizon = 50.0
let cap = 200  (* low max_instant_firings: fail livelocked nets fast *)

(* Token-multiplying nets (one input arc, weight-2 outputs) grow their
   event rate exponentially, so every run is also event-bounded. *)
let event_cap = 2_000

let run_ref ~seed net =
  let sink, get = Trace.collector () in
  let st = Ref.create ~seed ~max_instant_firings:cap ~sink net in
  let result =
    match Ref.run ~until:horizon ~max_events:event_cap st with
    | o -> Ok o
    | exception Sim.Sim_error e ->
      (* an aborted run never emits on_finish; close the collector so
         the partial traces can be compared *)
      sink.Trace.on_finish (Ref.clock st);
      Error (Sim.error_message e)
  in
  (result, Codec.to_string (get ()))

let run_fast ~seed net =
  let sink, get = Trace.collector () in
  let st = Sim.create ~seed ~max_instant_firings:cap ~sink net in
  let result =
    match Sim.run ~until:horizon ~max_events:event_cap st with
    | o -> Ok o
    | exception Sim.Sim_error e ->
      sink.Trace.on_finish (Sim.clock st);
      Error (Sim.error_message e)
  in
  (result, Codec.to_string (get ()))

let prop_traces_identical =
  QCheck2.Test.make
    ~name:"optimized and reference engines produce identical traces"
    ~count:300 gen_spec (fun spec ->
      let net = build_net spec in
      List.for_all
        (fun seed ->
          let r_res, r_trace = run_ref ~seed net in
          let f_res, f_trace = run_fast ~seed net in
          r_res = f_res && String.equal r_trace f_trace)
        [ 1; 7; 42 ])

let prop_step_matches_run =
  (* the micro-step API drives the same engine internals in a different
     order (peek, manual advance); stepping to quiescence must visit the
     same states as [run] *)
  QCheck2.Test.make ~name:"stepping the two engines agrees event by event"
    ~count:150 gen_spec (fun spec ->
      let net = build_net spec in
      let sr = Ref.create ~seed:11 ~max_instant_firings:cap net in
      let sf = Sim.create ~seed:11 ~max_instant_firings:cap net in
      let ok = ref true in
      (try
         let continue = ref true in
         let steps = ref 0 in
         while !continue && !steps < 400 do
           incr steps;
           let a = Ref.step sr in
           let b = Sim.step sf in
           if a <> b then begin
             ok := false;
             continue := false
           end;
           if Ref.clock sr > horizon || a = Sim.Quiescent then continue := false
         done
       with Sim.Sim_error _ -> ());
      !ok
      && Ref.clock sr = Sim.clock sf
      && Pnut_core.Marking.equal (Ref.marking sr) (Sim.marking sf))

let prop_checkpoints_identical =
  QCheck2.Test.make
    ~name:"mid-run checkpoints of the two engines are byte-identical"
    ~count:150 gen_spec (fun spec ->
      let net = build_net spec in
      let seed = 5 in
      let sr = Ref.create ~seed ~max_instant_firings:cap net in
      let sf = Sim.create ~seed ~max_instant_firings:cap net in
      match
        ( Ref.run ~until:(horizon /. 2.0) ~max_events:event_cap ~finish:false
            sr,
          Sim.run ~until:(horizon /. 2.0) ~max_events:event_cap ~finish:false
            sf )
      with
      | exception Sim.Sim_error _ -> true (* covered by the trace property *)
      | _, _ ->
        String.equal
          (Checkpoint.to_string (Ref.checkpoint sr))
          (Checkpoint.to_string (Sim.checkpoint sf)))

let prop_restored_runs_identical =
  (* a checkpoint from either engine restores into either engine, and
     every combination replays the identical suffix *)
  QCheck2.Test.make
    ~name:"restored engines continue with identical trace suffixes"
    ~count:150 gen_spec (fun spec ->
      let net = build_net spec in
      let seed = 23 in
      let sr = Ref.create ~seed ~max_instant_firings:cap net in
      match
        Ref.run ~until:(horizon /. 2.0) ~max_events:event_cap ~finish:false sr
      with
      | exception Sim.Sim_error _ -> true
      | _ ->
        let ck = Ref.checkpoint sr in
        let resume_ref () =
          let sink, get = Trace.collector () in
          let st = Ref.restore ~sink ~max_instant_firings:cap net ck in
          let result =
            match Ref.run ~until:horizon ~max_events:event_cap st with
            | o -> Ok o
            | exception Sim.Sim_error e ->
              sink.Trace.on_finish (Ref.clock st);
              Error (Sim.error_message e)
          in
          (result, Codec.to_string (get ()))
        in
        let resume_fast () =
          let sink, get = Trace.collector () in
          let st = Sim.restore ~sink ~max_instant_firings:cap net ck in
          let result =
            match Sim.run ~until:horizon ~max_events:event_cap st with
            | o -> Ok o
            | exception Sim.Sim_error e ->
              sink.Trace.on_finish (Sim.clock st);
              Error (Sim.error_message e)
          in
          (result, Codec.to_string (get ()))
        in
        let r_res, r_trace = resume_ref () in
        let f_res, f_trace = resume_fast () in
        r_res = f_res && String.equal r_trace f_trace)

let prop_fireable_sets_agree =
  (* the incremental ready set must equal the full rescan at every
     instant *)
  QCheck2.Test.make
    ~name:"incremental fireable set equals the reference rescan" ~count:150
    gen_spec (fun spec ->
      let net = build_net spec in
      let sr = Ref.create ~seed:3 ~max_instant_firings:cap net in
      let sf = Sim.create ~seed:3 ~max_instant_firings:cap net in
      let ok = ref true in
      (try
         for _ = 0 to 60 do
           if Ref.fireable_transitions sr <> Sim.fireable_transitions sf then
             ok := false;
           match (Ref.step sr, Sim.step sf) with
           | Sim.Quiescent, Sim.Quiescent -> raise Exit
           | a, b -> if a <> b then ok := false
         done
       with
      | Exit -> ()
      | Sim.Sim_error _ -> ());
      !ok)

(* -- replications: the sweep's stream split, replayed on the oracle -- *)

let test_replication_streams_match_reference () =
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let read r = Pnut_stat.Stat.throughput r "Issue" in
  let runs = 4 and until = 300.0 in
  (* every run's stream is split from the master in run order *)
  let master = Pnut_core.Prng.create 9 in
  let expected =
    List.init runs (fun _ ->
        let prng = Pnut_core.Prng.split master in
        let sink, get = Pnut_stat.Stat.sink () in
        ignore (Ref.simulate ~prng ~until ~sink net);
        read (get ()))
  in
  Alcotest.(check bool) "streams differ" true
    (List.length (List.sort_uniq compare expected) > 1);
  List.iter
    (fun jobs ->
      match Pnut_stat.Replication.sweep ~seed:9 ~jobs ~runs ~until net with
      | Pnut_exec.Supervisor.Complete reports ->
        let p = Pnut_stat.Replication.summarize read reports in
        Alcotest.(check (list (float 0.0)))
          (Printf.sprintf "jobs=%d samples" jobs)
          expected p.Pnut_stat.Replication.pr_samples
      | Pnut_exec.Supervisor.Degraded _ -> Alcotest.fail "unbudgeted sweep degraded")
    [ 1; 2 ]

let () =
  Alcotest.run "differential"
    [
      ( "engines",
        [
          QCheck_alcotest.to_alcotest prop_traces_identical;
          QCheck_alcotest.to_alcotest prop_step_matches_run;
          QCheck_alcotest.to_alcotest prop_checkpoints_identical;
          QCheck_alcotest.to_alcotest prop_restored_runs_identical;
          QCheck_alcotest.to_alcotest prop_fireable_sets_agree;
        ] );
      ( "replications",
        [
          Alcotest.test_case "split streams match the oracle" `Quick
            test_replication_streams_match_reference;
        ] );
    ]
