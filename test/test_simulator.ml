(* Tests for the discrete-event simulation engine: timing semantics,
   conflict resolution, concurrency, livelock protection, run control. *)

module Net = Pnut_core.Net
module Marking = Pnut_core.Marking
module Expr = Pnut_core.Expr
module Value = Pnut_core.Value
module B = Net.Builder
module Sim = Pnut_sim.Simulator
module Trace = Pnut_trace.Trace

let delta_times kind trace name =
  let h = Trace.header trace in
  let tid =
    let rec find i =
      if h.Trace.h_transitions.(i) = name then i else find (i + 1)
    in
    find 0
  in
  Array.to_list (Trace.deltas trace)
  |> List.filter (fun d -> d.Trace.d_kind = kind && d.Trace.d_transition = tid)
  |> List.map (fun d -> d.Trace.d_time)

(* -- firing time semantics -- *)

let one_shot_net ~firing ~enabling =
  let b = B.create "oneshot" in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  let _ = B.add_transition b "t" ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ] ~firing ~enabling in
  B.build b

let test_firing_time () =
  let net = one_shot_net ~firing:(Net.Const 5.0) ~enabling:Net.Zero in
  let trace, outcome = Sim.trace ~until:100.0 net in
  Alcotest.(check (list (float 0.0))) "start at 0" [ 0.0 ]
    (delta_times Trace.Fire_start trace "t");
  Alcotest.(check (list (float 0.0))) "end at 5" [ 5.0 ]
    (delta_times Trace.Fire_end trace "t");
  Alcotest.(check bool) "dead after" true (outcome.Sim.stop = Sim.Dead);
  (* tokens on neither side during the firing *)
  let mid = Testutil.state_at trace 2.5 in
  Alcotest.(check (array int)) "in transit" [| 0; 0 |] mid;
  let after = Testutil.state_at trace 10.0 in
  Alcotest.(check (array int)) "delivered" [| 0; 1 |] after

let test_enabling_time () =
  let net = one_shot_net ~firing:Net.Zero ~enabling:(Net.Const 5.0) in
  let trace, _ = Sim.trace ~until:100.0 net in
  Alcotest.(check (list (float 0.0))) "fires at 5" [ 5.0 ]
    (delta_times Trace.Fire_start trace "t");
  (* contrast with firing time: the token stays visible until t=5 *)
  let mid = Testutil.state_at trace 2.5 in
  Alcotest.(check (array int)) "token still on input" [| 1; 0 |] mid

let test_enabling_interrupted () =
  (* Two transitions race for the same token: the shorter enabling delay
     wins and the longer one, disabled by the theft, never fires. *)
  let b = B.create "race" in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "slow_out" in
  let r = B.add_place b "fast_out" in
  let _ =
    B.add_transition b "slow" ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ]
      ~enabling:(Net.Const 5.0)
  in
  let _ =
    B.add_transition b "fast" ~inputs:[ (p, 1) ] ~outputs:[ (r, 1) ]
      ~enabling:(Net.Const 2.0)
  in
  let net = B.build b in
  let trace, _ = Sim.trace ~until:100.0 net in
  Alcotest.(check (list (float 0.0))) "fast fires at 2" [ 2.0 ]
    (delta_times Trace.Fire_start trace "fast");
  Alcotest.(check (list (float 0.0))) "slow never fires" []
    (delta_times Trace.Fire_start trace "slow")

let test_enabling_clock_restarts () =
  (* p is periodically stolen and returned by a fast cycle; the slow
     transition (enabling 5) never accumulates 5 continuous units and
     never fires, demonstrating the restart policy. *)
  let b = B.create "restart" in
  let p = B.add_place b "p" ~initial:1 in
  let hold = B.add_place b "hold" in
  let out = B.add_place b "out" in
  let _ =
    B.add_transition b "steal" ~inputs:[ (p, 1) ] ~outputs:[ (hold, 1) ]
      ~enabling:(Net.Const 3.0)
  in
  let _ =
    B.add_transition b "return" ~inputs:[ (hold, 1) ] ~outputs:[ (p, 1) ]
      ~enabling:(Net.Const 1.0)
  in
  let _ =
    B.add_transition b "slow" ~inputs:[ (p, 1) ] ~outputs:[ (out, 1) ]
      ~enabling:(Net.Const 5.0)
  in
  let net = B.build b in
  let trace, _ = Sim.trace ~until:50.0 net in
  Alcotest.(check (list (float 0.0))) "slow starved" []
    (delta_times Trace.Fire_start trace "slow");
  Alcotest.(check bool) "steal keeps firing" true
    (List.length (delta_times Trace.Fire_start trace "steal") > 5)

let test_conflict_frequencies () =
  (* A (weight 9) and B (weight 1) compete for each token. *)
  let b = B.create "conflict" in
  let p = B.add_place b "p" ~initial:10000 in
  let a_out = B.add_place b "a_out" in
  let b_out = B.add_place b "b_out" in
  let _ =
    B.add_transition b "A" ~inputs:[ (p, 1) ] ~outputs:[ (a_out, 1) ]
      ~frequency:9.0
  in
  let _ =
    B.add_transition b "B" ~inputs:[ (p, 1) ] ~outputs:[ (b_out, 1) ]
      ~frequency:1.0
  in
  let net = B.build b in
  let st = Sim.create ~seed:7 net in
  let outcome = Sim.run ~max_events:10000 st in
  Alcotest.(check int) "all fired" 10000 outcome.Sim.started;
  let a = Marking.get (Sim.marking st) a_out in
  let bb = Marking.get (Sim.marking st) b_out in
  let share = float_of_int a /. float_of_int (a + bb) in
  Alcotest.(check bool)
    (Printf.sprintf "A share %.3f near 0.9" share)
    true
    (Float.abs (share -. 0.9) < 0.02)

let test_zero_delay_livelock_detected () =
  let b = B.create "zeno" in
  let p = B.add_place b "p" ~initial:1 in
  let _ = B.add_transition b "spin" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1) ] in
  let net = B.build b in
  let st = Sim.create ~max_instant_firings:100 net in
  (match Sim.run ~until:10.0 st with
  | _ -> Alcotest.fail "expected livelock error"
  | exception Sim.Sim_error (Sim.Livelock { firings; _ } as e) ->
    Alcotest.(check int) "firing cap" 100 firings;
    Testutil.check_contains "error message" (Sim.error_message e) "livelock"
  | exception Sim.Sim_error e ->
    Alcotest.failf "wrong error: %s" (Sim.error_message e))

let test_timed_self_loop_ok () =
  (* The same loop with a firing time is fine: it just beats at 1 Hz. *)
  let b = B.create "clock" in
  let p = B.add_place b "p" ~initial:1 in
  let _ =
    B.add_transition b "beat" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1) ]
      ~firing:(Net.Const 1.0)
  in
  let net = B.build b in
  let trace, outcome = Sim.trace ~until:10.0 net in
  Alcotest.(check bool) "horizon reached" true (outcome.Sim.stop = Sim.Horizon);
  (* beats at t = 0, 1, ..., 10: the horizon is inclusive *)
  Alcotest.(check int) "11 beats" 11
    (List.length (delta_times Trace.Fire_start trace "beat"))

let test_multi_server_concurrency () =
  (* three tokens, one long-firing transition: all three in flight at once *)
  let b = B.create "server" in
  let p = B.add_place b "jobs" ~initial:3 in
  let q = B.add_place b "done_" in
  let _ =
    B.add_transition b "serve" ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ]
      ~firing:(Net.Const 10.0)
  in
  let net = B.build b in
  let st = Sim.create net in
  (* fire all three starts (at t=0) *)
  let rec go () =
    match Sim.step st with
    | Sim.Fired _ -> go ()
    | Sim.Advanced _ | Sim.Completed _ | Sim.Quiescent -> ()
  in
  go ();
  Alcotest.(check (array int)) "3 concurrent firings" [| 3 |] (Sim.in_flight st);
  let outcome = Sim.run ~until:100.0 st in
  Alcotest.(check int) "all finish" 3 outcome.Sim.finished;
  Alcotest.(check int) "delivered" 3 (Marking.get (Sim.marking st) q)

let test_horizon_cuts_events () =
  let net = one_shot_net ~firing:(Net.Const 5.0) ~enabling:Net.Zero in
  let trace, outcome = Sim.trace ~until:3.0 net in
  Alcotest.(check (float 0.0)) "clock at horizon" 3.0 outcome.Sim.final_clock;
  Alcotest.(check (list (float 0.0))) "end not processed" []
    (delta_times Trace.Fire_end trace "t");
  Alcotest.(check (float 0.0)) "trace final time" 3.0 (Trace.final_time trace)

let test_max_events () =
  let b = B.create "stream" in
  let p = B.add_place b "p" ~initial:1 in
  let _ =
    B.add_transition b "tick" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1) ]
      ~firing:(Net.Const 1.0)
  in
  let net = B.build b in
  let st = Sim.create net in
  let outcome = Sim.run ~max_events:5 st in
  Alcotest.(check bool) "stopped by limit" true (outcome.Sim.stop = Sim.Event_limit);
  Alcotest.(check int) "exactly 5" 5 outcome.Sim.started

let test_run_needs_bound () =
  let net = one_shot_net ~firing:Net.Zero ~enabling:Net.Zero in
  let st = Sim.create net in
  Alcotest.check_raises "no bound"
    (Invalid_argument "Simulator.run: needs a horizon or an event limit")
    (fun () -> ignore (Sim.run st))

(* A horizon before the clock is an input error, not a rewind: the run
   raises before it emits anything, from a fresh state (a negative or
   NaN horizon) and from one restored at a later clock. *)
let test_run_rejects_past_horizon () =
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let finishes = ref 0 in
  let sink =
    { Trace.null_sink with Trace.on_finish = (fun _ -> incr finishes) }
  in
  let st = Sim.create ~seed:4 ~sink net in
  Alcotest.check_raises "negative horizon"
    (Invalid_argument "Simulator.run: horizon -5 is before the clock 0")
    (fun () -> ignore (Sim.run ~until:(-5.0) st));
  Alcotest.check_raises "NaN horizon"
    (Invalid_argument "Simulator.run: horizon nan is before the clock 0")
    (fun () -> ignore (Sim.run ~until:Float.nan st));
  let _ = Sim.run ~until:500.0 ~finish:false st in
  let restored = Sim.restore ~sink net (Sim.checkpoint st) in
  Alcotest.check_raises "restored at 500"
    (Invalid_argument "Simulator.run: horizon 100 is before the clock 500")
    (fun () -> ignore (Sim.run ~until:100.0 restored));
  Alcotest.(check int) "no finish record" 0 !finishes;
  let o = Sim.run ~until:500.0 restored in
  Alcotest.(check bool) "the clock itself is a horizon" true
    (o.Sim.stop = Sim.Horizon && Float.equal o.Sim.final_clock 500.0)

let test_determinism_same_seed () =
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let t1, _ = Sim.trace ~seed:123 ~until:500.0 net in
  let t2, _ = Sim.trace ~seed:123 ~until:500.0 net in
  Alcotest.(check string) "identical traces"
    (Pnut_trace.Codec.to_string t1)
    (Pnut_trace.Codec.to_string t2)

let test_seed_changes_trace () =
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let t1, _ = Sim.trace ~seed:1 ~until:500.0 net in
  let t2, _ = Sim.trace ~seed:2 ~until:500.0 net in
  Alcotest.(check bool) "different traces" false
    (String.equal
       (Pnut_trace.Codec.to_string t1)
       (Pnut_trace.Codec.to_string t2))

(* Figure-4 style interpreted loop: fetch 3 operands then finish. *)
let interpreted_loop_net () =
  let b = B.create "loop" ~variables:[ ("n", Value.Int 3) ] in
  let work = B.add_place b "work" ~initial:1 in
  let fin = B.add_place b "finished" in
  let _ =
    B.add_transition b "fetch" ~inputs:[ (work, 1) ] ~outputs:[ (work, 1) ]
      ~firing:(Net.Const 1.0)
      ~predicate:Expr.(var "n" > int 0)
      ~action:[ Expr.Assign ("n", Expr.(var "n" - int 1)) ]
  in
  let _ =
    B.add_transition b "done_" ~inputs:[ (work, 1) ] ~outputs:[ (fin, 1) ]
      ~predicate:Expr.(var "n" = int 0)
  in
  B.build b

let test_predicates_and_actions () =
  let net = interpreted_loop_net () in
  let trace, outcome = Sim.trace ~until:100.0 net in
  Alcotest.(check int) "3 fetches" 3
    (List.length (delta_times Trace.Fire_start trace "fetch"));
  Alcotest.(check int) "one completion" 1
    (List.length (delta_times Trace.Fire_start trace "done_"));
  Alcotest.(check bool) "net dead after" true (outcome.Sim.stop = Sim.Dead);
  (* env changes recorded in the trace *)
  let env_final =
    Pnut_core.Env.bindings (Trace.env (Testutil.after trace (Trace.length trace)))
  in
  Alcotest.(check bool) "n reached 0" true
    (List.assoc "n" env_final = Value.Int 0)

let test_combined_enabling_and_firing () =
  (* enabling 2 THEN firing 3: start at 2, end at 5; tokens invisible
     only during the firing part *)
  let net = one_shot_net ~firing:(Net.Const 3.0) ~enabling:(Net.Const 2.0) in
  let trace, _ = Sim.trace ~until:100.0 net in
  Alcotest.(check (list (float 0.0))) "start at 2" [ 2.0 ]
    (delta_times Trace.Fire_start trace "t");
  Alcotest.(check (list (float 0.0))) "end at 5" [ 5.0 ]
    (delta_times Trace.Fire_end trace "t");
  Alcotest.(check (array int)) "visible during enabling" [| 1; 0 |]
    (Testutil.state_at trace 1.0);
  Alcotest.(check (array int)) "in transit during firing" [| 0; 0 |]
    (Testutil.state_at trace 3.5)

let test_weighted_arcs_consume_and_produce () =
  let b = B.create "weights" in
  let p = B.add_place b "p" ~initial:5 in
  let q = B.add_place b "q" in
  let _ =
    B.add_transition b "t" ~inputs:[ (p, 2) ] ~outputs:[ (q, 3) ]
      ~firing:(Net.Const 1.0)
  in
  let net = B.build b in
  let st = Sim.create net in
  let outcome = Sim.run ~until:100.0 st in
  (* 5 tokens allow two firings (consuming 4), leaving 1 *)
  Alcotest.(check int) "two firings" 2 outcome.Sim.started;
  Alcotest.(check int) "p leftover" 1 (Sim.tokens st "p");
  Alcotest.(check int) "q produced" 6 (Sim.tokens st "q")

let test_inhibitor_respected_dynamically () =
  (* producer fills q; t is inhibited once q holds 2 tokens *)
  let b = B.create "inhib" in
  let src = B.add_place b "src" ~initial:10 in
  let q = B.add_place b "q" in
  let fired = B.add_place b "fired" in
  let _ =
    B.add_transition b "fill" ~inputs:[ (src, 1) ] ~outputs:[ (q, 1) ]
      ~firing:(Net.Const 1.0)
  in
  let _ =
    B.add_transition b "t" ~inputs:[ (src, 1) ] ~inhibitors:[ (q, 2) ]
      ~outputs:[ (fired, 1) ]
      ~enabling:(Net.Const 3.5)
  in
  let net = B.build b in
  let trace, _ = Sim.trace ~until:30.0 net in
  (* q reaches 2 at time 2; t needs 3.5 continuous units and never gets
     them *)
  Alcotest.(check (list (float 0.0))) "t inhibited forever" []
    (delta_times Trace.Fire_start trace "t")

let test_dynamic_duration_from_table () =
  let b =
    B.create "dyn"
      ~variables:[ ("k", Value.Int 2) ]
      ~tables:[ ("delay", [| Value.Int 1; Value.Int 4; Value.Int 9 |]) ]
  in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  let _ =
    B.add_transition b "t" ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ]
      ~firing:(Net.Dynamic (Expr.index "delay" (Expr.var "k")))
  in
  let net = B.build b in
  let trace, _ = Sim.trace ~until:100.0 net in
  Alcotest.(check (list (float 0.0))) "table-driven delay" [ 9.0 ]
    (delta_times Trace.Fire_end trace "t")

let test_step_api_sequence () =
  let net = one_shot_net ~firing:(Net.Const 2.0) ~enabling:Net.Zero in
  let st = Sim.create net in
  (match Sim.step st with
  | Sim.Fired 0 -> ()
  | _ -> Alcotest.fail "expected a firing first");
  (match Sim.step st with
  | Sim.Advanced t -> Alcotest.(check (float 0.0)) "advance to 2" 2.0 t
  | _ -> Alcotest.fail "expected clock advance");
  (match Sim.step st with
  | Sim.Completed 0 -> ()
  | _ -> Alcotest.fail "expected completion");
  match Sim.step st with
  | Sim.Quiescent -> ()
  | _ -> Alcotest.fail "expected quiescence"

let test_action_error_surfaces () =
  (* an action writing past a table's bounds must raise Sim_error with a
     useful message, not crash obscurely *)
  let b =
    B.create "bad_action"
      ~tables:[ ("t", [| Value.Int 0 |]) ]
      ~variables:[ ("i", Value.Int 5) ]
  in
  let p = B.add_place b "p" ~initial:1 in
  let _ =
    B.add_transition b "boom" ~inputs:[ (p, 1) ]
      ~action:[ Expr.Table_assign ("t", Expr.var "i", Expr.int 1) ]
  in
  let net = B.build b in
  match Sim.trace ~until:10.0 net with
  | _ -> Alcotest.fail "expected Sim_error"
  | exception Sim.Sim_error (Sim.Transition_error { transition; _ } as e) ->
    Alcotest.(check string) "culprit" "boom" transition;
    Testutil.check_contains "message" (Sim.error_message e) "out of bounds"
  | exception Sim.Sim_error e ->
    Alcotest.failf "wrong error: %s" (Sim.error_message e)

let test_capacity_monitoring () =
  (* a producer overfilling a capacity-2 place: the simulator does not
     enforce capacities (the static and reachability analyses check
     them) *)
  let b = B.create "overflow" in
  let src = B.add_place b "src" ~initial:5 in
  let buf = B.add_place b "buf" ~capacity:2 in
  let _ =
    B.add_transition b "fill" ~inputs:[ (src, 1) ] ~outputs:[ (buf, 1) ]
      ~firing:(Net.Const 1.0)
  in
  let st = Sim.create (B.build b) in
  let _ = Sim.run ~until:100.0 st in
  Alcotest.(check int) "silently overfilled" 5 (Sim.tokens st "buf")

let test_manual_fire_api () =
  let net = one_shot_net ~firing:Net.Zero ~enabling:Net.Zero in
  let st = Sim.create net in
  Alcotest.(check (list int)) "t fireable" [ 0 ] (Sim.fireable_transitions st);
  Sim.fire_transition st 0;
  Alcotest.(check int) "fired" 1 (Sim.events_started st);
  Alcotest.(check (list int)) "nothing left" [] (Sim.fireable_transitions st);
  Alcotest.check_raises "refire rejected"
    (Invalid_argument "Simulator.fire_transition: t is not fireable now")
    (fun () -> Sim.fire_transition st 0)

let test_tokens_accessor () =
  let net = one_shot_net ~firing:Net.Zero ~enabling:(Net.Const 1.0) in
  let st = Sim.create net in
  Alcotest.(check int) "initial p" 1 (Sim.tokens st "p");
  Alcotest.(check int) "initial q" 0 (Sim.tokens st "q");
  Alcotest.check_raises "unknown place" Not_found (fun () ->
      ignore (Sim.tokens st "nope"))

(* -- robustness: deadlock diagnosis, watchdog, checkpoint/restore -- *)

let test_deadlock_diagnosis () =
  (* one transition starved, one self-inhibited, one with a false
     predicate: the diagnosis must name the exact blocker of each *)
  let b = B.create "dead" in
  let fuel = B.add_place b "fuel" in
  let full = B.add_place b "full" ~initial:2 in
  let out = B.add_place b "out" in
  let _ = B.add_transition b "go" ~inputs:[ (fuel, 1) ] ~outputs:[ (out, 1) ] in
  let _ =
    B.add_transition b "stall" ~inputs:[ (full, 1) ]
      ~inhibitors:[ (full, 1) ] ~outputs:[ (out, 1) ]
  in
  let _ =
    B.add_transition b "guarded" ~inputs:[ (full, 1) ]
      ~predicate:(Expr.bool false) ~outputs:[ (out, 1) ]
  in
  let net = B.build b in
  let st = Sim.create net in
  let outcome = Sim.run ~until:50.0 st in
  Alcotest.(check bool) "dead" true (outcome.Sim.stop = Sim.Dead);
  let d = Sim.diagnose st in
  let reasons name =
    (List.find (fun t -> t.Sim.td_name = name) d.Sim.dg_transitions)
      .Sim.td_reasons
  in
  (match reasons "go" with
  | [ Sim.Missing_tokens { place = "fuel"; have = 0; need = 1 } ] -> ()
  | _ -> Alcotest.fail "go should report missing fuel");
  (match reasons "stall" with
  | [ Sim.Inhibited { place = "full"; have = 2; limit = 1 } ] -> ()
  | _ -> Alcotest.fail "stall should report the inhibitor");
  (match reasons "guarded" with
  | [ Sim.Predicate_false _ ] -> ()
  | _ -> Alcotest.fail "guarded should report its predicate");
  let rendered = Format.asprintf "%a" Sim.pp_diagnosis d in
  Testutil.check_contains "names the starved place" rendered "fuel";
  Testutil.check_contains "names the inhibitor" rendered "full"

let test_watchdog_fires () =
  (* a 1 Hz self-loop never dies; with a tiny wall budget the run must
     stop gracefully instead of hanging *)
  let b = B.create "spin" in
  let p = B.add_place b "p" ~initial:1 in
  let _ =
    B.add_transition b "beat" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1) ]
      ~firing:(Net.Const 1.0)
  in
  let net = B.build b in
  let st = Sim.create net in
  let budget = Pnut_exec.Budget.make ~wall_s:1e-9 () in
  match (Sim.run ~until:infinity ~budget st).Sim.stop with
  | Sim.Budget_exhausted (Pnut_exec.Supervisor.Wall _) -> ()
  | _ -> Alcotest.fail "expected the wall budget to stop the run"

let suffix_of trace ~after =
  Array.to_list (Trace.deltas trace)
  |> List.filter (fun d -> d.Trace.d_time > after)
  |> List.map (fun d ->
         Format.asprintf "%g %s #%d %s"
           d.Trace.d_time
           (match d.Trace.d_kind with
           | Trace.Fire_start -> "start"
           | Trace.Fire_end -> "end")
           d.Trace.d_transition
           (String.concat ","
              (List.map
                 (fun (p, dl) -> Printf.sprintf "%d:%+d" p dl)
                 d.Trace.d_marking)))

let test_checkpoint_restore_identical () =
  (* pause the pipeline model mid-run, serialize the checkpoint through
     its textual codec, restore, and compare against the uninterrupted
     run: the trace suffixes must match event for event *)
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let cut = 150.0 and stop = 300.0 in
  let full_sink, full_get = Trace.collector () in
  let st = Sim.create ~seed:11 ~sink:full_sink net in
  let _ = Sim.run ~until:stop st in
  let uninterrupted = full_get () in
  (* same seed, but stop at the cut and snapshot *)
  let st1 = Sim.create ~seed:11 net in
  let _ = Sim.run ~until:cut ~finish:false st1 in
  let ck = Sim.checkpoint st1 in
  let text = Pnut_sim.Checkpoint.to_string ck in
  let ck = Pnut_sim.Checkpoint.of_string text in
  let rest_sink, rest_get = Trace.collector () in
  let st2 = Sim.restore ~sink:rest_sink net ck in
  Alcotest.(check (float 0.0)) "clock restored" cut (Sim.clock st2);
  let _ = Sim.run ~until:stop st2 in
  let resumed = rest_get () in
  let expected = suffix_of uninterrupted ~after:cut in
  let got = suffix_of resumed ~after:cut in
  Alcotest.(check bool) "suffix is non-trivial" true (List.length expected > 10);
  Alcotest.(check (list string)) "identical suffix" expected got

(* The states a cursor passes through, from the last delta at or before
   [cut] on: marking, in-flight counts and variables. *)
let states_from trace ~cut =
  let c = Trace.cursor (Trace.header trace) in
  let state () =
    ( Array.to_list (Trace.marking c),
      Array.to_list (Trace.in_flight c),
      Pnut_core.Env.bindings (Trace.env c) )
  in
  let at_cut = ref (state ()) and after = ref [] in
  Array.iter
    (fun d ->
      Trace.emit (Trace.step c) d;
      if d.Trace.d_time <= cut then at_cut := state ()
      else after := state () :: !after)
    (Trace.deltas trace);
  !at_cut :: List.rev !after

let test_resumed_trace_replays_state () =
  (* the resumed trace starts from the checkpoint: its header carries the
     checkpoint's marking and variables and its pending completions are
     restarted, so replaying it gives the uninterrupted run's state at
     the cut and after every later delta *)
  List.iter
    (fun (what, net) ->
      let cut = 150.0 and stop = 400.0 in
      let uninterrupted, _ = Sim.trace ~seed:11 ~until:stop net in
      let st1 = Sim.create ~seed:11 net in
      let _ = Sim.run ~until:cut ~finish:false st1 in
      let ck = Sim.checkpoint st1 in
      Alcotest.(check bool) (what ^ ": firings pending at the cut") true
        (ck.Pnut_sim.Checkpoint.ck_pending <> []);
      let rest_sink, rest_get = Trace.collector () in
      let _ = Sim.run ~until:stop (Sim.restore ~sink:rest_sink net ck) in
      let expected = states_from uninterrupted ~cut in
      let got = states_from (rest_get ()) ~cut in
      Alcotest.(check bool) (what ^ ": suffix is non-trivial") true
        (List.length expected > 10);
      Alcotest.(check bool) (what ^ ": identical states") true (expected = got))
    [
      ("pipeline", Pnut_pipeline.Model.full Pnut_pipeline.Config.default);
      ("interpreted", Pnut_pipeline.Interpreted.full Pnut_pipeline.Config.default);
    ]

let test_restore_rejects_wrong_net () =
  let net = one_shot_net ~firing:Net.Zero ~enabling:(Net.Const 1.0) in
  let st = Sim.create net in
  let ck = Sim.checkpoint st in
  let other = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  match Sim.restore other ck with
  | _ -> Alcotest.fail "expected restore error"
  | exception Sim.Sim_error (Sim.Restore_error _) -> ()
  | exception Sim.Sim_error e ->
    Alcotest.failf "wrong error: %s" (Sim.error_message e)

(* The per-event path allocates little: the random state is unboxed
   and the refresh and selection loops build no closures.  The release
   build reads 5.4 words per event and the dev profile 9.4; a closure
   per refresh (26.0) or a boxed random state (13.4) fails the bound. *)
let sim_words_per_event = 10.0

let test_allocation_pin () =
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let st = Sim.create ~seed:1 ~sink:Trace.null_sink net in
  let outcome = ref None in
  let words =
    Testutil.minor_words_of (fun () -> outcome := Some (Sim.run ~until:1e5 st))
  in
  let events = (Option.get !outcome).Sim.started in
  let per = words /. float_of_int events in
  Alcotest.(check bool) "tens of thousands of events" true (events > 50_000);
  Alcotest.(check bool)
    (Printf.sprintf "Simulator.run into the null sink: %.1f words/event <= %g"
       per sim_words_per_event)
    true (per <= sim_words_per_event)

let () =
  Alcotest.run "simulator"
    [
      ( "timing",
        [
          Alcotest.test_case "firing time" `Quick test_firing_time;
          Alcotest.test_case "enabling time" `Quick test_enabling_time;
          Alcotest.test_case "enabling interrupted" `Quick test_enabling_interrupted;
          Alcotest.test_case "enabling clock restarts" `Quick
            test_enabling_clock_restarts;
          Alcotest.test_case "combined enabling+firing" `Quick
            test_combined_enabling_and_firing;
          Alcotest.test_case "weighted arcs" `Quick
            test_weighted_arcs_consume_and_produce;
          Alcotest.test_case "dynamic inhibition" `Quick
            test_inhibitor_respected_dynamically;
          Alcotest.test_case "dynamic durations" `Quick
            test_dynamic_duration_from_table;
        ] );
      ( "conflicts",
        [
          Alcotest.test_case "frequencies" `Slow test_conflict_frequencies;
          Alcotest.test_case "livelock detected" `Quick
            test_zero_delay_livelock_detected;
          Alcotest.test_case "timed self-loop" `Quick test_timed_self_loop_ok;
          Alcotest.test_case "multi-server" `Quick test_multi_server_concurrency;
        ] );
      ( "run control",
        [
          Alcotest.test_case "horizon" `Quick test_horizon_cuts_events;
          Alcotest.test_case "max events" `Quick test_max_events;
          Alcotest.test_case "needs bound" `Quick test_run_needs_bound;
          Alcotest.test_case "past horizon" `Quick test_run_rejects_past_horizon;
          Alcotest.test_case "determinism" `Quick test_determinism_same_seed;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_trace;
          Alcotest.test_case "step API" `Quick test_step_api_sequence;
          Alcotest.test_case "action errors" `Quick test_action_error_surfaces;
          Alcotest.test_case "capacity monitoring" `Quick test_capacity_monitoring;
          Alcotest.test_case "manual firing" `Quick test_manual_fire_api;
          Alcotest.test_case "tokens accessor" `Quick test_tokens_accessor;
          Alcotest.test_case "allocation pin" `Quick test_allocation_pin;
        ] );
      ( "interpreted",
        [ Alcotest.test_case "predicates and actions" `Quick test_predicates_and_actions ]
      );
      ( "robustness",
        [
          Alcotest.test_case "deadlock diagnosis" `Quick test_deadlock_diagnosis;
          Alcotest.test_case "watchdog" `Quick test_watchdog_fires;
          Alcotest.test_case "checkpoint restore" `Quick
            test_checkpoint_restore_identical;
          Alcotest.test_case "restore wrong net" `Quick
            test_restore_rejects_wrong_net;
          Alcotest.test_case "resumed trace replays state" `Quick
            test_resumed_trace_replays_state;
        ] );
    ]
