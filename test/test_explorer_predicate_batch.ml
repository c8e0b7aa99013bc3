(* Tests for the interactive explorer, the first-order graph queries and
   the batch-means analysis. *)

module Net = Pnut_core.Net
module B = Net.Builder
module Sim = Pnut_sim.Simulator
module Explorer = Pnut_sim.Explorer
module Graph = Pnut_reach.Graph
module Predicate = Pnut_reach.Predicate
module Query = Pnut_tracer.Query
module Batch = Pnut_stat.Batch
module Trace = Pnut_trace.Trace

(* -- explorer -- *)

let bus_net () =
  let b = B.create "bus" in
  let free = B.add_place b "free" ~initial:1 in
  let busy = B.add_place b "busy" in
  let _ = B.add_transition b "grab" ~inputs:[ (free, 1) ] ~outputs:[ (busy, 1) ] in
  let _ =
    B.add_transition b "release" ~inputs:[ (busy, 1) ] ~outputs:[ (free, 1) ]
      ~enabling:(Net.Const 2.0)
  in
  B.build b

let explore commands =
  let script = String.concat "\n" commands ^ "\n" in
  let in_path = Filename.temp_file "pnut_explore" ".in" in
  let out_path = Filename.temp_file "pnut_explore" ".out" in
  let oc = open_out in_path in
  output_string oc script;
  close_out oc;
  let ic = open_in in_path in
  let out = open_out out_path in
  Explorer.run ~seed:1 (bus_net ()) ic out;
  close_in ic;
  close_out out;
  let ic2 = open_in out_path in
  let text = really_input_string ic2 (in_channel_length ic2) in
  close_in ic2;
  Sys.remove in_path;
  Sys.remove out_path;
  text

let test_explorer_show_enabled () =
  let out = explore [ "show"; "enabled"; "quit" ] in
  Testutil.check_contains "banner" out "exploring bus";
  Testutil.check_contains "clock" out "clock: 0";
  Testutil.check_contains "marking" out "free";
  Testutil.check_contains "fireable" out "fireable: grab"

let test_explorer_manual_firing () =
  let out = explore [ "fire grab"; "show"; "enabled"; "quit" ] in
  Testutil.check_contains "fired" out "fired grab at t=0";
  Testutil.check_contains "token moved" out "busy";
  (* release needs 2 time units of enabling: not fireable yet *)
  Testutil.check_contains "nothing yet" out "nothing fireable at t=0"

let test_explorer_step_and_run () =
  let out = explore [ "fire grab"; "step"; "step"; "quit" ] in
  Testutil.check_contains "advance" out "time advances to 2";
  Testutil.check_contains "release fires" out "fired release at t=2";
  let out2 = explore [ "run 10"; "show"; "quit" ] in
  Testutil.check_contains "ran" out2 "ran to t=10";
  Testutil.check_contains "alive" out2 "still alive"

let test_explorer_reset_and_errors () =
  let out =
    explore
      [ "fire grab"; "reset"; "enabled"; "fire release"; "fire ghost";
        "run -3"; "run nan"; "run inf"; "run x"; "nonsense"; "quit" ]
  in
  Testutil.check_contains "reset message" out "reset to the initial state";
  Testutil.check_contains "fireable after reset" out "fireable: grab";
  Testutil.check_contains "not fireable error" out "release is not fireable";
  Testutil.check_contains "unknown transition" out "no transition named ghost";
  Testutil.check_contains "bad duration" out "positive duration";
  Alcotest.(check int) "negative, NaN and infinite durations refused" 3
    (List.length
       (List.filter
          (fun l -> Testutil.contains l "positive duration")
          (String.split_on_char '\n' out)));
  Testutil.check_contains "bad number" out "expects a number";
  Testutil.check_contains "unknown command" out "unknown command"

let test_explorer_back_and_history () =
  let out =
    explore
      [ "back"; "fire grab"; "run 5"; "history"; "back"; "show"; "history";
        "back"; "enabled"; "quit" ]
  in
  (* nothing to undo initially *)
  Testutil.check_contains "empty undo" out "nothing to undo";
  (* history lists the two mutations in order *)
  Testutil.check_contains "history fire" out "1  fire grab";
  Testutil.check_contains "history run" out "2  run 5";
  (* first back undoes 'run 5': clock returns to 0 with grab fired *)
  Testutil.check_contains "undid run" out "undid \"run 5\"; back at t=0";
  Testutil.check_contains "busy after replay" out "busy";
  (* second back undoes the fire: grab fireable again *)
  Testutil.check_contains "undid fire" out "undid \"fire grab\"";
  Testutil.check_contains "back to start" out "fireable: grab"

let test_explorer_dead_net () =
  let out = explore [ "fire grab"; "run 100"; "quit" ] in
  (* the bus cycles forever; to see death use a one-shot net instead *)
  ignore out;
  let oneshot =
    let b = B.create "oneshot" in
    let p = B.add_place b "p" ~initial:1 in
    let _ = B.add_transition b "t" ~inputs:[ (p, 1) ] in
    B.build b
  in
  let in_path = Filename.temp_file "pnut_explore" ".in" in
  let oc = open_out in_path in
  output_string oc "run 5\nstep\nquit\n";
  close_out oc;
  let ic = open_in in_path in
  let buf_path = Filename.temp_file "pnut_explore" ".out" in
  let out_ch = open_out buf_path in
  Explorer.run oneshot ic out_ch;
  close_in ic;
  close_out out_ch;
  let ic2 = open_in buf_path in
  let text = really_input_string ic2 (in_channel_length ic2) in
  close_in ic2;
  Sys.remove in_path;
  Sys.remove buf_path;
  Testutil.check_contains "death reported" text "net died";
  Testutil.check_contains "quiescent step" text "dead"

(* -- first-order queries over reachability graphs -- *)

let parse = Pnut_lang.Parser.parse_query

let test_predicate_proof () =
  let g = Graph.build (bus_net ()) in
  Alcotest.(check bool) "one-hot proven over all states" true
    (Predicate.holds g (parse "forall s in S [ free(s) + busy(s) = 1 ]"));
  Alcotest.(check bool) "busy reachable" true
    (Predicate.holds g (parse "exists s in (S - {#0}) [ busy(s) = 1 ]"));
  Alcotest.(check bool) "false claim refuted" false
    (Predicate.holds g (parse "forall s in S [ free(s) = 1 ]"))

let test_predicate_temporal_is_branching () =
  let g = Graph.build (bus_net ()) in
  (* from every busy state the bus is inevitably freed: a PROOF here *)
  Alcotest.(check bool) "AF via inev" true
    (Predicate.holds g
       (parse "forall s in {s' in S | busy(s') > 0} [ inev(free > 0) ]"));
  (* alw = AG: free-or-busy always *)
  Alcotest.(check bool) "AG via alw" true
    (Predicate.holds g (parse "forall s in S [ alw(free + busy = 1) ]"))

let test_predicate_counterexample_index () =
  let g = Graph.build (bus_net ()) in
  match Predicate.eval g (parse "forall s in S [ free(s) = 1 ]") with
  | Query.Fails (Some i) ->
    let s = Graph.state g i in
    Alcotest.(check int) "counterexample is the busy state" 1
      s.Graph.s_marking.(1)
  | r ->
    Alcotest.failf "expected a counterexample, got %s"
      (Format.asprintf "%a" Query.pp_result r)

let test_predicate_truncated_rejected () =
  let b = B.create "pump" in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  let _ = B.add_transition b "t" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1); (q, 1) ] in
  let g = Graph.build ~max_states:5 (B.build b) in
  Alcotest.check_raises "truncated"
    (Invalid_argument "Reach.Predicate.eval: reachability graph was truncated")
    (fun () -> ignore (Predicate.eval g (parse "forall s in S [ p(s) = 1 ]")))

let test_predicate_on_pipeline () =
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let g = Graph.build ~max_states:20_000 net in
  Alcotest.(check bool) "bus one-hot proven" true
    (Predicate.holds g (parse "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]"));
  Alcotest.(check bool) "buffer bound proven" true
    (Predicate.holds g (parse "forall s in S [ Full_I_buffers(s) <= 6 ]"));
  (* the trace-level question 'did exec_type_5 happen in this run' becomes
     'CAN the buffer drain' at the graph level *)
  Alcotest.(check bool) "buffer can drain" true
    (Predicate.holds g (parse "exists s in (S - {#0}) [ Empty_I_buffers(s) = 6 ]"))

(* -- batch means -- *)

let batch_trace () =
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  fst (Sim.trace ~seed:42 ~until:10_000.0 net)

let test_batch_place_utilization () =
  let trace = batch_trace () in
  let e = Batch.place_utilization ~warmup:1000.0 ~batches:9 trace "Bus_busy" in
  Alcotest.(check int) "9 batches" 9 e.Pnut_stat.Replication.runs;
  Alcotest.(check bool)
    (Format.asprintf "estimate sane: %a" Pnut_stat.Replication.pp e)
    true
    (e.Pnut_stat.Replication.mean > 0.5 && e.Pnut_stat.Replication.mean < 0.7);
  (* batch means must agree with the global time average over the same
     window to well under the CI width *)
  let full = Pnut_stat.Stat.of_trace trace in
  let global = Pnut_stat.Stat.utilization full "Bus_busy" in
  Alcotest.(check bool) "near global average" true
    (Float.abs (e.Pnut_stat.Replication.mean -. global) < 0.05)

let test_batch_throughput () =
  let trace = batch_trace () in
  let e = Batch.transition_throughput ~warmup:500.0 ~batches:10 trace "Issue" in
  Alcotest.(check bool)
    (Format.asprintf "throughput sane: %a" Pnut_stat.Replication.pp e)
    true
    (e.Pnut_stat.Replication.mean > 0.09 && e.Pnut_stat.Replication.mean < 0.15)

let test_batch_exact_on_constant_signal () =
  (* a place holding a constant 3 tokens: every batch mean is exactly 3 *)
  let header =
    {
      Trace.h_net = "const";
      h_places = [| "p" |];
      h_transitions = [| "t" |];
      h_initial = [| 3 |];
      h_variables = [];
    }
  in
  let trace = Trace.make header [] 100.0 in
  let e = Batch.place_utilization ~batches:4 trace "p" in
  Testutil.check_close "mean exactly 3" 3.0 e.Pnut_stat.Replication.mean;
  Testutil.check_close "no variance" 0.0 e.Pnut_stat.Replication.stddev

let test_batch_step_change () =
  (* p is 0 until t=50, then 2 until t=100; with 2 batches the means are
     0 and 2 *)
  let header =
    {
      Trace.h_net = "step";
      h_places = [| "p" |];
      h_transitions = [| "t" |];
      h_initial = [| 0 |];
      h_variables = [];
    }
  in
  let d =
    {
      Trace.d_time = 50.0;
      d_kind = Trace.Fire_end;
      d_transition = 0;
      d_firing = 0;
      d_marking = [ (0, 2) ];
      d_env = [];
    }
  in
  let trace = Trace.make header [ d ] 100.0 in
  let e = Batch.place_utilization ~batches:2 trace "p" in
  Testutil.check_close "mean 1" 1.0 e.Pnut_stat.Replication.mean;
  (* sample stddev of {0, 2} = sqrt 2 *)
  Testutil.check_close "stddev" (sqrt 2.0) e.Pnut_stat.Replication.stddev

let test_batch_two_input_arcs () =
  (* Each [take] start delta names [p] twice, as a trace from another
     producer may (the net builder merges repeated arcs, so the
     simulator never writes one); the batch integral must read the count
     the trace replays to (p never holds more than 40 tokens, and always
     an even number) *)
  let p = 0 and q = 1 in
  let header =
    {
      Trace.h_net = "twice";
      h_places = [| "p"; "q" |];
      h_transitions = [| "take"; "give" |];
      h_initial = [| 40; 0 |];
      h_variables = [];
    }
  in
  let delta time kind tid firing marking =
    { Trace.d_time = time; d_kind = kind; d_transition = tid;
      d_firing = firing; d_marking = marking; d_env = [] }
  in
  let cycle k =
    let t = 5.0 *. float_of_int k in
    [
      delta (t +. 1.0) Trace.Fire_start 0 (2 * k) [ (p, -1); (p, -1) ];
      delta (t +. 2.0) Trace.Fire_end 0 (2 * k) [ (q, 1) ];
      delta (t +. 2.0) Trace.Fire_start 1 ((2 * k) + 1) [ (q, -1) ];
      delta (t +. 5.0) Trace.Fire_end 1 ((2 * k) + 1) [ (p, 2) ];
    ]
  in
  let trace =
    Trace.make header (List.concat_map cycle (List.init 20 Fun.id)) 103.0
  in
  let c = Trace.cursor (Trace.header trace) in
  let area = ref 0.0 and since = ref 0.0 and in_range = ref true in
  Array.iter
    (fun d ->
      let held = float_of_int (Trace.marking c).(p) in
      area := !area +. (held *. (d.Trace.d_time -. !since));
      since := d.Trace.d_time;
      Trace.emit (Trace.step c) d;
      let n = (Trace.marking c).(p) in
      if n < 0 || n > 40 then in_range := false)
    (Trace.deltas trace);
  Alcotest.(check bool) "p stays within 0..40" true !in_range;
  let t_end = Trace.final_time trace in
  area := !area +. (float_of_int (Trace.marking c).(p) *. (t_end -. !since));
  let e = Batch.place_utilization trace "p" in
  Alcotest.(check bool) "p holds tokens" true (!area > 0.0);
  Testutil.check_close ~tolerance:1e-9 "time-average of p" (!area /. t_end)
    e.Pnut_stat.Replication.mean

let test_batch_validation () =
  let trace = batch_trace () in
  Alcotest.check_raises "one batch"
    (Invalid_argument "Batch: need at least 2 batches") (fun () ->
      ignore (Batch.place_utilization ~batches:1 trace "Bus_busy"));
  Alcotest.check_raises "warmup too long"
    (Invalid_argument "Batch: warm-up leaves no observation window")
    (fun () ->
      ignore (Batch.place_utilization ~warmup:1e9 trace "Bus_busy"));
  Alcotest.check_raises "unknown place" Not_found (fun () ->
      ignore (Batch.place_utilization trace "ghost"))

let () =
  Alcotest.run "explorer-predicate-batch"
    [
      ( "explorer",
        [
          Alcotest.test_case "show/enabled" `Quick test_explorer_show_enabled;
          Alcotest.test_case "manual firing" `Quick test_explorer_manual_firing;
          Alcotest.test_case "step and run" `Quick test_explorer_step_and_run;
          Alcotest.test_case "reset and errors" `Quick test_explorer_reset_and_errors;
          Alcotest.test_case "back and history" `Quick
            test_explorer_back_and_history;
          Alcotest.test_case "dead net" `Quick test_explorer_dead_net;
        ] );
      ( "predicate",
        [
          Alcotest.test_case "proofs" `Quick test_predicate_proof;
          Alcotest.test_case "temporal operators" `Quick
            test_predicate_temporal_is_branching;
          Alcotest.test_case "counterexample" `Quick
            test_predicate_counterexample_index;
          Alcotest.test_case "truncated rejected" `Quick
            test_predicate_truncated_rejected;
          Alcotest.test_case "pipeline proofs" `Slow test_predicate_on_pipeline;
        ] );
      ( "batch",
        [
          Alcotest.test_case "place utilization" `Quick test_batch_place_utilization;
          Alcotest.test_case "throughput" `Quick test_batch_throughput;
          Alcotest.test_case "constant signal" `Quick
            test_batch_exact_on_constant_signal;
          Alcotest.test_case "step change" `Quick test_batch_step_change;
          Alcotest.test_case "two input arcs" `Quick test_batch_two_input_arcs;
          Alcotest.test_case "validation" `Quick test_batch_validation;
        ] );
    ]
