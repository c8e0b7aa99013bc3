(* End-to-end integration: textual model -> parse -> validate ->
   simulate -> trace codec -> filter -> stat / tracertool / queries /
   reachability, exercising the P-NUT tool pipeline as a whole. *)

module Net = Pnut_core.Net
module Parser = Pnut_lang.Parser
module Sim = Pnut_sim.Simulator
module Trace = Pnut_trace.Trace
module Codec = Pnut_trace.Codec
module Filter = Pnut_trace.Filter
module Stat = Pnut_stat.Stat
module Query = Pnut_tracer.Query
module Signal = Pnut_tracer.Signal
module Waveform = Pnut_tracer.Waveform

(* A complete textual model of a tiny 2-stage pipeline with a shared
   bus, written in the model language (not built via the API). *)
let model_text =
  {|
net mini
place Bus_free init 1
place Bus_busy
place Empty init 4 capacity 4
place Full
place fetching
place Work_ready init 1
place Executing

transition start_fetch
  in Bus_free, Empty * 2
  out Bus_busy, fetching

transition end_fetch
  in fetching, Bus_busy
  out Bus_free, Full * 2
  enabling 4

transition start_work
  in Full, Work_ready
  out Executing, Empty
  firing 1

transition end_work
  in Executing
  out Work_ready
  firing choice(1:0.6, 3:0.4)
|}

let simulate_text ?(seed = 21) ?(until = 1000.0) text =
  let net = Parser.parse_net text in
  Pnut_core.Validate.assert_valid net;
  let trace, outcome = Sim.trace ~seed ~until net in
  (net, trace, outcome)

let test_text_to_stats () =
  let _, trace, outcome = simulate_text model_text in
  Alcotest.(check bool) "reached horizon" true (outcome.Sim.stop = Sim.Horizon);
  let r = Stat.of_trace trace in
  let work_rate = Stat.throughput r "end_work" in
  (* stage service = 1 + E[exec] = 1 + 1.8 = 2.8 cycles; fetch supplies
     2 words per >=4 cycles, so the bottleneck is fetch at 0.5/cycle,
     work at <= 1/2.8 *)
  Alcotest.(check bool)
    (Printf.sprintf "work rate %.3f in (0.2, 0.45)" work_rate)
    true
    (work_rate > 0.2 && work_rate < 0.45);
  Testutil.check_close ~tolerance:1e-6 "bus one-hot" 1.0
    (Stat.utilization r "Bus_free" +. Stat.utilization r "Bus_busy")

let test_trace_file_round_trip_preserves_analysis () =
  let _, trace, _ = simulate_text model_text in
  let text = Codec.to_string trace in
  let reloaded = Codec.parse text in
  let r1 = Stat.of_trace trace in
  let r2 = Stat.of_trace reloaded in
  Alcotest.(check string) "same report" (Stat.render r1) (Stat.render r2)

let test_filter_then_stat () =
  let _, trace, _ = simulate_text model_text in
  let spec = Filter.make_spec ~places:[ "Bus_busy" ] ~transitions:[ "end_work" ] () in
  let filtered = Filter.apply spec trace in
  let r_full = Stat.of_trace trace in
  let r_small = Stat.of_trace filtered in
  (* the filtered trace gives the same answers for what it kept *)
  Testutil.check_close ~tolerance:1e-9 "utilization preserved"
    (Stat.utilization r_full "Bus_busy")
    (Stat.utilization r_small "Bus_busy");
  Testutil.check_close ~tolerance:1e-9 "throughput preserved"
    (Stat.throughput r_full "end_work")
    (Stat.throughput r_small "end_work")

let test_queries_on_text_model () =
  let _, trace, _ = simulate_text model_text in
  let run q = Query.eval trace (Parser.parse_query q) in
  Alcotest.(check bool) "bus one-hot" true
    (Query.holds (run "forall s in S [ Bus_free(s) + Bus_busy(s) = 1 ]"));
  Alcotest.(check bool) "buffer conservation" true
    (Query.holds
       (run "forall s in S [ Full(s) + Empty(s) + 2 * fetching(s) + \
             start_work(s) <= 4 ]"));
  Alcotest.(check bool) "work happens" true
    (Query.holds (run "exists s in S [ Executing(s) > 0 ]"));
  (* "bus inevitably freed" can spuriously fail on a linear trace when
     the horizon cuts a bus transaction in half, so evaluate it on the
     trace truncated at the last bus-free state (the paper itself notes
     the check concerns "this particular simulation run") *)
  let free_id =
    let h = Trace.header trace in
    let rec find i = if h.Trace.h_places.(i) = "Bus_free" then i else find (i + 1) in
    find 0
  in
  let deltas = Trace.deltas trace in
  let last_free = ref 0 in
  let cursor = Trace.cursor (Trace.header trace) in
  Array.iteri
    (fun i d ->
      Trace.emit (Trace.step cursor) d;
      if (Trace.marking cursor).(free_id) = 1 then last_free := i + 1)
    deltas;
  let truncated =
    Trace.make (Trace.header trace)
      (Array.to_list (Array.sub deltas 0 !last_free))
      (Trace.final_time trace)
  in
  Alcotest.(check bool) "bus inevitably freed" true
    (Query.holds
       (Query.eval truncated
          (Parser.parse_query
             "forall s in {s' in S | Bus_busy(s') > 0} [ inev(Bus_free > 0) ]")))

let test_waveform_on_text_model () =
  let _, trace, _ = simulate_text model_text in
  let signals =
    List.map Parser.parse_signal
      [ "Bus_busy"; "fetching"; "pressure = Full + 2 * fetching" ]
  in
  let text = Waveform.render ~from_time:0.0 ~to_time:100.0 trace signals in
  Testutil.check_contains "signal row" text "pressure";
  Alcotest.(check bool) "nonempty plot" true (String.length text > 100)

let test_reachability_on_text_model () =
  let net = Parser.parse_net model_text in
  let g = Pnut_reach.Graph.build ~max_states:10000 net in
  Alcotest.(check bool) "complete" true (Pnut_reach.Graph.complete g);
  Alcotest.(check (list int)) "no deadlock" [] (Pnut_reach.Graph.deadlocks g);
  let ok =
    Pnut_reach.Ctl.check g
      (Pnut_reach.Ctl.AG (Pnut_reach.Ctl.Atom (Parser.parse_expr "Bus_free + Bus_busy == 1")))
  in
  Alcotest.(check bool) "CTL bus invariant" true ok

let test_invariants_on_text_model () =
  let net = Parser.parse_net model_text in
  let inc = Pnut_core.Incidence.of_net net in
  let invs = Pnut_core.Incidence.p_invariants inc in
  Alcotest.(check bool) "invariants found" true (invs <> []);
  List.iter
    (fun y ->
      Alcotest.(check bool) "conserved" true (Pnut_core.Incidence.conserved inc y))
    invs

let test_streaming_pipeline_no_storage () =
  (* simulator plugged straight into filter into stat, no stored trace,
     exactly the paper's "output directly plugged into the input of
     analysis tools" *)
  let net = Parser.parse_net model_text in
  let stat_sink, get = Stat.sink () in
  let spec = Filter.make_spec ~places:[ "Bus_busy" ] ~transitions:[] () in
  let chained = Filter.sink spec stat_sink in
  let _ = Sim.simulate ~seed:21 ~until:1000.0 ~sink:chained net in
  let r = get () in
  (* compare with the stored-trace path *)
  let _, trace, _ = simulate_text model_text in
  Testutil.check_close ~tolerance:1e-9 "streaming equals stored"
    (Stat.utilization (Stat.of_trace trace) "Bus_busy")
    (Stat.utilization r "Bus_busy")

let test_full_pipeline_textual_round_trip_end_to_end () =
  (* the flagship model: print to text, reparse, simulate, analyze *)
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let text = Format.asprintf "%a" Net.pp net in
  let net2 = Parser.parse_net text in
  let trace, _ = Sim.trace ~seed:42 ~until:3000.0 net2 in
  let r = Stat.of_trace trace in
  let issue = Stat.throughput r "Issue" in
  Alcotest.(check bool)
    (Printf.sprintf "reparsed model works: issue %.4f" issue)
    true
    (issue > 0.08 && issue < 0.16);
  (* animation consumes the same trace *)
  let prefix =
    Trace.make (Trace.header trace)
      (Array.to_list (Array.sub (Trace.deltas trace) 0 10))
      50.0
  in
  let frames = Pnut_anim.Animator.frames net2 prefix in
  Alcotest.(check int) "animation frames" 20 (List.length frames)

let test_interpreted_model_full_toolchain () =
  (* the interpreted model exercises predicates/actions through every
     tool: simulate, serialize (env deltas included), query over a
     variable, waveform over a variable *)
  let net = Pnut_pipeline.Interpreted.full Pnut_pipeline.Config.default in
  let trace, _ = Sim.trace ~seed:7 ~until:2000.0 net in
  let reloaded = Codec.parse (Codec.to_string trace) in
  Alcotest.(check int) "codec keeps env deltas"
    (Trace.length trace) (Trace.length reloaded);
  let q =
    Parser.parse_query
      "forall s in S [ number_of_operands_needed >= 0 and \
       number_of_operands_needed <= 2 ]"
  in
  Alcotest.(check bool) "operand counter in range" true
    (Query.holds (Query.eval reloaded q));
  let signals = [ Signal.Var "number_of_operands_needed" ] in
  let text = Waveform.render ~from_time:0.0 ~to_time:100.0 reloaded signals in
  Testutil.check_contains "variable plotted" text "number_of_operands_needed"

let () =
  Alcotest.run "integration"
    [
      ( "toolchain",
        [
          Alcotest.test_case "text to stats" `Quick test_text_to_stats;
          Alcotest.test_case "trace file round trip" `Quick
            test_trace_file_round_trip_preserves_analysis;
          Alcotest.test_case "filter then stat" `Quick test_filter_then_stat;
          Alcotest.test_case "queries" `Quick test_queries_on_text_model;
          Alcotest.test_case "waveform" `Quick test_waveform_on_text_model;
          Alcotest.test_case "reachability" `Quick test_reachability_on_text_model;
          Alcotest.test_case "invariants" `Quick test_invariants_on_text_model;
          Alcotest.test_case "streaming pipeline" `Quick
            test_streaming_pipeline_no_storage;
        ] );
      ( "flagship",
        [
          Alcotest.test_case "full pipeline round trip" `Slow
            test_full_pipeline_textual_round_trip_end_to_end;
          Alcotest.test_case "interpreted toolchain" `Slow
            test_interpreted_model_full_toolchain;
        ] );
    ]
