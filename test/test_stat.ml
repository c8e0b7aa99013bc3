(* Tests for the statistical analysis tool, against hand-computed
   time-weighted statistics on synthetic traces. *)

module Trace = Pnut_trace.Trace
module Stat = Pnut_stat.Stat
module Value = Pnut_core.Value

let header =
  {
    Trace.h_net = "stats";
    h_places = [| "p"; "q" |];
    h_transitions = [| "t" |];
    h_initial = [| 1; 0 |];
    h_variables = [];
  }

let delta time kind marking =
  {
    Trace.d_time = time;
    d_kind = kind;
    d_transition = 0;
    d_firing = 0;
    d_marking = marking;
    d_env = [];
  }

(* p: 1 for t in [0,4), 0 for [4,10)  ->  avg 0.4
   q: 0 for [0,4), 2 for [4,10)       ->  avg 1.2
   t: one firing from 2 to 4          ->  avg concurrency 0.2 *)
let simple_trace () =
  Trace.make header
    [
      delta 2.0 Trace.Fire_start [];
      delta 4.0 Trace.Fire_end [ (0, -1); (1, 2) ];
    ]
    10.0

let test_run_statistics () =
  let r = Stat.of_trace ~run:7 (simple_trace ()) in
  Alcotest.(check int) "run number" 7 r.Stat.run_number;
  Alcotest.(check (float 0.0)) "length" 10.0 r.Stat.length;
  Alcotest.(check int) "started" 1 r.Stat.events_started;
  Alcotest.(check int) "finished" 1 r.Stat.events_finished

let test_place_averages () =
  let r = Stat.of_trace (simple_trace ()) in
  let p = Stat.place r "p" in
  Testutil.check_close "p avg" 0.4 p.Stat.ps_avg;
  Alcotest.(check int) "p min" 0 p.Stat.ps_min;
  Alcotest.(check int) "p max" 1 p.Stat.ps_max;
  Alcotest.(check int) "p final" 0 p.Stat.ps_final;
  (* stddev of a 0/1 signal with mean .4: sqrt(.4 - .16) = sqrt(.24) *)
  Testutil.check_close ~tolerance:1e-9 "p stddev" (sqrt 0.24) p.Stat.ps_stddev;
  let q = Stat.place r "q" in
  Testutil.check_close "q avg" 1.2 q.Stat.ps_avg;
  Alcotest.(check int) "q max" 2 q.Stat.ps_max;
  (* E[q^2] = 4 * 0.6 = 2.4; var = 2.4 - 1.44 = 0.96 *)
  Testutil.check_close "q stddev" (sqrt 0.96) q.Stat.ps_stddev

let test_transition_statistics () =
  let r = Stat.of_trace (simple_trace ()) in
  let t = Stat.transition r "t" in
  Testutil.check_close "avg concurrency" 0.2 t.Stat.ts_avg;
  Alcotest.(check int) "max concurrency" 1 t.Stat.ts_max;
  Alcotest.(check int) "starts" 1 t.Stat.ts_starts;
  Alcotest.(check int) "ends" 1 t.Stat.ts_ends;
  Testutil.check_close "throughput" 0.1 t.Stat.ts_throughput

let test_lookup_missing () =
  let r = Stat.of_trace (simple_trace ()) in
  Alcotest.check_raises "no such place" Not_found (fun () ->
      ignore (Stat.place r "nope"));
  Alcotest.check_raises "no such transition" Not_found (fun () ->
      ignore (Stat.transition r "nope"))

let test_utilization_and_throughput_helpers () =
  let r = Stat.of_trace (simple_trace ()) in
  Testutil.check_close "utilization" 0.4 (Stat.utilization r "p");
  Testutil.check_close "throughput helper" 0.1 (Stat.throughput r "t")

let test_incomplete_raises () =
  let sink, get = Stat.sink () in
  sink.Trace.on_header header;
  Alcotest.check_raises "not finished"
    (Invalid_argument "Stat: trace not finished") (fun () -> ignore (get ()))

let test_zero_length_run () =
  let tr = Trace.make header [] 0.0 in
  let r = Stat.of_trace tr in
  Alcotest.(check (float 0.0)) "zero length" 0.0 r.Stat.length;
  Alcotest.(check (float 0.0)) "no div-by-zero" 0.0 (Stat.utilization r "p")

let test_concurrent_firings () =
  (* two overlapping firings: concurrency 2 during [1,2) *)
  let tr =
    Trace.make header
      [
        delta 0.0 Trace.Fire_start [];
        delta 1.0 Trace.Fire_start [];
        delta 2.0 Trace.Fire_end [];
        delta 3.0 Trace.Fire_end [];
      ]
      4.0
  in
  let t = Stat.transition (Stat.of_trace tr) "t" in
  Alcotest.(check int) "max 2" 2 t.Stat.ts_max;
  (* 1 during [0,1), 2 during [1,2), 1 during [2,3), 0 during [3,4) -> 1.0 *)
  Testutil.check_close "avg 1.0" 1.0 t.Stat.ts_avg;
  Testutil.check_close "throughput 0.5" 0.5 t.Stat.ts_throughput

let test_render_layout () =
  let r = Stat.of_trace ~run:1 (simple_trace ()) in
  let text = Stat.render r in
  List.iter
    (fun needle -> Testutil.check_contains "report" text needle)
    [
      "RUN STATISTICS"; "EVENT STATISTICS"; "PLACE STATISTICS";
      "Run number"; "Length of Simulation 10"; "Events started       1";
      "Throughput"; "Min/Max";
    ]

let test_render_golden () =
  (* the exact Figure-5 layout on a fixed synthetic trace: format
     stability matters for downstream text-processing (the paper pipes
     stat output into tbl/troff) *)
  let r = Stat.of_trace ~run:1 (simple_trace ()) in
  let expected =
    String.concat "\n"
      [
        "RUN STATISTICS";
        "Run number           1";
        "Initial clock value  0";
        "Length of Simulation 10";
        "Events started       1";
        "Events finished      1";
        "";
        "EVENT STATISTICS";
        "Run number 1";
        "Transition  Min/Max  Avg     Standard  Starts  Throughput";
        "t               0/1  0.2000    0.4000     1/1      0.1000";
        "";
        "PLACE STATISTICS";
        "Run number 1";
        "Place  Min/Max  Avg     Standard";
        "p          0/1  0.4000    0.4899";
        "q          0/2  1.2000    0.9798";
        "";
      ]
  in
  Alcotest.(check string) "exact layout" expected (Stat.render r)

let test_render_tsv () =
  let r = Stat.of_trace (simple_trace ()) in
  let tsv = Stat.render_tsv r in
  Testutil.check_contains "tsv transition line" tsv "transition\tt\t";
  Testutil.check_contains "tsv place line" tsv "place\tp\t";
  (* every line has a stable field count *)
  String.split_on_char '\n' tsv
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun line ->
         let fields = List.length (String.split_on_char '\t' line) in
         Alcotest.(check bool) "field count" true (fields >= 7))

let test_time_regression_rejected () =
  (* regression: decreasing timestamps used to be silently skipped,
     quietly corrupting every time-weighted average *)
  let tr =
    Trace.make header
      [ delta 5.0 Trace.Fire_start []; delta 3.0 Trace.Fire_end [] ]
      10.0
  in
  (match Stat.of_trace tr with
  | _ -> Alcotest.fail "expected a time-regression rejection"
  | exception Invalid_argument msg ->
    Testutil.check_contains "offending time and previous clock" msg
      "delta at 3 after clock 5";
    Testutil.check_contains "message" msg "went backwards");
  (* equal timestamps (simultaneous events) remain fine *)
  let ok =
    Trace.make header
      [ delta 2.0 Trace.Fire_start []; delta 2.0 Trace.Fire_end [] ]
      10.0
  in
  Alcotest.(check int) "simultaneous ok" 1 (Stat.of_trace ok).Stat.events_started

let test_streaming_matches_materialized () =
  (* the Figure-5 trace, consumed once through the streaming sink and
     once materialized: reports must be byte-identical *)
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let sink, get = Stat.sink () in
  let _ = Pnut_sim.Simulator.simulate ~seed:42 ~until:10000.0 ~sink net in
  let streamed = get () in
  let tr, _ = Pnut_sim.Simulator.trace ~seed:42 ~until:10000.0 net in
  let materialized = Stat.of_trace tr in
  Alcotest.(check string) "identical reports" (Stat.render_tsv materialized)
    (Stat.render_tsv streamed);
  (* and through a serialized round trip in each codec *)
  let from_text = Stat.of_trace (Pnut_trace.Codec.parse (Pnut_trace.Codec.to_string tr)) in
  let from_bin = Stat.of_trace (Pnut_trace.Binary.parse (Pnut_trace.Binary.to_string tr)) in
  Alcotest.(check string) "text codec preserves stats"
    (Stat.render_tsv materialized) (Stat.render_tsv from_text);
  Alcotest.(check string) "binary codec preserves stats"
    (Stat.render_tsv materialized) (Stat.render_tsv from_bin)

(* property: place averages always lie within [min, max] *)
let prop_avg_bounded =
  QCheck2.Test.make ~name:"avg within min/max" ~count:50
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
      let sink, get = Stat.sink () in
      let _ = Pnut_sim.Simulator.simulate ~seed ~until:200.0 ~sink net in
      let r = get () in
      Array.for_all
        (fun p ->
          p.Stat.ps_avg >= float_of_int p.Stat.ps_min -. 1e-9
          && p.Stat.ps_avg <= float_of_int p.Stat.ps_max +. 1e-9
          && p.Stat.ps_stddev >= 0.0)
        r.Stat.places
      && Array.for_all
           (fun t ->
             t.Stat.ts_starts >= t.Stat.ts_ends
             && t.Stat.ts_avg >= float_of_int t.Stat.ts_min -. 1e-9
             && t.Stat.ts_avg <= float_of_int t.Stat.ts_max +. 1e-9)
           r.Stat.transitions)

let () =
  Alcotest.run "stat"
    [
      ( "unit",
        [
          Alcotest.test_case "run statistics" `Quick test_run_statistics;
          Alcotest.test_case "place averages" `Quick test_place_averages;
          Alcotest.test_case "transition statistics" `Quick test_transition_statistics;
          Alcotest.test_case "missing lookups" `Quick test_lookup_missing;
          Alcotest.test_case "helpers" `Quick test_utilization_and_throughput_helpers;
          Alcotest.test_case "incomplete trace" `Quick test_incomplete_raises;
          Alcotest.test_case "zero-length run" `Quick test_zero_length_run;
          Alcotest.test_case "concurrent firings" `Quick test_concurrent_firings;
          Alcotest.test_case "report layout" `Quick test_render_layout;
          Alcotest.test_case "golden format" `Quick test_render_golden;
          Alcotest.test_case "tsv layout" `Quick test_render_tsv;
          Alcotest.test_case "time regression rejected" `Quick
            test_time_regression_rejected;
          Alcotest.test_case "streaming = materialized" `Quick
            test_streaming_matches_materialized;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_avg_bounded ]);
    ]
