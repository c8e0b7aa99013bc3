(* Tests for tracertool signals (probe extraction) and the waveform
   renderer. *)

module Trace = Pnut_trace.Trace
module Signal = Pnut_tracer.Signal
module Waveform = Pnut_tracer.Waveform
module Expr = Pnut_core.Expr
module Value = Pnut_core.Value

let header =
  {
    Trace.h_net = "sig";
    h_places = [| "p"; "q" |];
    h_transitions = [| "t" |];
    h_initial = [| 1; 0 |];
    h_variables = [ ("level", Value.Int 5) ];
  }

let delta time kind marking env =
  {
    Trace.d_time = time;
    d_kind = kind;
    d_transition = 0;
    d_firing = 0;
    d_marking = marking;
    d_env = env;
  }

(* p: 1 on [0,2), 0 on [2,6), 3 on [6,10]
   t: in flight on [2,6)
   level: 5 then 9 from t=6 *)
let tr =
  Trace.make header
    [
      delta 2.0 Trace.Fire_start [ (0, -1) ] [];
      delta 6.0 Trace.Fire_end [ (0, 3); (1, 1) ] [ ("level", Value.Int 9) ];
    ]
    10.0

let series_of signal =
  match Signal.sample tr [ signal ] with
  | [ (_, s) ] -> s
  | _ -> Alcotest.fail "expected one series"

let test_place_signal () =
  let s = series_of (Signal.Place "p") in
  Alcotest.(check (array (float 0.0))) "breakpoint times" [| 0.0; 2.0; 6.0 |]
    s.Signal.times;
  Alcotest.(check (array (float 0.0))) "values" [| 1.0; 0.0; 3.0 |] s.Signal.values;
  Alcotest.(check (float 0.0)) "t_end" 10.0 s.Signal.t_end

let test_transition_signal () =
  let s = series_of (Signal.Transition "t") in
  Alcotest.(check (float 0.0)) "before" 0.0 (Signal.value_at s 1.0);
  Alcotest.(check (float 0.0)) "during" 1.0 (Signal.value_at s 4.0);
  Alcotest.(check (float 0.0)) "after" 0.0 (Signal.value_at s 8.0)

let test_var_signal () =
  let s = series_of (Signal.Var "level") in
  Alcotest.(check (float 0.0)) "initial" 5.0 (Signal.value_at s 0.0);
  Alcotest.(check (float 0.0)) "updated" 9.0 (Signal.value_at s 7.0)

let test_fun_signal () =
  (* sum of a place and a transition activity, the paper's user-defined
     function use case *)
  let f = Signal.Fun ("combo", Expr.(var "p" + var "t" * int 10)) in
  let s = series_of f in
  Alcotest.(check (float 0.0)) "at 0: p=1,t=0" 1.0 (Signal.value_at s 0.0);
  Alcotest.(check (float 0.0)) "at 4: p=0,t=1" 10.0 (Signal.value_at s 4.0);
  Alcotest.(check (float 0.0)) "at 8: p=3,t=0" 3.0 (Signal.value_at s 8.0)

let test_fun_resolution_order () =
  (* a variable shadowed by no place/transition resolves as a variable *)
  let s = series_of (Signal.Fun ("lvl", Expr.var "level")) in
  Alcotest.(check (float 0.0)) "var resolved" 5.0 (Signal.value_at s 0.0)

let test_unknown_signal () =
  Alcotest.check_raises "unknown"
    (Invalid_argument
       "signal \"ghost\": no place, transition or variable of that name")
    (fun () -> ignore (Signal.sample tr [ Signal.Place "ghost" ]));
  (* an expression that fails or yields a boolean names its signal *)
  List.iter
    (fun (e, msg) ->
      Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
          ignore (Signal.sample tr [ Signal.Fun ("f", e) ])))
    [ (Expr.(var "level" + bool true),
       "signal \"level + true\": operator + applied to a boolean");
      (Expr.(var "level" > int 1),
       "signal \"level > 1\": expected number, got bool") ]

let test_value_at_interpolation_boundaries () =
  let s = series_of (Signal.Place "p") in
  Alcotest.(check (float 0.0)) "exactly at breakpoint" 0.0 (Signal.value_at s 2.0);
  Alcotest.(check (float 0.0)) "just before" 1.0 (Signal.value_at s 1.999);
  Alcotest.(check (float 0.0)) "past the end" 3.0 (Signal.value_at s 99.0)

let test_single_pass_multiple_signals () =
  let sampled =
    Signal.sample tr [ Signal.Place "p"; Signal.Place "q"; Signal.Transition "t" ]
  in
  Alcotest.(check int) "three series" 3 (List.length sampled);
  let labels = List.map (fun (sg, _) -> Signal.label sg) sampled in
  Alcotest.(check (list string)) "labels in order" [ "p"; "q"; "t" ] labels

let test_to_csv () =
  let text = Signal.to_csv tr [ Signal.Place "p"; Signal.Transition "t" ] in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  Alcotest.(check string) "header" "time,p,t" (List.hd lines);
  (* breakpoints at 0, 2, 6 plus the final time 10 *)
  Alcotest.(check int) "rows" 5 (List.length lines);
  Alcotest.(check bool) "t=2 row shows p=0, t=1" true
    (List.mem "2,0,1" lines);
  Alcotest.(check bool) "t=6 row shows p=3, t=0" true
    (List.mem "6,3,0" lines);
  Alcotest.(check bool) "final row at 10" true (List.mem "10,3,0" lines)

(* -- waveform rendering -- *)

let render ?(markers = []) signals =
  Waveform.render
    ~style:{ Waveform.default_style with width = 20 }
    ~markers tr signals

let test_waveform_binary_row () =
  let text = render [ Signal.Place "q" ] in
  (* q is 0 then 1 from t=6 (60% across): low then high *)
  Testutil.check_contains "waveform" text "q";
  Testutil.check_contains "low run" text "____";
  Testutil.check_contains "high run" text "####"

let test_waveform_counting_row () =
  let text = render [ Signal.Place "p" ] in
  (* p is 1 / 0 / 3: digits because values exceed 1 *)
  Testutil.check_contains "digit 1" text "1";
  Testutil.check_contains "digit 0" text "0";
  Testutil.check_contains "digit 3" text "3"

let test_waveform_pulse_visible () =
  (* a one-instant pulse at t=2 must not vanish: column max is plotted *)
  let pulse_tr =
    Trace.make header
      [
        delta 2.0 Trace.Fire_start [ (1, 1) ] [];
        delta 2.0 Trace.Fire_end [ (1, -1) ] [];
      ]
      10.0
  in
  let text =
    Waveform.render
      ~style:{ Waveform.default_style with width = 20 }
      pulse_tr
      [ Signal.Place "q" ]
  in
  Testutil.check_contains "pulse shows" text "#"

let test_waveform_markers () =
  let markers =
    [ { Waveform.m_label = "O"; m_time = 2.0 }; { m_label = "X"; m_time = 8.0 } ]
  in
  let text = render ~markers [ Signal.Place "q" ] in
  Testutil.check_contains "marker O" text "O";
  Testutil.check_contains "marker X" text "X";
  Testutil.check_contains "interval readout" text "O <-> X : 6"

let test_marker_interval () =
  let a = { Waveform.m_label = "a"; m_time = 3.0 } in
  let b = { Waveform.m_label = "b"; m_time = 7.5 } in
  Alcotest.(check (float 0.0)) "interval" 4.5 (Waveform.interval a b);
  Alcotest.(check (float 0.0)) "symmetric" 4.5 (Waveform.interval b a)

let test_waveform_window () =
  let text =
    Waveform.render
      ~style:{ Waveform.default_style with width = 10 }
      ~from_time:6.0 ~to_time:10.0 tr [ Signal.Place "q" ]
  in
  (* q is high for the whole window *)
  Testutil.check_contains "all high" text "##########"

let test_waveform_empty_window_rejected () =
  Alcotest.check_raises "empty window"
    (Invalid_argument "Waveform.render: empty time window") (fun () ->
      ignore
        (Waveform.render ~from_time:5.0 ~to_time:5.0 tr [ Signal.Place "p" ]))

let test_waveform_scale_line () =
  let text = render [ Signal.Place "p" ] in
  Testutil.check_contains "time axis" text "time";
  Testutil.check_contains "origin tick" text "0"

let test_figure7_shape () =
  (* the Figure-7 display: bus, its three-way breakdown, the execution
     transitions, a summed user function, and the buffer level *)
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let trace, _ = Pnut_sim.Simulator.trace ~seed:11 ~until:200.0 net in
  let exec_sum =
    Signal.Fun
      ( "all_exec",
        List.fold_left
          (fun acc name -> Expr.(acc + var name))
          (Expr.int 0)
          (Pnut_pipeline.Model.exec_transition_names Pnut_pipeline.Config.default)
      )
  in
  let signals =
    [ Signal.Place "Bus_busy"; Signal.Place "pre_fetching";
      Signal.Place "fetching"; Signal.Place "storing"; exec_sum;
      Signal.Place "Empty_I_buffers" ]
  in
  let text = Waveform.render ~from_time:0.0 ~to_time:150.0 trace signals in
  let lines = String.split_on_char '\n' text in
  Alcotest.(check bool) "at least 6 signal rows + axis" true
    (List.length lines >= 8);
  Testutil.check_contains "bus row" text "Bus_busy";
  Testutil.check_contains "function row" text "all_exec"

let () =
  Alcotest.run "signal-waveform"
    [
      ( "signals",
        [
          Alcotest.test_case "place" `Quick test_place_signal;
          Alcotest.test_case "transition" `Quick test_transition_signal;
          Alcotest.test_case "variable" `Quick test_var_signal;
          Alcotest.test_case "user function" `Quick test_fun_signal;
          Alcotest.test_case "resolution order" `Quick test_fun_resolution_order;
          Alcotest.test_case "unknown" `Quick test_unknown_signal;
          Alcotest.test_case "value_at boundaries" `Quick
            test_value_at_interpolation_boundaries;
          Alcotest.test_case "multi-signal pass" `Quick
            test_single_pass_multiple_signals;
          Alcotest.test_case "csv export" `Quick test_to_csv;
        ] );
      ( "waveform",
        [
          Alcotest.test_case "binary row" `Quick test_waveform_binary_row;
          Alcotest.test_case "counting row" `Quick test_waveform_counting_row;
          Alcotest.test_case "pulse visible" `Quick test_waveform_pulse_visible;
          Alcotest.test_case "markers" `Quick test_waveform_markers;
          Alcotest.test_case "marker interval" `Quick test_marker_interval;
          Alcotest.test_case "window" `Quick test_waveform_window;
          Alcotest.test_case "empty window" `Quick test_waveform_empty_window_rejected;
          Alcotest.test_case "scale line" `Quick test_waveform_scale_line;
          Alcotest.test_case "figure 7 shape" `Quick test_figure7_shape;
        ] );
    ]
