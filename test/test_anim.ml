(* Tests for the textual animator. *)

module Net = Pnut_core.Net
module B = Net.Builder
module Trace = Pnut_trace.Trace
module Anim = Pnut_anim.Animator
module Sim = Pnut_sim.Simulator

let small_net () =
  let b = B.create "anim" in
  let p = B.add_place b "input" ~initial:2 in
  let q = B.add_place b "output" in
  let _ =
    B.add_transition b "move" ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ]
      ~firing:(Net.Const 1.0)
  in
  B.build b

let test_render_state () =
  let net = small_net () in
  let text = Anim.render_state net (Net.initial_marking net) in
  Testutil.check_contains "state" text "input";
  Testutil.check_contains "state" text "output";
  Testutil.check_contains "gauge" text "oo";
  Testutil.check_contains "count" text "[ 2]"

let test_render_state_restricted () =
  let net = small_net () in
  let text = Anim.render_state ~places:[ "output" ] net (Net.initial_marking net) in
  Testutil.check_contains "kept" text "output";
  Alcotest.(check bool) "input hidden" false (Testutil.contains text "input")

(* An unknown name is rejected when the sink is made, before any frame,
   even beside a known one: it used to be dropped silently, and a panel
   of only unknown names showed every place. *)
let test_unknown_places_rejected () =
  let net = small_net () in
  List.iter
    (fun places ->
      Alcotest.check_raises (String.concat "," places)
        (Invalid_argument "Animator: no place named ghost") (fun () ->
          ignore (Anim.sink ~places net (fun _ -> ()))))
    [ [ "ghost" ]; [ "ghost"; "output" ] ]

let test_frames_phases () =
  let net = small_net () in
  let trace, _ = Sim.trace ~until:10.0 net in
  let frames = Anim.frames net trace in
  (* each delta yields two frames (pre and post) *)
  Alcotest.(check int) "two frames per delta"
    (2 * Trace.length trace)
    (List.length frames);
  (match frames with
  | first :: second :: _ ->
    Alcotest.(check bool) "starts with consume" true
      (first.Anim.f_phase = Anim.Consume);
    Alcotest.(check bool) "then transit" true (second.Anim.f_phase = Anim.Transit);
    Testutil.check_contains "caption" first.Anim.f_caption "move";
    Testutil.check_contains "arrow" first.Anim.f_text "==> [ move ]"
  | _ -> Alcotest.fail "expected frames");
  (* the last frame of a completed firing shows the produce phase *)
  let last = List.nth frames (List.length frames - 1) in
  Alcotest.(check bool) "ends with produce" true (last.Anim.f_phase = Anim.Produce);
  Testutil.check_contains "deposit arrow" last.Anim.f_text "==> ( output )"

let test_frames_token_flow_markers () =
  let net = small_net () in
  let trace, _ = Sim.trace ~max_events:1 net in
  let frames = Anim.frames net trace in
  (* the consume frame highlights the source place *)
  match frames with
  | consume :: _ -> Testutil.check_contains "out marker" consume.Anim.f_text "<-"
  | [] -> Alcotest.fail "no frames"

let test_frames_reject_foreign_trace () =
  let net = small_net () in
  let other =
    let b = B.create "other" in
    let p = B.add_place b "different" ~initial:1 in
    let _ = B.add_transition b "t" ~inputs:[ (p, 1) ] in
    B.build b
  in
  let trace, _ = Sim.trace ~until:5.0 other in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Animator: trace does not match the net") (fun () ->
      ignore (Anim.frames net trace))

let test_play_writes_frames () =
  let net = small_net () in
  let trace, _ = Sim.trace ~max_events:2 net in
  let frames = Anim.frames net trace in
  let path = Filename.temp_file "pnut_anim" ".txt" in
  let oc = open_out path in
  Anim.play oc frames;
  close_out oc;
  let ic = open_in path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Testutil.check_contains "playback" contents "move";
  Testutil.check_contains "frame separator" contents "---"

let test_pipeline_animation_smoke () =
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let trace, _ = Sim.trace ~seed:5 ~max_events:20 net in
  let frames =
    Anim.frames ~places:[ "Bus_free"; "Bus_busy"; "Empty_I_buffers" ] net trace
  in
  Alcotest.(check bool) "frames produced" true (List.length frames > 10);
  List.iter
    (fun f ->
      Alcotest.(check bool) "time monotone" true (f.Anim.f_time >= 0.0);
      Testutil.check_contains "panel restricted" f.Anim.f_text "Bus_free")
    frames

let () =
  Alcotest.run "anim"
    [
      ( "render",
        [
          Alcotest.test_case "state panel" `Quick test_render_state;
          Alcotest.test_case "restricted panel" `Quick test_render_state_restricted;
          Alcotest.test_case "unknown places rejected" `Quick
            test_unknown_places_rejected;
        ] );
      ( "frames",
        [
          Alcotest.test_case "phases" `Quick test_frames_phases;
          Alcotest.test_case "token flow markers" `Quick
            test_frames_token_flow_markers;
          Alcotest.test_case "foreign trace rejected" `Quick
            test_frames_reject_foreign_trace;
          Alcotest.test_case "playback" `Quick test_play_writes_frames;
          Alcotest.test_case "pipeline smoke" `Quick test_pipeline_animation_smoke;
        ] );
    ]
