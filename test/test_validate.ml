(* Tests for the static model checker. *)

module Net = Pnut_core.Net
module Validate = Pnut_core.Validate
module Expr = Pnut_core.Expr
module Value = Pnut_core.Value
module B = Net.Builder

let messages diags = List.map (fun d -> d.Validate.message) diags

let has_message diags fragment =
  List.exists
    (fun d -> Testutil.contains d.Validate.message fragment)
    diags

let test_clean_net () =
  let b = B.create "clean" in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  let _ = B.add_transition b "t" ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ] in
  let _ = B.add_transition b "u" ~inputs:[ (q, 1) ] ~outputs:[ (p, 1) ] in
  let net = B.build b in
  Alcotest.(check (list string)) "no diagnostics" [] (messages (Validate.check net));
  Validate.assert_valid net

let test_unguarded_transition () =
  let b = B.create "wild" in
  let p = B.add_place b "p" in
  let _ = B.add_transition b "spawn" ~outputs:[ (p, 1) ] in
  let _ = B.add_transition b "drain" ~inputs:[ (p, 1) ] in
  let net = B.build b in
  let diags = Validate.check net in
  Alcotest.(check bool) "always-enabled warning" true
    (has_message diags "always");
  (* warnings do not fail assert_valid *)
  Validate.assert_valid net

let test_dead_input_place () =
  let b = B.create "dead" in
  let p = B.add_place b "never_fed" in
  let _ = B.add_transition b "t" ~inputs:[ (p, 1) ] in
  let net = B.build b in
  Alcotest.(check bool) "dead consumers flagged" true
    (has_message (Validate.check net) "never marked")

let test_write_only_place () =
  let b = B.create "wo" in
  let src = B.add_place b "src" ~initial:1 in
  let sink_p = B.add_place b "sink" in
  let _ = B.add_transition b "t" ~inputs:[ (src, 1) ] ~outputs:[ (sink_p, 1) ] in
  let net = B.build b in
  Alcotest.(check bool) "write-only flagged" true
    (has_message (Validate.check net) "never read")

let test_isolated_place () =
  let b = B.create "iso" in
  let _ = B.add_place b "lonely" in
  let p = B.add_place b "p" ~initial:1 in
  let _ = B.add_transition b "t" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1) ] in
  let net = B.build b in
  Alcotest.(check bool) "isolated flagged" true
    (has_message (Validate.check net) "not connected")

let test_unbound_variable_in_predicate () =
  let b = B.create "unbound" in
  let p = B.add_place b "p" ~initial:1 in
  let _ =
    B.add_transition b "t" ~inputs:[ (p, 1) ] ~predicate:(Expr.var "ghost")
  in
  let net = B.build b in
  let diags = Validate.check net in
  Alcotest.(check bool) "unbound var is an error" true
    (Validate.errors diags <> []);
  Alcotest.(check bool) "names the variable" true
    (has_message diags "unbound variable ghost");
  Alcotest.check_raises "assert_valid raises"
    (Invalid_argument "error: t: predicate refers to unbound variable ghost") (fun () ->
      Validate.assert_valid net)

let test_unbound_table_in_action () =
  let b = B.create "tbl" ~variables:[ ("n", Value.Int 0) ] in
  let p = B.add_place b "p" ~initial:1 in
  let _ =
    B.add_transition b "t" ~inputs:[ (p, 1) ]
      ~action:[ Expr.Table_assign ("ghost", Expr.int 0, Expr.var "n") ]
  in
  let net = B.build b in
  Alcotest.(check bool) "unbound table flagged" true
    (has_message (Validate.check net) "unbound table ghost")

let test_bad_durations () =
  let b = B.create "durations" in
  let p = B.add_place b "p" ~initial:1 in
  let _ =
    B.add_transition b "bad_uniform" ~inputs:[ (p, 1) ]
      ~firing:(Net.Uniform (5.0, 1.0))
  in
  let _ =
    B.add_transition b "bad_exp" ~inputs:[ (p, 1) ]
      ~enabling:(Net.Exponential 0.0)
  in
  let _ =
    B.add_transition b "bad_choice" ~inputs:[ (p, 1) ]
      ~firing:(Net.Choice [ (1.0, 0.0) ])
  in
  let net = B.build b in
  let diags = Validate.check net in
  Alcotest.(check bool) "uniform range" true (has_message diags "invalid uniform");
  Alcotest.(check bool) "exponential mean" true
    (has_message diags "non-positive exponential mean");
  Alcotest.(check bool) "choice weight" true (has_message diags "not positive")

let test_errors_sorted_first () =
  let b = B.create "mixed" in
  let p = B.add_place b "lonely" in
  let q = B.add_place b "q" ~initial:1 in
  let _ =
    B.add_transition b "t" ~inputs:[ (q, 1) ] ~predicate:(Expr.var "ghost")
  in
  ignore p;
  let net = B.build b in
  match Validate.check net with
  | first :: _ ->
    Alcotest.(check bool) "error first" true (first.Validate.severity = Validate.Error)
  | [] -> Alcotest.fail "expected diagnostics"

let test_pipeline_model_is_clean () =
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let diags = Validate.check net in
  Alcotest.(check (list string)) "no errors" [] (messages (Validate.errors diags));
  Alcotest.(check (list string)) "no warnings" []
    (messages (Validate.warnings diags))

let () =
  Alcotest.run "validate"
    [
      ( "checks",
        [
          Alcotest.test_case "clean net" `Quick test_clean_net;
          Alcotest.test_case "always-enabled" `Quick test_unguarded_transition;
          Alcotest.test_case "dead input" `Quick test_dead_input_place;
          Alcotest.test_case "write-only" `Quick test_write_only_place;
          Alcotest.test_case "isolated" `Quick test_isolated_place;
          Alcotest.test_case "unbound predicate var" `Quick
            test_unbound_variable_in_predicate;
          Alcotest.test_case "unbound action table" `Quick
            test_unbound_table_in_action;
          Alcotest.test_case "bad durations" `Quick test_bad_durations;
          Alcotest.test_case "errors first" `Quick test_errors_sorted_first;
          Alcotest.test_case "pipeline model clean" `Quick
            test_pipeline_model_is_clean;
        ] );
    ]
