(* Tests for the trace verification queries (Section 4.4). *)

module Trace = Pnut_trace.Trace
module Query = Pnut_tracer.Query
module Expr = Pnut_core.Expr
module Value = Pnut_core.Value

let header =
  {
    Trace.h_net = "q";
    h_places = [| "busy"; "free" |];
    h_transitions = [| "work" |];
    h_initial = [| 0; 1 |];
    h_variables = [ ("n", Value.Int 0) ];
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

(* states: #0 free, #1 busy, #2 free, #3 busy (ends busy; n counts) *)
let tr =
  Trace.make header
    [
      delta 1.0 Trace.Fire_start [ (0, 1); (1, -1) ] [ ("n", Value.Int 1) ];
      delta 2.0 Trace.Fire_end [ (0, -1); (1, 1) ] [];
      delta 3.0 Trace.Fire_start [ (0, 1); (1, -1) ] [ ("n", Value.Int 2) ];
    ]
    5.0

let atom s = Query.Atom (Pnut_lang.Parser.parse_expr s)

let eval q = Query.eval tr q

let test_forall_invariant_holds () =
  let q = Query.Forall (Query.whole, atom "busy + free == 1") in
  Alcotest.(check bool) "one-hot invariant" true (Query.holds (eval q))

let test_forall_counterexample_index () =
  let q = Query.Forall (Query.whole, atom "free == 1") in
  match eval q with
  | Query.Fails (Some 1) -> ()
  | r ->
    Alcotest.failf "expected failure at state 1, got %s"
      (Format.asprintf "%a" Query.pp_result r)

let test_exists_witness () =
  let q = Query.Exists (Query.whole, atom "n == 2") in
  match eval q with
  | Query.Holds (Some 3) -> ()
  | r -> Alcotest.failf "expected witness 3, got %s" (Format.asprintf "%a" Query.pp_result r)

let test_exists_fails () =
  let q = Query.Exists (Query.whole, atom "n == 99") in
  Alcotest.(check bool) "no witness" false (Query.holds (eval q))

let test_domain_exclusion () =
  (* free == 1 holds at #0 and #2; excluding both leaves only busy states *)
  let d = { Query.except = [ 0; 2 ]; such_that = None } in
  let q = Query.Exists (d, atom "free == 1") in
  Alcotest.(check bool) "excluded" false (Query.holds (eval q));
  let q2 = Query.Forall (d, atom "busy == 1") in
  Alcotest.(check bool) "remaining all busy" true (Query.holds (eval q2))

let test_domain_filter () =
  (* over busy states only, n >= 1 *)
  let d = { Query.except = []; such_that = Some (atom "busy == 1") } in
  let q = Query.Forall (d, atom "n >= 1") in
  Alcotest.(check bool) "filtered forall" true (Query.holds (eval q))

let test_vacuous_forall () =
  let d = { Query.except = []; such_that = Some (atom "n == 99") } in
  match eval (Query.Forall (d, atom "true")) with
  | Query.Vacuous -> ()
  | r -> Alcotest.failf "expected vacuous, got %s" (Format.asprintf "%a" Query.pp_result r)

let test_inev () =
  (* from every busy state, eventually free: fails because the trace
     ends busy *)
  let d = { Query.except = []; such_that = Some (atom "busy == 1") } in
  let q = Query.Forall (d, Query.Inev (atom "free == 1")) in
  Alcotest.(check bool) "last busy state never freed" false (Query.holds (eval q));
  (* but from state #1 specifically it does hold: restrict via except *)
  let d13 = { Query.except = [ 3 ]; such_that = Some (atom "busy == 1") } in
  let q2 = Query.Forall (d13, Query.Inev (atom "free == 1")) in
  Alcotest.(check bool) "earlier busy states freed" true (Query.holds (eval q2))

let test_inev_includes_present () =
  (* inev is reflexive: a state satisfying the target satisfies inev *)
  let q = Query.Forall (Query.whole, Query.Inev (atom "busy == 1")) in
  Alcotest.(check bool) "eventually busy from everywhere" true
    (Query.holds (eval q))

let test_alw () =
  (* from state #2 on, n >= 1 always *)
  let d = { Query.except = [ 0; 1 ]; such_that = None } in
  let q = Query.Forall (d, Query.Alw (atom "n >= 1")) in
  Alcotest.(check bool) "henceforth" true (Query.holds (eval q));
  let q2 = Query.Forall (Query.whole, Query.Alw (atom "n >= 1")) in
  Alcotest.(check bool) "fails from #0" false (Query.holds (eval q2))

let test_connectives () =
  let f =
    Query.And
      ( Query.Or (atom "busy == 1", atom "free == 1"),
        Query.Not (Query.And (atom "busy == 1", atom "free == 1")) )
  in
  Alcotest.(check bool) "xor via and/or/not" true
    (Query.holds (eval (Query.Forall (Query.whole, f))));
  let imp = Query.Implies (atom "n >= 2", atom "busy == 1") in
  Alcotest.(check bool) "implication" true
    (Query.holds (eval (Query.Forall (Query.whole, imp))))

let test_eval_formula_single_state () =
  Alcotest.(check bool) "at #0" true
    (Query.eval_formula tr (atom "free == 1") 0);
  Alcotest.(check bool) "at #1" false
    (Query.eval_formula tr (atom "free == 1") 1);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Query.eval_formula: state index out of range")
    (fun () -> ignore (Query.eval_formula tr (atom "true") 99))

let test_unknown_identifier () =
  (match eval (Query.Forall (Query.whole, atom "ghost > 0")) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Testutil.check_contains "message" msg "unknown identifier ghost")

let test_non_boolean_atom () =
  (match eval (Query.Forall (Query.whole, atom "busy + 1")) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Testutil.check_contains "message" msg "not boolean");
  (* a type error inside the atom is bad input too *)
  Alcotest.check_raises "ill-typed"
    (Invalid_argument "cannot order boolean values") (fun () ->
      ignore (eval (Query.Forall (Query.whole, atom "busy < true"))))

let test_transition_activity_in_query () =
  (* 'work' is in flight at states #1 and #3 *)
  let q = Query.Exists (Query.whole, atom "work > 0") in
  (match eval q with
  | Query.Holds (Some 1) -> ()
  | r -> Alcotest.failf "expected witness 1, got %s" (Format.asprintf "%a" Query.pp_result r))

(* paper's queries verbatim against a real pipeline run *)
let test_paper_queries_on_pipeline () =
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let trace, _ = Pnut_sim.Simulator.trace ~seed:42 ~until:2000.0 net in
  let run q = Query.holds (Query.eval trace (Pnut_lang.Parser.parse_query q)) in
  Alcotest.(check bool) "bus one-hot" true
    (run "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]");
  Alcotest.(check bool) "buffer empty after start" true
    (run "exists s in (S - {#0}) [ Empty_I_buffers(s) = 6 ]");
  Alcotest.(check bool) "decoder one-hot with pipeline stages" true
    (run
       "forall s in S [ Decoder_ready(s) + Decoded_instruction(s) + \
        T2_addr_calc(s) + T3_addr_calc(s) + T2_operands_outstanding(s) + \
        T3_operands_outstanding(s) + ready_to_issue_instruction(s) + \
        Decode(s) + calc_eaddr_1(s) + calc_eaddr_2(s) <= 1 ]")

let test_name_shadowing () =
  (* [a] names a place, a transition and a variable; [b] a transition
     and a variable; [c] only a variable.  A place shadows a transition,
     which shadows a variable — in queries and in signal functions alike.
     The one delta starts transition [b]. *)
  let tr =
    Trace.make
      {
        Trace.h_net = "shadow";
        h_places = [| "a" |];
        h_transitions = [| "a"; "b" |];
        h_initial = [| 5 |];
        h_variables =
          [ ("a", Value.Int 100); ("b", Value.Int 200); ("c", Value.Int 7) ];
      }
      [ { (delta 1.0 Trace.Fire_start [] []) with Trace.d_transition = 1 } ]
      2.0
  in
  let holds s =
    Query.holds (Query.eval tr (Query.Forall (Query.whole, atom s)))
  in
  Alcotest.(check bool) "a is the place" true (holds "a == 5");
  Alcotest.(check bool) "b is the transition" true
    (Query.eval tr (Query.Exists (Query.whole, atom "b == 1"))
     = Query.Holds (Some 1));
  Alcotest.(check bool) "b is never the variable" false
    (Query.holds (Query.eval tr (Query.Exists (Query.whole, atom "b == 200"))));
  Alcotest.(check bool) "c is the variable" true (holds "c == 7");
  let module Signal = Pnut_tracer.Signal in
  let values sg =
    let s = List.assoc sg (Signal.sample tr [ sg ]) in
    Array.to_list s.Signal.values
  in
  Alcotest.(check (list (float 0.0))) "function" [ 507.0; 517.0 ]
    (values
       (Signal.Fun ("f", Pnut_lang.Parser.parse_expr "a * 100 + b * 10 + c")));
  Alcotest.(check (list (float 0.0))) "explicit place" [ 5.0 ]
    (values (Signal.Place "a"));
  Alcotest.(check (list (float 0.0))) "explicit transition" [ 0.0 ]
    (values (Signal.Transition "a"));
  Alcotest.(check (list (float 0.0))) "explicit variable" [ 100.0 ]
    (values (Signal.Var "a"))

let () =
  Alcotest.run "query"
    [
      ( "quantifiers",
        [
          Alcotest.test_case "forall holds" `Quick test_forall_invariant_holds;
          Alcotest.test_case "forall counterexample" `Quick
            test_forall_counterexample_index;
          Alcotest.test_case "exists witness" `Quick test_exists_witness;
          Alcotest.test_case "exists fails" `Quick test_exists_fails;
          Alcotest.test_case "domain exclusion" `Quick test_domain_exclusion;
          Alcotest.test_case "domain filter" `Quick test_domain_filter;
          Alcotest.test_case "vacuous forall" `Quick test_vacuous_forall;
        ] );
      ( "temporal",
        [
          Alcotest.test_case "inev" `Quick test_inev;
          Alcotest.test_case "inev reflexive" `Quick test_inev_includes_present;
          Alcotest.test_case "alw" `Quick test_alw;
        ] );
      ( "formulas",
        [
          Alcotest.test_case "connectives" `Quick test_connectives;
          Alcotest.test_case "single state" `Quick test_eval_formula_single_state;
          Alcotest.test_case "unknown identifier" `Quick test_unknown_identifier;
          Alcotest.test_case "non-boolean atom" `Quick test_non_boolean_atom;
          Alcotest.test_case "transition activity" `Quick
            test_transition_activity_in_query;
          Alcotest.test_case "name shadowing" `Quick test_name_shadowing;
        ] );
      ( "pipeline",
        [ Alcotest.test_case "paper queries" `Quick test_paper_queries_on_pipeline ]
      );
    ]
