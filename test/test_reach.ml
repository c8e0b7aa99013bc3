(* Tests for untimed reachability graphs and their analyses. *)

module Net = Pnut_core.Net
module Expr = Pnut_core.Expr
module Value = Pnut_core.Value
module B = Net.Builder
module Graph = Pnut_reach.Graph

(* The bus cycle: two states, reversible, live. *)
let bus_net () =
  let b = B.create "bus" in
  let free = B.add_place b "free" ~initial:1 in
  let busy = B.add_place b "busy" in
  let _ = B.add_transition b "grab" ~inputs:[ (free, 1) ] ~outputs:[ (busy, 1) ] in
  let _ = B.add_transition b "release" ~inputs:[ (busy, 1) ] ~outputs:[ (free, 1) ] in
  B.build b

(* A net that terminates: token moves a -> b -> c and stops. *)
let terminating_net () =
  let b = B.create "line" in
  let a = B.add_place b "a" ~initial:1 in
  let bb = B.add_place b "b" in
  let c = B.add_place b "c" in
  let _ = B.add_transition b "ab" ~inputs:[ (a, 1) ] ~outputs:[ (bb, 1) ] in
  let _ = B.add_transition b "bc" ~inputs:[ (bb, 1) ] ~outputs:[ (c, 1) ] in
  B.build b

let test_bus_graph_shape () =
  let g = Graph.build (bus_net ()) in
  Alcotest.(check int) "two states" 2 (Graph.num_states g);
  Alcotest.(check int) "two edges" 2 (Graph.num_edges g);
  Alcotest.(check bool) "complete" true (Graph.complete g);
  Alcotest.(check int) "initial is 0" 0 (Graph.initial g);
  Alcotest.(check (list int)) "no deadlocks" [] (Graph.deadlocks g);
  Alcotest.(check bool) "safe" true (Graph.is_safe g);
  Alcotest.(check bool) "reversible" true (Graph.is_reversible g);
  Alcotest.(check (list int)) "no dead transitions" []
    (Graph.dead_transitions g)

let test_terminating_graph () =
  let g = Graph.build (terminating_net ()) in
  Alcotest.(check int) "three states" 3 (Graph.num_states g);
  Alcotest.(check (list int)) "final state deadlocked" [ 2 ] (Graph.deadlocks g);
  Alcotest.(check bool) "not reversible" false (Graph.is_reversible g)

let test_find_state_and_successors () =
  let net = bus_net () in
  let g = Graph.build net in
  (match Graph.find_state g [| 1; 0 |] with
  | Some 0 -> ()
  | other -> Alcotest.failf "expected state 0, got %s"
               (match other with None -> "none" | Some i -> string_of_int i));
  Alcotest.(check bool) "missing marking" true (Graph.find_state g [| 2; 2 |] = None);
  let succ = Graph.successors g 0 in
  Alcotest.(check int) "one successor" 1 (List.length succ);
  let e = List.hd succ in
  Alcotest.(check int) "via grab" (Net.transition_id net "grab") e.Graph.e_transition;
  Alcotest.(check int) "to state 1" 1 e.Graph.e_to;
  let pred = Graph.predecessors g 0 in
  Alcotest.(check int) "one predecessor" 1 (List.length pred)

let test_bounds () =
  let b = B.create "counterflow" in
  let p = B.add_place b "p" ~initial:3 in
  let q = B.add_place b "q" in
  let _ = B.add_transition b "move" ~inputs:[ (p, 1) ] ~outputs:[ (q, 2) ] in
  let net = B.build b in
  let g = Graph.build net in
  Alcotest.(check int) "p bound" 3 (Graph.bound g (Net.place_id net "p"));
  Alcotest.(check int) "q bound" 6 (Graph.bound g (Net.place_id net "q"));
  Alcotest.(check bool) "not safe" false (Graph.is_safe g)

let test_dead_transition_detected () =
  let b = B.create "deadtrans" in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "starved" in
  let _ = B.add_transition b "live" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1) ] in
  let dead = B.add_transition b "never" ~inputs:[ (q, 1) ] in
  let net = B.build b in
  let g = Graph.build net in
  Alcotest.(check (list int)) "dead listed" [ dead ] (Graph.dead_transitions g)

let test_truncation () =
  (* unbounded net: must hit the cap and flag incompleteness *)
  let b = B.create "unbounded" in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  let _ =
    B.add_transition b "pump" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1); (q, 1) ]
  in
  let net = B.build b in
  let g = Graph.build ~max_states:10 net in
  Alcotest.(check bool) "truncated" false (Graph.complete g);
  Alcotest.(check bool) "capped" true (Graph.num_states g <= 10)

let test_inhibitor_in_reachability () =
  (* t is blocked while p holds 2 tokens; drain fires first *)
  let b = B.create "inhib" in
  let p = B.add_place b "p" ~initial:2 in
  let q = B.add_place b "q" in
  let _ = B.add_transition b "t" ~inhibitors:[ (p, 2) ] ~outputs:[ (q, 1) ]
  and _ = B.add_transition b "drain" ~inputs:[ (p, 2) ] in
  let net = B.build b in
  let g = Graph.build ~max_states:100 net in
  (* from [2,0]: only drain enabled -> [0,0]; then t pumps q unboundedly *)
  let initial_succ = Graph.successors g 0 in
  Alcotest.(check int) "only drain initially" 1 (List.length initial_succ);
  Alcotest.(check int) "drain edge" (Net.transition_id net "drain")
    (List.hd initial_succ).Graph.e_transition;
  Alcotest.(check bool) "then unbounded" false (Graph.complete g)

let test_interpreted_state_includes_env () =
  (* a counter variable distinguishes otherwise-identical markings *)
  let b = B.create "counter" ~variables:[ ("n", Value.Int 0) ] in
  let p = B.add_place b "p" ~initial:1 in
  let _ =
    B.add_transition b "bump" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1) ]
      ~predicate:Expr.(var "n" < int 3)
      ~action:[ Expr.Assign ("n", Expr.(var "n" + int 1)) ]
  in
  let net = B.build b in
  let g = Graph.build net in
  (* states n=0..3 share the same marking but differ in env *)
  Alcotest.(check int) "four states" 4 (Graph.num_states g);
  Alcotest.(check (list int)) "terminates at n=3" [ 3 ] (Graph.deadlocks g);
  let final = Graph.state g 3 in
  Alcotest.(check bool) "env recorded" true
    (List.assoc "n" final.Graph.s_env = Value.Int 3)

let test_stochastic_action_rejected () =
  let b = B.create "rand" ~variables:[ ("x", Value.Int 0) ] in
  let p = B.add_place b "p" ~initial:1 in
  let _ =
    B.add_transition b "roll" ~inputs:[ (p, 1) ]
      ~action:[ Expr.Assign ("x", Expr.irand (Expr.int 0) (Expr.int 9)) ]
  in
  let net = B.build b in
  Alcotest.check_raises "irand rejected"
    (Invalid_argument
       "Reach.Graph.build: stochastic predicate/action on transitions: roll")
    (fun () -> ignore (Graph.build net))

let test_state_key_no_aliasing () =
  (* Adversarial variable names: after t1 the env is {a=1, b=2}, after
     t2 it is {"a=1;b"=2}.  Both render as the string "a=1;b=2;", so
     an explorer keyed on that rendering merged the two branches into
     one state; structural keys must keep them apart. *)
  let module Env = Pnut_core.Env in
  let e1 = Env.create () in
  Env.set e1 "a" (Value.Int 1);
  Env.set e1 "b" (Value.Int 2);
  let e2 = Env.create () in
  Env.set e2 "a=1;b" (Value.Int 2);
  Alcotest.(check bool) "but envs are distinct" false (Env.equal e1 e2);
  let b = B.create "alias" in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  let _ =
    B.add_transition b "t1" ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ]
      ~action:[ Expr.Assign ("a", Expr.int 1); Expr.Assign ("b", Expr.int 2) ]
  in
  let _ =
    B.add_transition b "t2" ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ]
      ~action:[ Expr.Assign ("a=1;b", Expr.int 2) ]
  in
  let g = Graph.build (B.build b) in
  Alcotest.(check int) "both branches kept" 3 (Graph.num_states g);
  Alcotest.(check (list int)) "two distinct deadlocks" [ 1; 2 ]
    (Graph.deadlocks g)

let test_truncation_boundary () =
  (* At the cap, edges to fresh states are dropped (and the graph is
     flagged incomplete) but edges into already-interned states are
     still recorded. *)
  let b = B.create "capped" in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  let _ =
    B.add_transition b "pump" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1); (q, 1) ]
  in
  let _ = B.add_transition b "noop" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1) ] in
  let net = B.build b in
  let g = Graph.build ~max_states:10 net in
  Alcotest.(check bool) "incomplete" false (Graph.complete g);
  Alcotest.(check int) "exactly at the cap" 10 (Graph.num_states g);
  (* pump edges i -> i+1 for i < 9 (the one leaving state 9 is dropped),
     plus a noop self-loop on every state, including the last *)
  Alcotest.(check int) "edges at the boundary" 19 (Graph.num_edges g);
  let last = Graph.successors g 9 in
  Alcotest.(check int) "self-loop kept at the cap" 1 (List.length last);
  Alcotest.(check int) "to itself" 9 (List.hd last).Graph.e_to

let test_pipeline_graph () =
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let g = Graph.build ~max_states:20000 net in
  Alcotest.(check bool) "complete" true (Graph.complete g);
  Alcotest.(check (list int)) "deadlock-free" [] (Graph.deadlocks g);
  Alcotest.(check bool) "reversible (pipeline can drain)" true
    (Graph.is_reversible g);
  Alcotest.(check (list int)) "all transitions live" []
    (Graph.dead_transitions g);
  (* the buffer bound is respected in every reachable state *)
  Alcotest.(check int) "buffer bounded by 6" 6
    (Graph.bound g (Net.place_id net "Full_I_buffers"))

let test_summary_rendering () =
  let g = Graph.build (terminating_net ()) in
  let text = Format.asprintf "%a" Graph.pp_summary g in
  Testutil.check_contains "summary" text "states: 3";
  Testutil.check_contains "summary" text "deadlocks: 1"

(* property: BFS construction is deterministic *)
let prop_deterministic_build =
  QCheck2.Test.make ~name:"graph construction deterministic" ~count:20
    QCheck2.Gen.(int_range 1 5)
    (fun tokens ->
      let make () =
        let b = B.create "det" in
        let p = B.add_place b "p" ~initial:tokens in
        let q = B.add_place b "q" in
        let _ = B.add_transition b "t" ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ] in
        let _ = B.add_transition b "u" ~inputs:[ (q, 2) ] ~outputs:[ (p, 1) ] in
        B.build b
      in
      let g1 = Graph.build (make ()) in
      let g2 = Graph.build (make ()) in
      Graph.num_states g1 = Graph.num_states g2
      && List.for_all2
           (fun (e1 : Graph.edge) e2 -> e1 = e2)
           (Graph.edges g1) (Graph.edges g2))

let () =
  Alcotest.run "reach"
    [
      ( "construction",
        [
          Alcotest.test_case "bus cycle" `Quick test_bus_graph_shape;
          Alcotest.test_case "terminating" `Quick test_terminating_graph;
          Alcotest.test_case "lookup and edges" `Quick test_find_state_and_successors;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "dead transitions" `Quick test_dead_transition_detected;
          Alcotest.test_case "truncation" `Quick test_truncation;
          Alcotest.test_case "inhibitors" `Quick test_inhibitor_in_reachability;
          Alcotest.test_case "interpreted env state" `Quick
            test_interpreted_state_includes_env;
          Alcotest.test_case "stochastic rejected" `Quick
            test_stochastic_action_rejected;
          Alcotest.test_case "no state-key aliasing" `Quick
            test_state_key_no_aliasing;
          Alcotest.test_case "truncation boundary" `Quick
            test_truncation_boundary;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "pipeline graph" `Slow test_pipeline_graph;
          Alcotest.test_case "summary" `Quick test_summary_rendering;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_deterministic_build ]);
    ]
