(* The determinism contract: every parallel entry point returns
   bit-identical results for every [jobs] value, and the serial
   reachability builders produce the same graph on every build — the
   untimed one also the same graph as the frozen boxed builder. *)

module Net = Pnut_core.Net
module Value = Pnut_core.Value
module Expr = Pnut_core.Expr
module B = Net.Builder
module Graph = Pnut_reach.Graph
module Timed = Pnut_reach.Timed
module Boxed = Pnut_oracle.Boxed_graph
module Stat = Pnut_stat.Stat
module Replication = Pnut_stat.Replication

let pipeline () = Pnut_pipeline.Model.full Pnut_pipeline.Config.default

(* A deterministic interpreted net: variables and a table influence both
   a predicate and actions, so states differ in env as well as in
   marking. *)
let interpreted_net () =
  let b =
    B.create "interp"
      ~variables:[ ("n", Value.Int 0); ("mode", Value.Int 0) ]
      ~tables:[ ("hist", [| Value.Int 0; Value.Int 0 |]) ]
  in
  let p = B.add_place b "p" ~initial:2 in
  let q = B.add_place b "q" in
  let _ =
    B.add_transition b "step" ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ]
      ~predicate:Expr.(var "n" < int 4)
      ~action:
        [
          Expr.Assign ("n", Expr.(var "n" + int 1));
          Expr.Table_assign ("hist", Expr.var "mode", Expr.var "n");
        ]
  in
  let _ =
    B.add_transition b "flip" ~inputs:[ (q, 1) ] ~outputs:[ (p, 1) ]
      ~action:[ Expr.Assign ("mode", Expr.(int 1 - var "mode")) ]
  in
  B.build b

let graph_digest n state edges =
  let states =
    List.init n (fun i ->
        let s = state i in
        (s.Graph.s_marking, s.Graph.s_env))
  in
  (states, edges)

let check_graph_parity name net =
  let g = Graph.build net and o = Boxed.build net in
  Alcotest.(check bool)
    (name ^ ": packed graph identical to boxed")
    true
    (graph_digest (Boxed.num_states o) (Boxed.state o) (Boxed.edges o)
    = graph_digest (Graph.num_states g) (Graph.state g) (Graph.edges g))

let test_graph_pipeline () = check_graph_parity "pipeline" (pipeline ())
let test_graph_interpreted () = check_graph_parity "interpreted" (interpreted_net ())

(* a deterministic timed net with real concurrency: two producers with
   different periods feeding a consumer *)
let timed_net () =
  let b = B.create "timed" in
  let free = B.add_place b "free" ~initial:2 in
  let full = B.add_place b "full" in
  let _ =
    B.add_transition b "fast" ~inputs:[ (free, 1) ] ~outputs:[ (full, 1) ]
      ~firing:(Net.Const 2.0)
  in
  let _ =
    B.add_transition b "slow" ~inputs:[ (free, 1) ] ~outputs:[ (full, 1) ]
      ~firing:(Net.Const 3.0)
  in
  let _ =
    B.add_transition b "drain" ~inputs:[ (full, 2) ] ~outputs:[ (free, 2) ]
      ~enabling:(Net.Const 1.0)
  in
  B.build b

let timed_digest g =
  let states =
    List.init (Timed.num_states g) (fun i ->
        let s = Timed.state g i in
        ( s.Timed.ts_marking, s.Timed.ts_flight, s.Timed.ts_pending,
          s.Timed.ts_flight_iv, s.Timed.ts_pending_iv, s.Timed.ts_env ))
  in
  let edges =
    List.concat (List.init (Timed.num_states g) (fun i -> Timed.successors g i))
  in
  (states, edges)

let test_timed_parity () =
  let g = Timed.build (timed_net ()) in
  Alcotest.(check bool) "timed class graph non-trivial" true
    (Timed.num_states g > 4);
  let again = Timed.build (timed_net ()) in
  Alcotest.(check bool) "rebuild identical" true
    (timed_digest g = timed_digest again
    && Timed.domain_arrays g = Timed.domain_arrays again)

let test_replicate_parity () =
  let net = pipeline () in
  let estimate jobs =
    Replication.replicate ~seed:11 ~jobs ~runs:6 ~until:500.0 net (fun r ->
        Stat.throughput r "Issue")
  in
  let serial = estimate 1 in
  Alcotest.(check bool) "estimate non-degenerate" true (serial.Replication.mean > 0.0);
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d estimate bit-identical" jobs)
        true
        (estimate jobs = serial))
    [ 2; 4 ]

let () =
  Alcotest.run "parallel-determinism"
    [
      ( "reach",
        [
          Alcotest.test_case "pipeline graph parity" `Slow test_graph_pipeline;
          Alcotest.test_case "interpreted graph parity" `Quick
            test_graph_interpreted;
          Alcotest.test_case "timed graph parity" `Quick test_timed_parity;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "replicate parity" `Slow test_replicate_parity;
        ] );
    ]
