(* Tests for supervised execution: resource budgets, cooperative
   cancellation and graceful degradation across every long-running
   entry point.  The adversarial workload throughout is a token
   generator (the coverability pump): its reachability graph is
   unbounded, so only a budget makes exploration terminate. *)

module Net = Pnut_core.Net
module B = Net.Builder
module Budget = Pnut_exec.Budget
module Supervisor = Pnut_exec.Supervisor
module Graph = Pnut_reach.Graph
module Cov = Pnut_reach.Coverability
module Sim = Pnut_sim.Simulator

(* t consumes p and returns it plus a token on q: unbounded in q. *)
let pump_net () =
  let b = B.create "pump" in
  let p = B.add_place b "p" ~initial:1 in
  let _q = B.add_place b "q" in
  let _ =
    B.add_transition b "pump" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1); (_q, 1) ]
  in
  B.build b

(* Same generator with an exponential enabling delay, inside the GSPN
   fragment (and simulable forever). *)
let exp_pump_net () =
  let b = B.create "exp_pump" in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  let _ =
    B.add_transition b "pump" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1); (q, 1) ]
      ~enabling:(Net.Exponential 0.001)
  in
  B.build b

(* k independent pumps: the Karp-Miller tree enumerates every subset of
   accelerated places, so it is far too large to finish in a test. *)
let many_pumps k =
  let b = B.create "pumps" in
  for i = 1 to k do
    let p = B.add_place b (Printf.sprintf "p%d" i) ~initial:1 in
    let q = B.add_place b (Printf.sprintf "q%d" i) in
    ignore
      (B.add_transition b (Printf.sprintf "t%d" i) ~inputs:[ (p, 1) ]
         ~outputs:[ (p, 1); (q, 1) ])
  done;
  B.build b

let wall_50ms () = Budget.make ~wall_s:0.05 ()
let generous () = Budget.make ~wall_s:300.0 ~heap_mb:4096 ()

let is_wall = function Supervisor.Wall _ -> true | _ -> false

(* -- Budget and Supervisor units -- *)

let test_budget () =
  Alcotest.(check bool) "none is none" true (Budget.is_none Budget.none);
  Alcotest.(check bool) "make () is none" true (Budget.is_none (Budget.make ()));
  Alcotest.(check bool) "wall is not none" false (Budget.is_none (wall_50ms ()));
  (* heap_mb is a spelling of heap_words *)
  let b = Budget.make ~heap_mb:8 () in
  Alcotest.(check (option int)) "heap_mb converts" (Some (Budget.words_of_mb 8))
    b.Budget.heap_words;
  Alcotest.(check bool) "words_of_mb positive" true (Budget.words_of_mb 1 > 0);
  (match Budget.make ~wall_s:(-1.0) () with
  | _ -> Alcotest.fail "negative wall limit accepted"
  | exception Invalid_argument _ -> ());
  (match Budget.make ~heap_mb:0 () with
  | _ -> Alcotest.fail "zero heap limit accepted"
  | exception Invalid_argument msg ->
    Testutil.check_contains "names the limit" msg "heap_words");
  let tok = Budget.token () in
  Alcotest.(check bool) "fresh token" false (Budget.cancelled tok);
  Budget.cancel tok;
  Budget.cancel tok;
  Alcotest.(check bool) "cancel is idempotent" true (Budget.cancelled tok)

let test_supervisor () =
  let m = Supervisor.start Budget.none in
  Alcotest.(check bool) "none monitor inactive" false (Supervisor.active m);
  Alcotest.(check bool) "none never trips" true (Supervisor.check m = None);
  Alcotest.(check bool) "none runs unbudgeted" true
    (Supervisor.run_budget m = None);
  let m = Supervisor.start (Budget.make ~wall_s:10.0 ~heap_mb:8 ()) in
  (match Supervisor.run_budget m with
  | Some b ->
    Alcotest.(check bool) "runs get the wall time left" true
      (match b.Budget.wall_s with Some w -> w <= 10.0 | None -> false);
    Alcotest.(check (option int)) "runs keep the heap limit"
      (Some (Budget.words_of_mb 8)) b.Budget.heap_words
  | None -> Alcotest.fail "a budgeted sweep budgets its runs");
  (* a cancelled token trips check immediately *)
  let tok = Budget.token () in
  let m = Supervisor.start (Budget.make ~cancel:tok ()) in
  Alcotest.(check bool) "not yet cancelled" true (Supervisor.check m = None);
  Budget.cancel tok;
  (match Supervisor.check m with
  | Some Supervisor.Cancelled -> ()
  | _ -> Alcotest.fail "cancellation should trip");
  (* messages and progress render without raising *)
  let p = Supervisor.snapshot m ~visited:7 ~frontier:3 in
  Testutil.check_contains "progress" (Format.asprintf "%a" Supervisor.pp_progress p)
    "visited 7";
  Testutil.check_contains "wall message"
    (Supervisor.reason_message (Supervisor.Wall 0.05)) "wall-clock";
  Testutil.check_contains "heap message"
    (Supervisor.reason_message (Supervisor.Heap 123)) "heap";
  Testutil.check_contains "cancel message"
    (Supervisor.reason_message Supervisor.Cancelled) "cancel"

(* An unbudgeted monitor never trips, yet its clock runs: a run cut by
   a plain state cap still reports how long it took. *)
let test_unbudgeted_elapsed () =
  let m = Supervisor.start Budget.none in
  Unix.sleepf 0.01;
  Alcotest.(check bool) "check is a no-op" true (Supervisor.check m = None);
  let p = Supervisor.snapshot m ~visited:1 ~frontier:0 in
  Alcotest.(check bool) "elapsed covers the sleep" true
    (p.Supervisor.elapsed_s >= 0.01)

(* The heap is read on the first poll, then at most once a millisecond:
   a limit below the heap trips at once, and one just above it trips
   once the heap grows past it, however fast the polls come. *)
let test_heap_trip () =
  let heap () = (Gc.quick_stat ()).Gc.heap_words in
  let m = Supervisor.start { Budget.none with heap_words = Some 1 } in
  (match Supervisor.check m with
  | Some (Supervisor.Heap _) -> ()
  | _ -> Alcotest.fail "the first poll reads the heap");
  let limit = heap () + (1 lsl 20) in
  let m =
    Supervisor.start
      { Budget.none with heap_words = Some limit; wall_s = Some 10.0 }
  in
  ignore (Supervisor.check m : Supervisor.reason option);
  let kept = ref [] in
  while heap () < limit do
    kept := Array.make 4096 0 :: !kept
  done;
  let rec poll () =
    match Supervisor.check m with None -> poll () | Some r -> r
  in
  let r = poll () in
  ignore (Sys.opaque_identity !kept);
  match r with
  | Supervisor.Heap w ->
    Alcotest.(check bool) "tripped at the limit" true (w >= limit)
  | r ->
    Alcotest.failf "expected a heap trip, got %s" (Supervisor.reason_message r)

let test_outcome_helpers () =
  let c = Supervisor.Complete 41 in
  let m = Supervisor.start Budget.none in
  let d =
    Supervisor.Degraded
      { reason = Supervisor.Cancelled; partial = 1;
        progress = Supervisor.snapshot m ~visited:1 ~frontier:0 }
  in
  Alcotest.(check int) "value complete" 41 (Supervisor.value c);
  Alcotest.(check int) "value degraded" 1 (Supervisor.value d);
  Alcotest.(check bool) "degraded flags" true
    (Supervisor.degraded d && not (Supervisor.degraded c));
  Alcotest.(check int) "map" 42 (Supervisor.value (Supervisor.map succ c));
  Alcotest.(check int) "map degraded" 2 (Supervisor.value (Supervisor.map succ d))

(* -- Simulator -- *)

let test_sim_budget () =
  let net = exp_pump_net () in
  (* wall budget on an endless run *)
  let st = Sim.create ~seed:7 net in
  (match Sim.run ~until:1e12 ~budget:(wall_50ms ()) st with
  | { Sim.stop = Sim.Budget_exhausted reason; started; _ } ->
    Alcotest.(check bool) "wall reason" true (is_wall reason);
    Alcotest.(check bool) "made progress" true (started > 0)
  | _ -> Alcotest.fail "cannot complete until t=1e12");
  (* pre-cancelled token degrades at the first watchdog slot *)
  let tok = Budget.token () in
  Budget.cancel tok;
  let st = Sim.create ~seed:7 net in
  (match Sim.run ~until:1e12 ~budget:(Budget.make ~cancel:tok ()) st with
  | { Sim.stop = Sim.Budget_exhausted Supervisor.Cancelled; _ } -> ()
  | _ -> Alcotest.fail "expected Budget_exhausted Cancelled")

let test_sim_budget_identical () =
  (* a budgeted run that completes is indistinguishable from an
     unbudgeted one: same stop, clock, event counts and trace *)
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let run budget =
    let sink, get = Pnut_trace.Trace.collector () in
    let st = Sim.create ~seed:3 ~sink net in
    let o = Sim.run ~until:2000.0 ?budget st in
    let t = get () in
    (o.Sim.stop, o.Sim.final_clock, o.Sim.started, o.Sim.finished,
     Pnut_trace.Trace.deltas t, Pnut_trace.Trace.final_time t)
  in
  let plain = run None and budgeted = run (Some (generous ())) in
  Alcotest.(check bool) "identical outcome and trace" true (plain = budgeted)

(* -- Reachability -- *)

let test_reach_wall_budget () =
  let net = pump_net () in
  match Graph.build_supervised ~max_states:max_int ~budget:(wall_50ms ()) net with
  | Supervisor.Degraded { reason; partial; progress } ->
    Alcotest.(check bool) "wall reason" true (is_wall reason);
    Alcotest.(check bool) "graph is non-trivial" true (Graph.num_states partial > 2);
    Alcotest.(check bool) "not complete" true (not (Graph.complete partial));
    Alcotest.(check int) "visited = states" (Graph.num_states partial)
      progress.Supervisor.visited;
    Alcotest.(check bool) "frontier reported" true (progress.Supervisor.frontier > 0)
  | Supervisor.Complete _ -> Alcotest.fail "the pump never completes"

let test_reach_partial_is_prefix () =
  let net = pump_net () in
  (* a state-capped build degrades too, carrying exactly the prefix *)
  let small =
    match Graph.build_supervised ~max_states:40 net with
    | Supervisor.Degraded { reason = Supervisor.States 40; partial; _ } -> partial
    | _ -> Alcotest.fail "expected Degraded (States 40)"
  in
  let big = Graph.build ~max_states:200 net in
  Alcotest.(check int) "prefix size" 40 (Graph.num_states small);
  for i = 0 to Graph.num_states small - 1 do
    Alcotest.(check (array int))
      (Printf.sprintf "state %d marking" i)
      (Graph.state big i).Graph.s_marking (Graph.state small i).Graph.s_marking
  done;
  (* every partial edge appears verbatim in the bigger graph *)
  List.iter
    (fun e ->
      Alcotest.(check bool) "edge in bigger graph" true
        (List.exists
           (fun e' ->
             e'.Graph.e_from = e.Graph.e_from
             && e'.Graph.e_to = e.Graph.e_to
             && e'.Graph.e_transition = e.Graph.e_transition)
           (Graph.edges big)))
    (Graph.edges small)

let test_reach_budget_identical () =
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let plain = Graph.build net in
  match Graph.build_supervised ~budget:(generous ()) net with
  | Supervisor.Complete g ->
    Alcotest.(check int) "states" (Graph.num_states plain) (Graph.num_states g);
    Alcotest.(check int) "edges" (Graph.num_edges plain) (Graph.num_edges g);
    Alcotest.(check bool) "complete" true (Graph.complete g)
  | Supervisor.Degraded _ -> Alcotest.fail "generous budget should not trip"

let test_timed_wall_budget () =
  let net = pump_net () in
  match
    Pnut_reach.Timed.build_supervised ~max_states:max_int
      ~budget:(wall_50ms ()) net
  with
  | Supervisor.Degraded { reason; partial; _ } ->
    Alcotest.(check bool) "wall reason" true (is_wall reason);
    Alcotest.(check bool) "partial states" true
      (Pnut_reach.Timed.num_states partial > 2)
  | Supervisor.Complete _ -> Alcotest.fail "the pump never completes"

(* -- Coverability -- *)

let test_coverability_budget () =
  (* wall trip: 24 independent pumps give a Karp-Miller tree of ~2^24
     subsets, unreachable in 50 ms *)
  (match Cov.build_supervised ~max_states:max_int ~budget:(wall_50ms ())
           (many_pumps 24)
   with
  | Supervisor.Degraded { reason; partial; _ } ->
    Alcotest.(check bool) "wall reason" true (is_wall reason);
    Alcotest.(check bool) "partial tree" true (Cov.num_nodes partial > 1);
    Alcotest.(check bool) "flagged incomplete" true (not (Cov.complete partial))
  | Supervisor.Complete _ -> Alcotest.fail "2^24 nodes in 50 ms?");
  (* state-cap trip *)
  (match Cov.build_supervised ~max_states:5 (many_pumps 4) with
  | Supervisor.Degraded { reason = Supervisor.States _; partial; progress } ->
    Alcotest.(check int) "capped size" 5 (Cov.num_nodes partial);
    Alcotest.(check bool) "frontier left" true (progress.Supervisor.frontier > 0)
  | _ -> Alcotest.fail "expected Degraded (States _)");
  (* a completing budgeted build matches the plain one *)
  let net = many_pumps 3 in
  match Cov.build_supervised ~budget:(generous ()) net with
  | Supervisor.Complete g ->
    let plain = Cov.build net in
    Alcotest.(check int) "same nodes" (Cov.num_nodes plain) (Cov.num_nodes g);
    Alcotest.(check bool) "both unbounded" (Cov.is_bounded plain) (Cov.is_bounded g)
  | Supervisor.Degraded _ -> Alcotest.fail "generous budget should not trip"

(* -- Where a cancelled build stops --

   A token cancelled before the build starts trips the first poll,
   which comes before the 256th item of the sweep (index 255): the
   partial result is exactly what the unbudgeted build had recorded
   at that point. *)

let cancelled () =
  let tok = Budget.token () in
  Budget.cancel tok;
  Budget.make ~cancel:tok ()

let pipeline () = Pnut_pipeline.Model.full Pnut_pipeline.Config.default

let test_graph_cancel_pin () =
  let net = pipeline () in
  let full = Graph.build net in
  match Graph.build_supervised ~budget:(cancelled ()) net with
  | Supervisor.Degraded { reason = Supervisor.Cancelled; partial; progress } ->
    Alcotest.(check int) "visited" 311 progress.Supervisor.visited;
    Alcotest.(check int) "frontier" 56 progress.Supervisor.frontier;
    Alcotest.(check int) "visited = states" (Graph.num_states partial)
      progress.Supervisor.visited;
    let expanded = Graph.num_states partial - progress.Supervisor.frontier in
    Alcotest.(check int) "expanded before the poll" 255 expanded;
    for i = 0 to Graph.num_states partial - 1 do
      Alcotest.(check (array int))
        (Printf.sprintf "state %d marking" i)
        (Graph.state full i).Graph.s_marking
        (Graph.state partial i).Graph.s_marking;
      Alcotest.(check bool)
        (Printf.sprintf "state %d edges" i)
        true
        (Graph.successors partial i
        = if i < expanded then Graph.successors full i else [])
    done
  | _ -> Alcotest.fail "expected Degraded Cancelled"

let test_timed_cancel_pin () =
  let net = pipeline () in
  let full = Pnut_reach.Timed.build net in
  match Pnut_reach.Timed.build_supervised ~budget:(cancelled ()) net with
  | Supervisor.Degraded { reason = Supervisor.Cancelled; partial; progress } ->
    Alcotest.(check int) "visited" 264 progress.Supervisor.visited;
    Alcotest.(check int) "frontier" 64 progress.Supervisor.frontier;
    Alcotest.(check int) "visited = classes"
      (Pnut_reach.Timed.num_states partial) progress.Supervisor.visited;
    for i = 0 to Pnut_reach.Timed.num_states partial - 1 do
      Alcotest.(check (array int))
        (Printf.sprintf "class %d marking" i)
        (Pnut_reach.Timed.state full i).Pnut_reach.Timed.ts_marking
        (Pnut_reach.Timed.state partial i).Pnut_reach.Timed.ts_marking;
      List.iter
        (fun e ->
          Alcotest.(check bool)
            (Printf.sprintf "class %d edge in the full graph" i)
            true
            (List.mem e (Pnut_reach.Timed.successors full i)))
        (Pnut_reach.Timed.successors partial i)
    done
  | _ -> Alcotest.fail "expected Degraded Cancelled"

let test_coverability_cancel_pin () =
  (* 10 independent pumps: 1,024 nodes, one per subset of ω places *)
  let net = many_pumps 10 in
  let full = Cov.build net in
  match Cov.build_supervised ~budget:(cancelled ()) net with
  | Supervisor.Degraded { reason = Supervisor.Cancelled; partial; progress } ->
    Alcotest.(check int) "visited" 274 progress.Supervisor.visited;
    Alcotest.(check int) "frontier" 19 progress.Supervisor.frontier;
    Alcotest.(check int) "visited = nodes" (Cov.num_nodes partial)
      progress.Supervisor.visited;
    for i = 0 to Cov.num_nodes partial - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "node %d marking" i)
        true
        ((Cov.node full i).Cov.n_marking = (Cov.node partial i).Cov.n_marking);
      List.iter
        (fun e ->
          Alcotest.(check bool)
            (Printf.sprintf "node %d edge in the full graph" i)
            true
            (List.mem e (Cov.successors full i)))
        (Cov.successors partial i)
    done
  | _ -> Alcotest.fail "expected Degraded Cancelled"

(* -- GSPN -- *)

let test_gspn_budget () =
  let net = exp_pump_net () in
  (* wall trip mid-exploration still yields a usable partial analysis:
     unexpanded states are absorbing and the vector is re-normalized *)
  (* no max_iterations cap on purpose: once the wall budget has tripped
     during exploration, the stationary solve on the (large) partial chain
     must also bail out on its own budget polls instead of iterating to
     convergence *)
  (match Pnut_analytic.Gspn.analyze_supervised ~max_states:max_int
           ~budget:(wall_50ms ()) net
   with
  | Supervisor.Degraded { reason; partial; _ } ->
    Alcotest.(check bool) "wall reason" true (is_wall reason);
    Alcotest.(check bool) "tangible prefix" true
      (partial.Pnut_analytic.Gspn.tangible_states > 1);
    let mass =
      Array.fold_left ( +. ) 0.0 partial.Pnut_analytic.Gspn.place_means
    in
    Alcotest.(check bool) "means are finite" true (Float.is_finite mass)
  | Supervisor.Complete _ -> Alcotest.fail "the pump never completes");
  (* a cancelled token trips the first check, before the 256th
     expansion: 256 states interned, the last one unexpanded *)
  let tok = Budget.token () in
  Budget.cancel tok;
  (match Pnut_analytic.Gspn.analyze_supervised ~max_states:max_int
           ~budget:(Budget.make ~cancel:tok ()) net
   with
  | Supervisor.Degraded { reason = Supervisor.Cancelled; progress; _ } ->
    Alcotest.(check int) "visited" 256 progress.Supervisor.visited;
    Alcotest.(check int) "frontier" 1 progress.Supervisor.frontier
  | _ -> Alcotest.fail "expected a cancelled trip");
  (* the state cap stays a structural rejection, not a budget trip *)
  match Pnut_analytic.Gspn.analyze_supervised ~max_states:64 net with
  | _ -> Alcotest.fail "expected a state-cap rejection"
  | exception Invalid_argument msg ->
    Testutil.check_contains "cap recorded" msg "cap 64";
    Testutil.check_contains "message names the cap" msg "max_states"

(* -- Replication -- *)

let test_replication_budget () =
  let net = exp_pump_net () in
  (match
     Pnut_stat.Replication.sweep ~seed:5 ~budget:(wall_50ms ()) ~runs:4
       ~until:1e12 net
   with
  | Supervisor.Degraded { reason; partial; _ } ->
    let p =
      Pnut_stat.Replication.summarize
        (fun r -> Pnut_stat.Stat.throughput r "pump")
        partial
    in
    Alcotest.(check bool) "wall reason" true (is_wall reason);
    Alcotest.(check bool) "truncated runs dropped" true
      (p.Pnut_stat.Replication.pr_completed < 4)
  | Supervisor.Complete _ -> Alcotest.fail "cannot complete until t=1e12");
  (* generous budget: estimate identical to the unbudgeted sweep *)
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let read r = Pnut_stat.Stat.utilization r "Bus_busy" in
  let plain =
    Pnut_stat.Replication.replicate ~seed:5 ~runs:4 ~until:2000.0 net read
  in
  match
    Pnut_stat.Replication.sweep ~seed:5 ~budget:(generous ()) ~runs:4
      ~until:2000.0 net
  with
  | Supervisor.Complete reports ->
    let p = Pnut_stat.Replication.summarize read reports in
    Alcotest.(check bool) "identical estimate" true
      (p.Pnut_stat.Replication.pr_estimate = Some plain)
  | Supervisor.Degraded _ -> Alcotest.fail "generous budget should not trip"

let () =
  Alcotest.run "supervision"
    [
      ( "supervision",
        [
          Alcotest.test_case "budget" `Quick test_budget;
          Alcotest.test_case "supervisor" `Quick test_supervisor;
          Alcotest.test_case "unbudgeted elapsed" `Quick
            test_unbudgeted_elapsed;
          Alcotest.test_case "heap trip" `Quick test_heap_trip;
          Alcotest.test_case "outcome helpers" `Quick test_outcome_helpers;
          Alcotest.test_case "sim budget" `Quick test_sim_budget;
          Alcotest.test_case "sim budget identical" `Quick
            test_sim_budget_identical;
          Alcotest.test_case "reach wall budget" `Quick test_reach_wall_budget;
          Alcotest.test_case "reach partial prefix" `Quick
            test_reach_partial_is_prefix;
          Alcotest.test_case "reach budget identical" `Quick
            test_reach_budget_identical;
          Alcotest.test_case "timed wall budget" `Quick test_timed_wall_budget;
          Alcotest.test_case "coverability budget" `Quick
            test_coverability_budget;
          Alcotest.test_case "graph cancel pin" `Quick test_graph_cancel_pin;
          Alcotest.test_case "timed cancel pin" `Quick test_timed_cancel_pin;
          Alcotest.test_case "coverability cancel pin" `Quick
            test_coverability_cancel_pin;
          Alcotest.test_case "gspn budget" `Quick test_gspn_budget;
          Alcotest.test_case "replication budget" `Quick
            test_replication_budget;
        ] );
    ]
