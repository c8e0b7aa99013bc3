(* Tests for the Ramamoorthy-Ho marked-graph cycle-time analysis,
   cross-validated against the timed steady-cycle walker and the
   simulator. *)

module Net = Pnut_core.Net
module B = Net.Builder
module Mg = Pnut_analytic.Marked_graph
module Timed = Pnut_reach.Timed

(* A ring of [n] stages with given delays and one token on the first
   place; stage i moves the token onward after delays.(i). *)
let ring delays tokens0 =
  let n = List.length delays in
  let b = B.create "ring" in
  let places =
    List.init n (fun i ->
        B.add_place b (Printf.sprintf "p%d" i)
          ~initial:(if i = 0 then tokens0 else 0))
  in
  List.iteri
    (fun i d ->
      let src = List.nth places i in
      let dst = List.nth places ((i + 1) mod n) in
      ignore
        (B.add_transition b
           (Printf.sprintf "s%d" i)
           ~inputs:[ (src, 1) ]
           ~outputs:[ (dst, 1) ]
           ~firing:(Net.Const d)
          : Net.transition_id))
    delays;
  B.build b

let cycle_value = function
  | Mg.Cycle_time t -> t
  | Mg.Deadlock -> Alcotest.fail "unexpected deadlock"
  | Mg.Unbounded_rate -> Alcotest.fail "unexpected unbounded rate"

let test_single_ring () =
  let net = ring [ 2.0; 3.0 ] 1 in
  Testutil.check_close ~tolerance:1e-6 "cycle = 5" 5.0
    (cycle_value (Mg.cycle_time net))

let test_tokens_divide_cycle () =
  (* two tokens circulating: each one completes the circuit in 5, so the
     rate doubles and the effective cycle time halves *)
  let net = ring [ 2.0; 3.0 ] 2 in
  Testutil.check_close ~tolerance:1e-6 "cycle = 2.5" 2.5
    (cycle_value (Mg.cycle_time net))

let test_critical_circuit_dominates () =
  (* two independent rings sharing no structure; the slower one is
     critical *)
  let b = B.create "two_rings" in
  let add_ring tag d1 d2 =
    let p1 = B.add_place b (tag ^ "_p1") ~initial:1 in
    let p2 = B.add_place b (tag ^ "_p2") in
    ignore
      (B.add_transition b (tag ^ "_a") ~inputs:[ (p1, 1) ] ~outputs:[ (p2, 1) ]
         ~firing:(Net.Const d1)
        : Net.transition_id);
    ignore
      (B.add_transition b (tag ^ "_b") ~inputs:[ (p2, 1) ] ~outputs:[ (p1, 1) ]
         ~firing:(Net.Const d2)
        : Net.transition_id)
  in
  add_ring "fast" 1.0 1.0;
  add_ring "slow" 4.0 6.0;
  let net = B.build b in
  Testutil.check_close ~tolerance:1e-6 "slow ring dominates" 10.0
    (cycle_value (Mg.cycle_time net));
  match Mg.critical_circuit net with
  | Some (circuit, rho) ->
    Testutil.check_close ~tolerance:1e-6 "ratio" 10.0 rho;
    let names =
      List.map (fun t -> (Net.transition net t).Net.t_name) circuit
    in
    Alcotest.(check bool) "critical circuit is the slow ring" true
      (List.for_all (fun n -> String.length n >= 4 && String.sub n 0 4 = "slow") names)
  | None -> Alcotest.fail "expected a critical circuit"

let test_deadlock_detected () =
  (* a circuit with no tokens can never fire *)
  let net = ring [ 1.0; 1.0 ] 0 in
  Alcotest.(check bool) "deadlock" true (Mg.cycle_time net = Mg.Deadlock)

let test_acyclic_unbounded () =
  let b = B.create "line" in
  let p1 = B.add_place b "p1" ~initial:1 in
  let p2 = B.add_place b "p2" in
  let _ =
    B.add_transition b "t" ~inputs:[ (p1, 1) ] ~outputs:[ (p2, 1) ]
      ~firing:(Net.Const 1.0)
  in
  (* p2 needs a consumer for the marked-graph property *)
  let p3 = B.add_place b "p3" in
  let _ =
    B.add_transition b "u" ~inputs:[ (p2, 1) ] ~outputs:[ (p3, 1) ]
      ~firing:(Net.Const 1.0)
  in
  let p4 = B.add_place b "p4" ~initial:1 in
  ignore p4;
  (* p3 and p4 unconsumed/unproduced would break MG structure; drop them
     by consuming p3 into p4's producer... simplest: close p3 -> sink
     transition -> p4 unused is a violation, so instead check the raw
     two-stage line with dangling p3: *)
  match B.build b with
  | net -> (
    match Mg.is_marked_graph net with
    | Error reason ->
      Testutil.check_contains "violation names p3/p4" reason "producer"
    | Ok () -> Alcotest.fail "dangling places should violate MG structure")

let test_structure_checks () =
  (* weighted arc *)
  let b = B.create "w" in
  let p = B.add_place b "p" ~initial:2 in
  let q = B.add_place b "q" in
  let _ = B.add_transition b "t" ~inputs:[ (p, 2) ] ~outputs:[ (q, 1) ] in
  let _ = B.add_transition b "u" ~inputs:[ (q, 1) ] ~outputs:[ (p, 1) ] in
  let net = B.build b in
  (match Mg.is_marked_graph net with
  | Error reason -> Testutil.check_contains "weight" reason "weight 2"
  | Ok () -> Alcotest.fail "expected weight violation");
  (* branching place (a conflict) *)
  let b2 = B.create "branch" in
  let p = B.add_place b2 "p" ~initial:1 in
  let q1 = B.add_place b2 "q1" in
  let q2 = B.add_place b2 "q2" in
  let _ = B.add_transition b2 "t1" ~inputs:[ (p, 1) ] ~outputs:[ (q1, 1) ] in
  let _ = B.add_transition b2 "t2" ~inputs:[ (p, 1) ] ~outputs:[ (q2, 1) ] in
  let _ = B.add_transition b2 "back1" ~inputs:[ (q1, 1) ] ~outputs:[ (p, 1) ] in
  let _ = B.add_transition b2 "back2" ~inputs:[ (q2, 1) ] ~outputs:[ (p, 1) ] in
  let net2 = B.build b2 in
  match Mg.is_marked_graph net2 with
  | Error reason -> Testutil.check_contains "branching" reason "consumer"
  | Ok () -> Alcotest.fail "expected branching violation"

let test_mean_delays_used () =
  (* a uniform(2,4) delay has mean 3: same cycle time as Const 3 *)
  let det = ring [ 3.0; 2.0 ] 1 in
  let stochastic =
    let b = B.create "sto" in
    let p0 = B.add_place b "p0" ~initial:1 in
    let p1 = B.add_place b "p1" in
    let _ =
      B.add_transition b "s0" ~inputs:[ (p0, 1) ] ~outputs:[ (p1, 1) ]
        ~firing:(Net.Uniform (2.0, 4.0))
    in
    let _ =
      B.add_transition b "s1" ~inputs:[ (p1, 1) ] ~outputs:[ (p0, 1) ]
        ~enabling:(Net.Choice [ (1.0, 1.0); (3.0, 1.0) ])
    in
    B.build b
  in
  Testutil.check_close ~tolerance:1e-6 "same mean cycle"
    (cycle_value (Mg.cycle_time det))
    (cycle_value (Mg.cycle_time stochastic))

let test_agrees_with_steady_cycle () =
  let net = ring [ 1.5; 2.5; 4.0 ] 1 in
  let analytic = cycle_value (Mg.cycle_time net) in
  match Timed.steady_cycle net with
  | Some c ->
    Testutil.check_close ~tolerance:1e-6 "RH80 = timed walker" analytic
      c.Timed.cy_period
  | None -> Alcotest.fail "expected a steady cycle"

let test_agrees_with_simulation () =
  let net = ring [ 2.0; 1.0; 3.0 ] 2 in
  let analytic = cycle_value (Mg.cycle_time net) in
  let sink, get = Pnut_stat.Stat.sink () in
  let _ = Pnut_sim.Simulator.simulate ~until:50_000.0 ~sink net in
  let rate = Pnut_stat.Stat.throughput (get ()) "s0" in
  Testutil.check_close ~tolerance:0.001 "throughput = 1 / cycle time"
    (1.0 /. analytic) rate

let test_zero_delay_circuits () =
  (* no circuit takes time: an exact zero, not a vanishing ratio *)
  let net = ring [ 0.0; 0.0 ] 1 in
  Alcotest.(check bool) "cycle time 0" true (Mg.cycle_time net = Mg.Cycle_time 0.0);
  match Timed.steady_cycle net with
  | Some c ->
    Alcotest.(check (float 0.0)) "the walker finds a zero-time livelock" 0.0
      c.Timed.cy_period
  | None -> Alcotest.fail "expected the walker to report the livelock"

(* A transition's enabling clock is a single server: with 2 tokens and
   enabling delays 3 and 1, [a] starts once every 3, not every 2. *)
let test_enabling_clock () =
  let b = B.create "ring2" in
  let p = B.add_place b "p" ~initial:2 in
  let q = B.add_place b "q" in
  let _ =
    B.add_transition b "a" ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ]
      ~enabling:(Net.Const 3.0)
  in
  let _ =
    B.add_transition b "b" ~inputs:[ (q, 1) ] ~outputs:[ (p, 1) ]
      ~enabling:(Net.Const 1.0)
  in
  let net = B.build b in
  Testutil.check_close ~tolerance:1e-6 "cycle = 3" 3.0 (cycle_value (Mg.cycle_time net));
  match Timed.steady_cycle net with
  | Some c -> Testutil.check_close "walker period" 3.0 c.Timed.cy_period
  | None -> Alcotest.fail "expected a steady cycle"

(* On random marked graphs (a ring through every transition plus
   chords) the critical ratio is the walker's period per firing of each
   transition; without a steady cycle the net deadlocks or no circuit
   takes time. *)
let test_random_marked_graphs () =
  let rng = Random.State.make [| 22 |] in
  let cycled = ref 0 in
  for _ = 1 to 1000 do
    let net = Testutil.random_timed_net ~marked_graph:true rng in
    let fail what =
      Alcotest.failf "%s\n%s" what (Format.asprintf "%a" Net.pp net)
    in
    match Timed.steady_cycle net, Mg.cycle_time net with
    | Some c, Mg.Cycle_time rho ->
      incr cycled;
      Array.iter
        (fun n ->
          if not (Testutil.close ~tolerance:1e-6 rho (c.Timed.cy_period /. float_of_int n))
          then
            fail
              (Printf.sprintf "cycle time %g, walker period %g over %d firings" rho
                 c.Timed.cy_period n))
        c.Timed.cy_firings
    | Some _, _ -> fail "the walker cycles, RH80 finds no cycle time"
    | None, (Mg.Deadlock | Mg.Cycle_time 0.0) -> ()
    | None, _ -> fail "RH80 finds a cycle time, the walker none"
  done;
  Alcotest.(check bool) "most nets cycle" true (!cycled > 500)

let () =
  Alcotest.run "marked-graph"
    [
      ( "cycle time",
        [
          Alcotest.test_case "single ring" `Quick test_single_ring;
          Alcotest.test_case "tokens divide" `Quick test_tokens_divide_cycle;
          Alcotest.test_case "critical circuit" `Quick
            test_critical_circuit_dominates;
          Alcotest.test_case "deadlock" `Quick test_deadlock_detected;
          Alcotest.test_case "structure violations" `Quick test_structure_checks;
          Alcotest.test_case "dangling places" `Quick test_acyclic_unbounded;
          Alcotest.test_case "mean delays" `Quick test_mean_delays_used;
          Alcotest.test_case "zero-delay circuits" `Quick test_zero_delay_circuits;
          Alcotest.test_case "enabling clock" `Quick test_enabling_clock;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "vs steady cycle" `Quick test_agrees_with_steady_cycle;
          Alcotest.test_case "random marked graphs" `Quick test_random_marked_graphs;
          Alcotest.test_case "vs simulation" `Slow test_agrees_with_simulation;
        ] );
    ]
