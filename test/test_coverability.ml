(* Tests for the Karp-Miller coverability analysis. *)

module Net = Pnut_core.Net
module B = Net.Builder
module Cov = Pnut_reach.Coverability

let bounded_net () =
  let b = B.create "cycle" in
  let p = B.add_place b "p" ~initial:2 in
  let q = B.add_place b "q" in
  let _ = B.add_transition b "t" ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ] in
  let _ = B.add_transition b "u" ~inputs:[ (q, 1) ] ~outputs:[ (p, 1) ] in
  (B.build b, p, q)

let unbounded_net () =
  (* classic pump: t consumes p and returns it plus a token on q *)
  let b = B.create "pump" in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  let _ = B.add_transition b "pump" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1); (q, 1) ] in
  (B.build b, p, q)

let test_bounded () =
  let net, p, q = bounded_net () in
  let g = Cov.build net in
  Alcotest.(check bool) "complete" true (Cov.complete g);
  Alcotest.(check bool) "bounded" true (Cov.is_bounded g);
  Alcotest.(check (option int)) "p bound" (Some 2) (Cov.place_bound g p);
  Alcotest.(check (option int)) "q bound" (Some 2) (Cov.place_bound g q);
  Alcotest.(check (list int)) "no unbounded places" [] (Cov.unbounded_places g)

let test_unbounded () =
  let net, p, q = unbounded_net () in
  let g = Cov.build net in
  Alcotest.(check bool) "terminates despite unboundedness" true (Cov.complete g);
  Alcotest.(check bool) "unbounded detected" false (Cov.is_bounded g);
  Alcotest.(check (option int)) "p stays bounded" (Some 1) (Cov.place_bound g p);
  Alcotest.(check (option int)) "q unbounded" None (Cov.place_bound g q);
  Alcotest.(check (list int)) "q listed" [ q ] (Cov.unbounded_places g);
  (* the graph is tiny: {p=1,q=0} and {p=1,q=ω} *)
  Alcotest.(check bool) "small graph" true (Cov.num_nodes g <= 3)

let test_edges () =
  let net, _, _ = unbounded_net () in
  let g = Cov.build net in
  let edges = Cov.edges g in
  Alcotest.(check bool) "edges recorded" true (edges <> []);
  (* the accelerated node has a self-loop through the pump transition *)
  let pump = Net.transition_id net "pump" in
  Alcotest.(check bool) "pump self-loop on the omega node" true
    (List.exists
       (fun e ->
         e.Cov.e_transition = pump && e.Cov.e_from = e.Cov.e_to
         && Array.exists (fun t -> t = Cov.Omega)
              (Cov.node g e.Cov.e_from).Cov.n_marking)
       edges);
  (* successors of the initial node lead onward *)
  Alcotest.(check bool) "initial has a successor" true
    (Cov.successors g 0 <> [])

let test_covers () =
  let net, _, _ = unbounded_net () in
  let g = Cov.build net in
  Alcotest.(check bool) "can cover q=100 (unbounded)" true (Cov.covers g [| 0; 100 |]);
  Alcotest.(check bool) "cannot cover p=2" false (Cov.covers g [| 2; 0 |]);
  let net2, _, _ = bounded_net () in
  let g2 = Cov.build net2 in
  Alcotest.(check bool) "bounded: q=2 coverable" true (Cov.covers g2 [| 0; 2 |]);
  Alcotest.(check bool) "bounded: q=3 not coverable" false (Cov.covers g2 [| 0; 3 |])

let test_producer_consumer_unbounded_buffer () =
  (* producer fills an unbounded buffer faster than the consumer drains *)
  let b = B.create "prodcons" in
  let idle_p = B.add_place b "producer_idle" ~initial:1 in
  let buffer = B.add_place b "buffer" in
  let idle_c = B.add_place b "consumer_idle" ~initial:1 in
  let _ =
    B.add_transition b "produce" ~inputs:[ (idle_p, 1) ]
      ~outputs:[ (idle_p, 1); (buffer, 1) ]
  in
  let _ =
    B.add_transition b "consume" ~inputs:[ (idle_c, 1); (buffer, 1) ]
      ~outputs:[ (idle_c, 1) ]
  in
  let net = B.build b in
  let g = Cov.build net in
  Alcotest.(check bool) "buffer unbounded" false (Cov.is_bounded g);
  Alcotest.(check (option int)) "buffer is the culprit" None
    (Cov.place_bound g (Net.place_id net "buffer"));
  Alcotest.(check (option int)) "producer place bounded" (Some 1)
    (Cov.place_bound g (Net.place_id net "producer_idle"))

let test_pipeline_is_bounded () =
  (* the pipeline model has inhibitors, so coverability rejects it;
     its inhibitor-free prefetch fragment without the inhibition is
     testable after stripping — instead we check the rejection paths *)
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  (match Cov.build net with
  | _ -> Alcotest.fail "expected inhibitor rejection"
  | exception Invalid_argument msg ->
    Testutil.check_contains "feature" msg "inhibitor arcs";
    Testutil.check_contains "transition" msg "Start_prefetch")

let test_predicate_rejected () =
  let b = B.create "interp" ~variables:[ ("n", Pnut_core.Value.Int 0) ] in
  let p = B.add_place b "p" ~initial:1 in
  let _ =
    B.add_transition b "t" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1) ]
      ~predicate:Pnut_core.Expr.(var "n" > int 0)
  in
  let net = B.build b in
  match Cov.build net with
  | _ -> Alcotest.fail "expected predicate rejection"
  | exception Invalid_argument msg ->
    Testutil.check_contains "feature" msg "a predicate";
    Testutil.check_contains "transition" msg "transition t "

let test_weighted_arcs () =
  (* accumulate two tokens, spend three: net gain -1 per pair... the net
     is bounded; weights must be respected in the ω arithmetic *)
  let b = B.create "weighted" in
  let p = B.add_place b "p" ~initial:6 in
  let q = B.add_place b "q" in
  let _ = B.add_transition b "t" ~inputs:[ (p, 3) ] ~outputs:[ (q, 2) ] in
  let net = B.build b in
  let g = Cov.build net in
  Alcotest.(check bool) "bounded" true (Cov.is_bounded g);
  Alcotest.(check (option int)) "q reaches 4" (Some 4)
    (Cov.place_bound g (Net.place_id net "q"))

let test_omega_propagates () =
  (* once a place is ω, downstream places fed from it become ω too *)
  let b = B.create "cascade" in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  let r = B.add_place b "r" in
  let _ = B.add_transition b "pump" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1); (q, 1) ] in
  let _ = B.add_transition b "move" ~inputs:[ (q, 1) ] ~outputs:[ (r, 1) ] in
  let net = B.build b in
  let g = Cov.build net in
  Alcotest.(check (option int)) "q unbounded" None
    (Cov.place_bound g (Net.place_id net "q"));
  Alcotest.(check (option int)) "r unbounded too" None
    (Cov.place_bound g (Net.place_id net "r"))

(* The pump with a capacity of 1 declared on both places: capacities
   are not enforced, so q still grows without bound and must get its ω.
   Only P-invariants may switch acceleration off, and this net has
   none. *)
let test_capacity_is_no_bound () =
  let b = B.create "capped pump" in
  let p = B.add_place b "p" ~initial:1 ~capacity:1 in
  let q = B.add_place b "q" ~capacity:1 in
  let _ = B.add_transition b "pump" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1); (q, 1) ] in
  let net = B.build b in
  let g = Cov.build ~max_states:1000 net in
  Alcotest.(check bool) "complete" true (Cov.complete g);
  Alcotest.(check int) "two nodes" 2 (Cov.num_nodes g);
  Alcotest.(check (list int)) "q unbounded" [ q ] (Cov.unbounded_places g)

(* A ring of 8 places with 9 tokens in the first: the all-ones
   P-invariant bounds it, so every node is a reachable marking, C(16, 7)
   of them, built without comparing any ancestor chain. *)
let test_invariant_bounded_ring () =
  let b = B.create "ring" in
  let ps =
    Array.init 8 (fun i ->
        B.add_place b (Printf.sprintf "r%d" i) ~initial:(if i = 0 then 9 else 0))
  in
  Array.iteri
    (fun i p ->
      ignore
        (B.add_transition b (Printf.sprintf "t%d" i) ~inputs:[ (p, 1) ]
           ~outputs:[ (ps.((i + 1) mod 8), 1) ]
          : Net.transition_id))
    ps;
  let g = Cov.build (B.build b) in
  Alcotest.(check bool) "complete" true (Cov.complete g);
  Alcotest.(check int) "every marking" 11440 (Cov.num_nodes g);
  Alcotest.(check bool) "bounded" true (Cov.is_bounded g);
  Alcotest.(check (option int)) "r0 bound" (Some 9) (Cov.place_bound g 0)

let test_summary () =
  let net, _, _ = unbounded_net () in
  let g = Cov.build net in
  let text = Format.asprintf "%a" (Cov.pp_summary net) g in
  Testutil.check_contains "summary" text "bounded: false";
  Testutil.check_contains "summary" text "unbounded places: q"

let () =
  Alcotest.run "coverability"
    [
      ( "karp-miller",
        [
          Alcotest.test_case "bounded net" `Quick test_bounded;
          Alcotest.test_case "unbounded net" `Quick test_unbounded;
          Alcotest.test_case "covers" `Quick test_covers;
          Alcotest.test_case "edges" `Quick test_edges;
          Alcotest.test_case "producer/consumer" `Quick
            test_producer_consumer_unbounded_buffer;
          Alcotest.test_case "inhibitors rejected" `Quick test_pipeline_is_bounded;
          Alcotest.test_case "predicates rejected" `Quick test_predicate_rejected;
          Alcotest.test_case "weighted arcs" `Quick test_weighted_arcs;
          Alcotest.test_case "omega propagates" `Quick test_omega_propagates;
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "capacity is no bound" `Quick
            test_capacity_is_no_bound;
          Alcotest.test_case "invariant-bounded ring" `Quick
            test_invariant_bounded_ring;
        ] );
    ]
