(* Tests for the net structure, builder, enabledness and firing rules. *)

module Net = Pnut_core.Net
module Marking = Pnut_core.Marking
module Env = Pnut_core.Env
module Expr = Pnut_core.Expr
module Value = Pnut_core.Value
module Prng = Pnut_core.Prng
module B = Net.Builder

(* A small producer/consumer net used across tests. *)
let build_simple () =
  let b = B.create "simple" in
  let src = B.add_place b "src" ~initial:3 in
  let buf = B.add_place b "buf" ~capacity:2 in
  let produce =
    B.add_transition b "produce" ~inputs:[ (src, 1) ] ~outputs:[ (buf, 1) ]
  in
  let consume =
    B.add_transition b "consume" ~inputs:[ (buf, 2) ] ~outputs:[]
  in
  (B.build b, src, buf, produce, consume)

let test_builder_lookup () =
  let net, src, buf, produce, consume = build_simple () in
  Alcotest.(check int) "places" 2 (Net.num_places net);
  Alcotest.(check int) "transitions" 2 (Net.num_transitions net);
  Alcotest.(check int) "place id by name" src (Net.place_id net "src");
  Alcotest.(check int) "buf id" buf (Net.place_id net "buf");
  Alcotest.(check int) "transition id" produce (Net.transition_id net "produce");
  Alcotest.(check int) "consume id" consume (Net.transition_id net "consume");
  Alcotest.(check bool) "find_place none" true (Net.find_place net "zzz" = None);
  Alcotest.check_raises "missing place" Not_found (fun () ->
      ignore (Net.place_id net "zzz"))

let test_initial_marking () =
  let net, src, buf, _, _ = build_simple () in
  let m = Net.initial_marking net in
  Alcotest.(check int) "src tokens" 3 (Marking.get m src);
  Alcotest.(check int) "buf tokens" 0 (Marking.get m buf)

let test_duplicate_names_rejected () =
  let b = B.create "dup" in
  let _ = B.add_place b "p" in
  Alcotest.check_raises "dup place"
    (Invalid_argument "Net.Builder.add_place: duplicate place p") (fun () ->
      ignore (B.add_place b "p"));
  let _ = B.add_transition b "t" in
  Alcotest.check_raises "dup transition"
    (Invalid_argument "Net.Builder.add_transition: duplicate transition t")
    (fun () -> ignore (B.add_transition b "t"))

let test_builder_validation () =
  let b = B.create "bad" in
  let p = B.add_place b "p" in
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Net.Builder: input arc of t has weight 0") (fun () ->
      ignore (B.add_transition b "t" ~inputs:[ (p, 0) ]));
  Alcotest.check_raises "unknown place"
    (Invalid_argument "Net.Builder: output arc of t2 names unknown place 99")
    (fun () -> ignore (B.add_transition b "t2" ~outputs:[ (99, 1) ]));
  Alcotest.check_raises "bad frequency"
    (Invalid_argument "Net.Builder.add_transition: non-positive frequency for t3")
    (fun () -> ignore (B.add_transition b "t3" ~frequency:0.0));
  Alcotest.check_raises "negative initial"
    (Invalid_argument "Net.Builder.add_place: negative initial marking for q")
    (fun () -> ignore (B.add_place b "q" ~initial:(-1)));
  Alcotest.check_raises "capacity below initial"
    (Invalid_argument "Net.Builder.add_place: capacity below initial for r")
    (fun () -> ignore (B.add_place b "r" ~initial:3 ~capacity:2))

(* A place repeated within one arc list is one arc: input and output
   weights add up, an inhibitor keeps the smallest weight. *)
let test_repeated_arcs () =
  let b = B.create "odd" in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  let take =
    B.add_transition b "take" ~inputs:[ (p, 1); (q, 1); (p, 1) ]
      ~outputs:[ (q, 2); (q, 1) ]
  in
  let guard = B.add_transition b "guard" ~inhibitors:[ (q, 3); (q, 2) ] in
  let net = B.build b in
  let arcs l = List.map (fun a -> (a.Net.a_place, a.Net.a_weight)) l in
  let tr = Net.transition net take in
  Alcotest.(check (list (pair int int))) "inputs add up" [ (p, 2); (q, 1) ]
    (arcs tr.Net.t_inputs);
  Alcotest.(check (list (pair int int))) "outputs add up" [ (q, 3) ]
    (arcs tr.Net.t_outputs);
  Alcotest.(check (list (pair int int))) "smallest inhibitor wins" [ (q, 2) ]
    (arcs (Net.transition net guard).Net.t_inhibitors);
  let m = Net.initial_marking net in
  let env = Net.initial_env net in
  Marking.set m q 1;
  Alcotest.(check bool) "one token of p is not enough" false
    (Net.enabled net m env tr);
  Marking.set m p 2;
  Alcotest.(check bool) "two tokens of p are" true (Net.enabled net m env tr)

let test_empty_net_rejected () =
  let b = B.create "empty" in
  Alcotest.check_raises "empty" (Invalid_argument "Net.Builder.build: empty net")
    (fun () -> ignore (B.build b))

let test_enabledness_weights () =
  let net, _, buf, produce, consume = build_simple () in
  let m = Net.initial_marking net in
  let env = Net.initial_env net in
  let tr_produce = Net.transition net produce in
  let tr_consume = Net.transition net consume in
  Alcotest.(check bool) "produce enabled" true (Net.enabled net m env tr_produce);
  Alcotest.(check bool) "consume needs 2" false (Net.enabled net m env tr_consume);
  Marking.set m buf 2;
  Alcotest.(check bool) "consume enabled at 2" true
    (Net.enabled net m env tr_consume)

let test_inhibitor_semantics () =
  let b = B.create "inhib" in
  let p = B.add_place b "p" ~initial:1 in
  let blocker = B.add_place b "blocker" in
  let t =
    B.add_transition b "t" ~inputs:[ (p, 1) ] ~inhibitors:[ (blocker, 2) ]
  in
  let net = B.build b in
  let m = Net.initial_marking net in
  let env = Net.initial_env net in
  let tr = Net.transition net t in
  Alcotest.(check bool) "0 < 2: enabled" true (Net.enabled net m env tr);
  Marking.set m blocker 1;
  Alcotest.(check bool) "1 < 2: still enabled" true (Net.enabled net m env tr);
  Marking.set m blocker 2;
  Alcotest.(check bool) "2 >= 2: inhibited" false (Net.enabled net m env tr)

let test_predicate_enabledness () =
  let b = B.create "pred" ~variables:[ ("go", Value.Bool false) ] in
  let p = B.add_place b "p" ~initial:1 in
  let t =
    B.add_transition b "t" ~inputs:[ (p, 1) ] ~predicate:(Expr.var "go")
  in
  let net = B.build b in
  let m = Net.initial_marking net in
  let env = Net.initial_env net in
  let tr = Net.transition net t in
  Alcotest.(check bool) "predicate false blocks" false (Net.enabled net m env tr);
  Env.set env "go" (Value.Bool true);
  Alcotest.(check bool) "predicate true allows" true (Net.enabled net m env tr)

let test_consume_produce () =
  let net, src, buf, produce, _ = build_simple () in
  let m = Net.initial_marking net in
  let tr = Net.transition net produce in
  Net.consume net m tr;
  Alcotest.(check int) "src decremented" 2 (Marking.get m src);
  Alcotest.(check int) "buf unchanged by consume" 0 (Marking.get m buf);
  Net.produce net m tr;
  Alcotest.(check int) "buf incremented" 1 (Marking.get m buf)

let test_consume_disabled_raises () =
  let net, src, _, produce, _ = build_simple () in
  let m = Net.initial_marking net in
  Marking.set m src 0;
  Alcotest.check_raises "consume disabled"
    (Invalid_argument "Net.consume: transition produce is not enabled")
    (fun () -> Net.consume net m (Net.transition net produce))

let test_sample_durations () =
  let env = Env.create () in
  let g = Prng.create 4 in
  Alcotest.(check (float 0.0)) "zero" 0.0 (Net.sample_duration env Net.Zero);
  Alcotest.(check (float 0.0)) "const" 2.5 (Net.sample_duration env (Net.Const 2.5));
  let u = Net.sample_duration ~prng:g env (Net.Uniform (1.0, 2.0)) in
  Alcotest.(check bool) "uniform in range" true (u >= 1.0 && u < 2.0);
  let e = Net.sample_duration ~prng:g env (Net.Exponential 3.0) in
  Alcotest.(check bool) "exponential non-negative" true (e >= 0.0);
  let c = Net.sample_duration ~prng:g env (Net.Choice [ (1.0, 1.0); (5.0, 1.0) ]) in
  Alcotest.(check bool) "choice picks a value" true
    (Float.equal c 1.0 || Float.equal c 5.0);
  Env.set env "n" (Value.Int 3);
  Alcotest.(check (float 0.0)) "dynamic" 6.0
    (Net.sample_duration env (Net.Dynamic Expr.(var "n" * int 2)))

let test_sample_duration_errors () =
  let env = Env.create () in
  Alcotest.check_raises "stochastic without prng"
    (Invalid_argument "Net.sample_duration: uniform requires a random stream")
    (fun () -> ignore (Net.sample_duration env (Net.Uniform (0.0, 1.0))));
  Alcotest.check_raises "negative const"
    (Invalid_argument "Net.sample_duration: negative delay") (fun () ->
      ignore (Net.sample_duration env (Net.Const (-1.0))));
  Alcotest.check_raises "NaN const"
    (Invalid_argument "Net.sample_duration: NaN delay") (fun () ->
      ignore (Net.sample_duration env (Net.Const Float.nan)));
  Alcotest.check_raises "NaN compiled"
    (Invalid_argument "firing time of t: NaN delay") (fun () ->
      ignore
        (Net.compile_duration env (Net.Const Float.nan)
           ~who:(fun () -> "firing time of t")
           ()))

let test_duration_classification () =
  let det = Pnut_core.Duration.deterministic in
  Alcotest.(check bool) "const det" true (det (Net.Const 1.0));
  Alcotest.(check bool) "exp stochastic" false (det (Net.Exponential 1.0));
  Alcotest.(check bool) "degenerate uniform det" true
    (det (Net.Uniform (2.0, 2.0)));
  Alcotest.(check bool) "degenerate choice det" true
    (det (Net.Choice [ (3.0, 1.0); (3.0, 9.0) ]));
  Alcotest.(check bool) "spread choice stochastic" false
    (det (Net.Choice [ (1.0, 1.0); (2.0, 1.0) ]))

let test_pp_contains_structure () =
  let net, _, _, _, _ = build_simple () in
  let text = Format.asprintf "%a" Net.pp net in
  List.iter
    (fun needle -> Testutil.check_contains "net text" text needle)
    [ "net simple"; "place src init 3"; "transition produce"; "buf * 2" ]

let () =
  Alcotest.run "net"
    [
      ( "builder",
        [
          Alcotest.test_case "lookup" `Quick test_builder_lookup;
          Alcotest.test_case "initial marking" `Quick test_initial_marking;
          Alcotest.test_case "duplicates" `Quick test_duplicate_names_rejected;
          Alcotest.test_case "validation" `Quick test_builder_validation;
          Alcotest.test_case "empty rejected" `Quick test_empty_net_rejected;
          Alcotest.test_case "repeated arcs" `Quick test_repeated_arcs;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "weighted enabling" `Quick test_enabledness_weights;
          Alcotest.test_case "inhibitors" `Quick test_inhibitor_semantics;
          Alcotest.test_case "predicates" `Quick test_predicate_enabledness;
          Alcotest.test_case "consume/produce" `Quick test_consume_produce;
          Alcotest.test_case "consume disabled" `Quick test_consume_disabled_raises;
        ] );
      ( "durations",
        [
          Alcotest.test_case "sampling" `Quick test_sample_durations;
          Alcotest.test_case "errors" `Quick test_sample_duration_errors;
          Alcotest.test_case "classification" `Quick test_duration_classification;
        ] );
      ( "printing",
        [ Alcotest.test_case "textual form" `Quick test_pp_contains_structure ] );
    ]
