(* Tests for the branching-time temporal logic checker. *)

module Net = Pnut_core.Net
module B = Net.Builder
module Graph = Pnut_reach.Graph
module Ctl = Pnut_reach.Ctl

let atom s = Ctl.Atom (Pnut_lang.Parser.parse_expr s)

(* A fork: s0 -> s1 (left) or s2 (right); s1 cycles back to s0, s2 is
   terminal.
   places: start, left, right. *)
let fork_net () =
  let b = B.create "fork" in
  let start = B.add_place b "start" ~initial:1 in
  let left = B.add_place b "left" in
  let right = B.add_place b "right" in
  let _ = B.add_transition b "go_left" ~inputs:[ (start, 1) ] ~outputs:[ (left, 1) ] in
  let _ = B.add_transition b "go_right" ~inputs:[ (start, 1) ] ~outputs:[ (right, 1) ] in
  let _ = B.add_transition b "back" ~inputs:[ (left, 1) ] ~outputs:[ (start, 1) ] in
  B.build b

let fork_graph () = Graph.build (fork_net ())

let test_atoms_and_connectives () =
  let g = fork_graph () in
  Alcotest.(check bool) "initial start" true (Ctl.check g (atom "start == 1"));
  Alcotest.(check bool) "not right" true (Ctl.check g (Ctl.Not (atom "right == 1")));
  Alcotest.(check bool) "and" true
    (Ctl.check g (Ctl.And (atom "start == 1", atom "left == 0")));
  Alcotest.(check bool) "or" true
    (Ctl.check g (Ctl.Or (atom "right == 1", atom "start == 1")));
  Alcotest.(check bool) "implies" true
    (Ctl.check g (Ctl.Implies (atom "right == 1", atom "start == 0")));
  Alcotest.(check bool) "true" true (Ctl.check g Ctl.True);
  Alcotest.(check bool) "false" false (Ctl.check g Ctl.False)

let test_ex_ax () =
  let g = fork_graph () in
  (* from s0, some successor has left, some has right; not all have left *)
  Alcotest.(check bool) "EX left" true (Ctl.check g (Ctl.EX (atom "left == 1")));
  Alcotest.(check bool) "EX right" true (Ctl.check g (Ctl.EX (atom "right == 1")));
  Alcotest.(check bool) "AX left fails" false
    (Ctl.check g (Ctl.AX (atom "left == 1")));
  Alcotest.(check bool) "AX (left or right)" true
    (Ctl.check g (Ctl.AX (Ctl.Or (atom "left == 1", atom "right == 1"))))

let test_ef_af () =
  let g = fork_graph () in
  Alcotest.(check bool) "EF right" true (Ctl.check g (Ctl.EF (atom "right == 1")));
  (* the left loop can avoid 'right' forever *)
  Alcotest.(check bool) "AF right fails" false
    (Ctl.check g (Ctl.AF (atom "right == 1")))

let test_eg_ag () =
  let g = fork_graph () in
  (* looping left forever keeps right empty *)
  Alcotest.(check bool) "EG no-right" true
    (Ctl.check g (Ctl.EG (atom "right == 0")));
  Alcotest.(check bool) "AG no-right fails" false
    (Ctl.check g (Ctl.AG (atom "right == 0")));
  (* token conservation is a real AG invariant *)
  Alcotest.(check bool) "AG one token" true
    (Ctl.check g (Ctl.AG (atom "start + left + right == 1")))

let test_eu_au () =
  let g = fork_graph () in
  (* start/left states until right *)
  Alcotest.(check bool) "E[not-right U right]" true
    (Ctl.check g (Ctl.EU (atom "right == 0", atom "right == 1")));
  Alcotest.(check bool) "A[...U right] fails (left loop)" false
    (Ctl.check g (Ctl.AU (atom "right == 0", atom "right == 1")))

let test_deadlock_self_loop_semantics () =
  (* terminal state: AG/EG over the implicit self-loop *)
  let b = B.create "line" in
  let a = B.add_place b "a" ~initial:1 in
  let z = B.add_place b "z" in
  let _ = B.add_transition b "t" ~inputs:[ (a, 1) ] ~outputs:[ (z, 1) ] in
  let g = Graph.build (B.build b) in
  (* every path inevitably reaches (and stays in) z *)
  Alcotest.(check bool) "AF z" true (Ctl.check g (Ctl.AF (atom "z == 1")));
  Alcotest.(check bool) "EG eventually-stuck" true
    (Ctl.check g (Ctl.EF (Ctl.EG (atom "z == 1"))));
  (* AX at the deadlock state refers to itself *)
  let truth = Ctl.sat g (Ctl.AX (atom "z == 1")) in
  Alcotest.(check bool) "AX at terminal state" true truth.(1)

let test_counterexample () =
  let g = fork_graph () in
  (match Ctl.counterexample g (atom "start == 1") with
  | Some i -> Alcotest.(check bool) "non-initial state" true (i > 0)
  | None -> Alcotest.fail "expected a counterexample");
  Alcotest.(check (option int)) "invariant has none" None
    (Ctl.counterexample g (atom "start + left + right == 1"))

let test_truncated_graph_rejected () =
  let b = B.create "unbounded" in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  let _ = B.add_transition b "pump" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1); (q, 1) ] in
  let g = Graph.build ~max_states:5 (B.build b) in
  Alcotest.check_raises "truncated rejected"
    (Invalid_argument "Ctl.check: reachability graph was truncated") (fun () ->
      ignore (Ctl.check g Ctl.True))

let test_unknown_atom_identifier () =
  let g = fork_graph () in
  (match Ctl.check g (atom "ghost == 1") with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Testutil.check_contains "message" msg "unknown identifier ghost")

let test_non_boolean_atom () =
  let g = fork_graph () in
  (match Ctl.check g (atom "start + 1") with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Testutil.check_contains "message" msg "not boolean");
  (* a type error inside the atom is bad input too *)
  Alcotest.check_raises "ill-typed"
    (Invalid_argument "cannot order boolean values") (fun () ->
      ignore (Ctl.check g (atom "start < true")))

let test_pipeline_properties () =
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let g = Graph.build ~max_states:20000 net in
  let check f = Ctl.check g f in
  Alcotest.(check bool) "AG bus one-hot" true
    (check (Ctl.AG (atom "Bus_free + Bus_busy == 1")));
  Alcotest.(check bool) "AG buffer conservation" true
    (check
       (Ctl.AG (atom "Full_I_buffers + Empty_I_buffers + 2 * pre_fetching == 6")));
  (* from any state, the bus can become free again *)
  Alcotest.(check bool) "AG EF bus free" true
    (check (Ctl.AG (Ctl.EF (atom "Bus_free == 1"))));
  (* the paper's inev on the branching semantics: whenever busy, the bus
     is inevitably freed *)
  Alcotest.(check bool) "AG (busy -> inev free)" true
    (check
       (Ctl.AG (Ctl.Implies (atom "Bus_busy == 1", Ctl.AF (atom "Bus_free == 1")))))

let () =
  Alcotest.run "ctl"
    [
      ( "operators",
        [
          Alcotest.test_case "atoms/connectives" `Quick test_atoms_and_connectives;
          Alcotest.test_case "EX/AX" `Quick test_ex_ax;
          Alcotest.test_case "EF/AF" `Quick test_ef_af;
          Alcotest.test_case "EG/AG" `Quick test_eg_ag;
          Alcotest.test_case "EU/AU" `Quick test_eu_au;
          Alcotest.test_case "deadlock self-loop" `Quick
            test_deadlock_self_loop_semantics;
        ] );
      ( "interface",
        [
          Alcotest.test_case "counterexample" `Quick test_counterexample;
          Alcotest.test_case "truncated rejected" `Quick test_truncated_graph_rejected;
          Alcotest.test_case "unknown identifier" `Quick test_unknown_atom_identifier;
          Alcotest.test_case "non-boolean" `Quick test_non_boolean_atom;
        ] );
      ( "pipeline",
        [ Alcotest.test_case "paper properties" `Slow test_pipeline_properties ] );
    ]
