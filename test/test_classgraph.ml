(* Differential validation of the state-class construction: on random
   bounded timed nets the class graph must agree with the frozen
   explicit expansion (Timed_explicit) on everything the analyses
   consume — reachable markings, deadlocks, place bounds — and the
   packed store must decode every class consistently. *)

module Net = Pnut_core.Net
module Expr = Pnut_core.Expr
module Value = Pnut_core.Value
module B = Net.Builder
module Timed = Pnut_reach.Timed
module Tx = Pnut_oracle.Timed_explicit

(* -- random timed net generation --

   Small connected nets with deterministic delays drawn from every
   accepted duration kind: [Zero], [Const], degenerate [Uniform] and
   [Choice], and deterministic [Dynamic] expressions over a variable.
   Integer-valued delays keep residual arithmetic exact, so float
   comparisons between the two constructions never wobble. *)

type spec = {
  sp_places : int;
  sp_tokens : int list;
  sp_arcs : (int list * int list * int * int * int) list;
      (* inputs, outputs, firing code, enabling code, delay 1..3 *)
}

let gen_spec =
  QCheck2.Gen.(
    let* np = int_range 2 5 in
    let* ntr = int_range 1 5 in
    let* tokens = list_size (return np) (int_range 0 2) in
    let tokens =
      if List.for_all (fun t -> t = 0) tokens then 1 :: List.tl tokens
      else tokens
    in
    let gen_arc_list = list_size (int_range 1 2) (int_range 0 (np - 1)) in
    let* arcs =
      list_size (return ntr)
        (tup5 gen_arc_list gen_arc_list (int_range 0 4) (int_range 0 4)
           (int_range 1 3))
    in
    return { sp_places = np; sp_tokens = tokens; sp_arcs = arcs })

let duration code delay =
  let d = float_of_int delay in
  match code with
  | 0 -> Net.Zero
  | 1 -> Net.Const d
  | 2 -> Net.Uniform (d, d)
  | 3 -> Net.Choice [ (d, 1.0); (d, 3.0) ]
  | _ -> Net.Dynamic Expr.(var "dly" * int delay)

let build_net spec =
  let b = B.create "random-timed" ~variables:[ ("dly", Value.Int 1) ] in
  let places =
    List.mapi
      (fun i tokens -> B.add_place b (Printf.sprintf "p%d" i) ~initial:tokens)
      spec.sp_tokens
  in
  let place i = List.nth places (i mod spec.sp_places) in
  List.iteri
    (fun ti (inputs, outputs, fc, ec, delay) ->
      let dedup l = List.sort_uniq compare (List.map place l) in
      ignore
        (B.add_transition b
           (Printf.sprintf "t%d" ti)
           ~inputs:(List.map (fun p -> (p, 1)) (dedup inputs))
           ~outputs:(List.map (fun p -> (p, 1)) (dedup outputs))
           ~firing:(duration fc delay)
           ~enabling:(duration ec delay)
          : Net.transition_id))
    spec.sp_arcs;
  B.build b

(* Both constructions must finish for a comparison to mean anything;
   unbounded, too-large or too-slow nets are skipped (not failed): a
   build that degrades — state cap, wall clock or heap — counts as a
   skip.  The explicit oracle runs first because it reaches its cap
   fastest; the class graph is only built when the oracle completed. *)
let build_both ?(max_states = 3_000) net =
  let budget () = Pnut_exec.Budget.make ~wall_s:2.0 ~heap_mb:512 () in
  match Tx.build_supervised ~max_states ~budget:(budget ()) net with
  | Pnut_exec.Supervisor.Degraded _ -> None
  | Pnut_exec.Supervisor.Complete x -> (
    match Timed.build_supervised ~max_states ~budget:(budget ()) net with
    | Pnut_exec.Supervisor.Degraded _ -> None
    | Pnut_exec.Supervisor.Complete g -> Some (g, x))

let sorted_markings n state =
  List.init n state |> List.map Array.to_list |> List.sort_uniq compare

let class_markings g =
  sorted_markings (Timed.num_states g) (fun i ->
      (Timed.state g i).Timed.ts_marking)

let explicit_markings x =
  sorted_markings (Tx.num_states x) (fun i -> (Tx.state x i).Tx.ts_marking)

let deadlock_markings_class g =
  List.map (fun i -> Array.to_list (Timed.state g i).Timed.ts_marking)
    (Timed.deadlocks g)
  |> List.sort_uniq compare

let deadlock_markings_explicit x =
  List.map (fun i -> Array.to_list (Tx.state x i).Tx.ts_marking)
    (Tx.deadlocks x)
  |> List.sort_uniq compare

let prop_same_reachable_markings =
  QCheck2.Test.make ~name:"class graph preserves the reachable marking set"
    ~count:120 gen_spec (fun spec ->
      let net = build_net spec in
      match build_both net with
      | None -> true
      | Some (g, x) -> class_markings g = explicit_markings x)

let prop_same_deadlocks =
  QCheck2.Test.make ~name:"class graph preserves the deadlock set" ~count:120
    gen_spec (fun spec ->
      let net = build_net spec in
      match build_both net with
      | None -> true
      | Some (g, x) -> deadlock_markings_class g = deadlock_markings_explicit x)

let prop_same_bounds =
  QCheck2.Test.make ~name:"class graph preserves place bounds" ~count:120
    gen_spec (fun spec ->
      let net = build_net spec in
      match build_both net with
      | None -> true
      | Some (g, x) ->
        List.for_all
          (fun p -> Timed.max_tokens g p = Tx.max_tokens x p)
          (List.init spec.sp_places Fun.id))

let prop_never_larger =
  QCheck2.Test.make ~name:"class graph never exceeds the explicit expansion"
    ~count:120 gen_spec (fun spec ->
      let net = build_net spec in
      match build_both net with
      | None -> true
      | Some (g, x) -> Timed.num_states g <= Tx.num_states x)

(* The packed store interns each class exactly once and keeps its CSR
   edge arrays consistent: a class decodes under its own id, no two
   ids decode to the same class, every edge leaves its source and
   lands in range, and the predecessor lists invert the successors. *)
let prop_packed_store_consistent =
  QCheck2.Test.make ~name:"packed class graph decodes one class per id"
    ~count:60 gen_spec (fun spec ->
      let g = Timed.build ~max_states:3_000 (build_net spec) in
      let n = Timed.num_states g in
      let key i = { (Timed.state g i) with Timed.ts_index = 0 } in
      let ids = List.init n Fun.id in
      let edges dir =
        List.concat_map dir ids
        |> List.map (fun e -> (e.Timed.e_from, e.Timed.e_label, e.Timed.e_to))
        |> List.sort compare
      in
      List.for_all (fun i -> (Timed.state g i).Timed.ts_index = i) ids
      && List.length (List.sort_uniq compare (List.map key ids)) = n
      && List.for_all
           (fun i ->
             List.for_all
               (fun e ->
                 e.Timed.e_from = i && e.Timed.e_to >= 0 && e.Timed.e_to < n)
               (Timed.successors g i)
             && List.for_all (fun e -> e.Timed.e_to = i) (Timed.predecessors g i))
           ids
      && edges (Timed.successors g) = edges (Timed.predecessors g)
      && List.length (edges (Timed.successors g)) = Timed.num_edges g)

(* A net drawn by QCHECK_SEED=551362141: the explicit oracle hits the
   state cap in a fraction of a second, while the class construction
   crawls (a few hundred classes per second) towards its own cap.  It
   must be skipped within the budget, not explored for minutes. *)
let test_slow_class_net_skipped () =
  let net =
    build_net
      {
        sp_places = 2;
        sp_tokens = [ 0; 1 ];
        sp_arcs =
          [ ([ 0; 1 ], [ 1 ], 0, 0, 1); ([ 1 ], [ 1; 0 ], 4, 2, 1);
            ([ 0 ], [ 0 ], 3, 0, 3); ([ 1 ], [ 0; 1 ], 4, 3, 3);
            ([ 0; 0 ], [ 1; 1 ], 2, 1, 2) ];
      }
  in
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "skipped" true (build_both net = None);
  Alcotest.(check bool) "finishes in seconds" true
    (Unix.gettimeofday () -. t0 < 10.0)

(* -- the acceptance benchmark: the paper's Figure-5 pipeline with a
      10-cycle memory is where tick interpolation hurts the explicit
      expansion most -- *)

let test_pipeline_reduction () =
  let cfg = { Pnut_pipeline.Config.default with memory_cycles = 10.0 } in
  let net = Pnut_pipeline.Model.full cfg in
  let g = Timed.build ~max_states:100_000 net in
  let x = Tx.build ~max_states:100_000 net in
  Alcotest.(check bool) "both complete" true (Timed.complete g && Tx.complete x);
  Alcotest.(check bool)
    (Printf.sprintf "at least 5x smaller (%d classes vs %d states)"
       (Timed.num_states g) (Tx.num_states x))
    true
    (5 * Timed.num_states g <= Tx.num_states x);
  Alcotest.(check bool) "same reachable markings" true
    (class_markings g = explicit_markings x);
  Alcotest.(check bool) "same deadlock markings" true
    (deadlock_markings_class g = deadlock_markings_explicit x)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "state-class-differential"
    [
      ( "differential",
        [
          q prop_same_reachable_markings;
          q prop_same_deadlocks;
          q prop_same_bounds;
          q prop_never_larger;
          Alcotest.test_case "slow class net skipped" `Quick
            test_slow_class_net_skipped;
        ] );
      ("representations", [ q prop_packed_store_consistent ]);
      ( "pipeline",
        [ Alcotest.test_case "figure-5 reduction" `Quick test_pipeline_reduction ] );
    ]
