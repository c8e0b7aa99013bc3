(* Tests for markings and for the incidence-matrix / invariant analysis. *)

module Marking = Pnut_core.Marking
module Incidence = Pnut_core.Incidence
module Net = Pnut_core.Net
module B = Net.Builder

(* -- Marking -- *)

let test_marking_basics () =
  let m = Marking.create 3 in
  Alcotest.(check int) "size" 3 (Marking.size m);
  Alcotest.(check int) "initial zero" 0 (Marking.get m 1);
  Marking.set m 1 4;
  Alcotest.(check int) "set/get" 4 (Marking.get m 1);
  Marking.add m 1 (-3);
  Alcotest.(check int) "add negative" 1 (Marking.get m 1);
  Alcotest.(check int) "total" 1 (Marking.total m)

let test_marking_negative_rejected () =
  let m = Marking.create 2 in
  Alcotest.check_raises "set negative"
    (Invalid_argument "Marking.set: negative count") (fun () ->
      Marking.set m 0 (-1));
  Alcotest.check_raises "add below zero"
    (Invalid_argument "Marking.add: place 0 would hold -2 tokens") (fun () ->
      Marking.add m 0 (-2));
  Alcotest.check_raises "of_array negative"
    (Invalid_argument "Marking.of_array: negative count") (fun () ->
      ignore (Marking.of_array [| 1; -1 |]))

let test_marking_add_overflow () =
  (* PR 7 regression: [add] used to wrap silently past [max_int] and
     then report the wrapped negative as "would hold n tokens" *)
  let m = Marking.create 1 in
  Marking.set m 0 max_int;
  Alcotest.check_raises "max_int + 1 overflows"
    (Invalid_argument
       (Printf.sprintf
          "Marking.add: place 0 token count overflows max_int (%d + 1)"
          max_int))
    (fun () -> Marking.add m 0 1);
  Alcotest.(check int) "count untouched after the failed add" max_int
    (Marking.get m 0);
  (* the largest legal add still works *)
  Marking.set m 0 1;
  Marking.add m 0 (max_int - 1);
  Alcotest.(check int) "reaches max_int exactly" max_int (Marking.get m 0);
  Marking.set m 0 (max_int - 2);
  Alcotest.check_raises "near-max wrap detected"
    (Invalid_argument
       (Printf.sprintf
          "Marking.add: place 0 token count overflows max_int (%d + 5)"
          (max_int - 2)))
    (fun () -> Marking.add m 0 5)

let test_marking_copy_equal () =
  let m = Marking.of_array [| 1; 2; 3 |] in
  let c = Marking.copy m in
  Alcotest.(check bool) "copies equal" true (Marking.equal m c);
  Marking.set c 0 9;
  Alcotest.(check bool) "independent" false (Marking.equal m c);
  Alcotest.(check int) "original untouched" 1 (Marking.get m 0)

let test_marking_keys () =
  let a = Marking.of_array [| 1; 2 |] in
  let b = Marking.of_array [| 1; 2 |] in
  let c = Marking.of_array [| 2; 1 |] in
  Alcotest.(check bool) "same marking" true (Marking.equal a b);
  Alcotest.(check bool) "different marking" false (Marking.equal a c);
  Alcotest.(check int) "hash consistent" (Marking.hash a) (Marking.hash b)

(* -- Incidence -- *)

(* The paper's bus: Bus_free <-> Bus_busy moved by two transitions. *)
let bus_net () =
  let b = B.create "bus" in
  let free = B.add_place b "Bus_free" ~initial:1 in
  let busy = B.add_place b "Bus_busy" in
  let grab = B.add_transition b "grab" ~inputs:[ (free, 1) ] ~outputs:[ (busy, 1) ] in
  let release =
    B.add_transition b "release" ~inputs:[ (busy, 1) ] ~outputs:[ (free, 1) ]
  in
  (B.build b, free, busy, grab, release)

let test_incidence_entries () =
  let net, free, busy, grab, release = bus_net () in
  let c = Incidence.of_net net in
  Alcotest.(check int) "np" 2 (Incidence.num_places c);
  Alcotest.(check int) "nt" 2 (Incidence.num_transitions c);
  Alcotest.(check int) "grab takes free" (-1) (Incidence.entry c free grab);
  Alcotest.(check int) "grab gives busy" 1 (Incidence.entry c busy grab);
  Alcotest.(check int) "release takes busy" (-1) (Incidence.entry c busy release);
  Alcotest.(check int) "release gives free" 1 (Incidence.entry c free release)

let test_incidence_weights_and_selfloop () =
  let b = B.create "weights" in
  let p = B.add_place b "p" ~initial:4 in
  let q = B.add_place b "q" in
  let t =
    (* self-loop on p with weight 2 in, 3 out: net effect +1 *)
    B.add_transition b "t" ~inputs:[ (p, 2) ] ~outputs:[ (p, 3); (q, 2) ]
  in
  let net = B.build b in
  let c = Incidence.of_net net in
  Alcotest.(check int) "self-loop net effect" 1 (Incidence.entry c p t);
  Alcotest.(check int) "weighted output" 2 (Incidence.entry c q t);
  let m = [| 4; 0 |] in
  Incidence.apply c m t;
  Alcotest.(check (array int)) "apply" [| 5; 2 |] m

let test_bus_p_invariant () =
  let net, free, busy, _, _ = bus_net () in
  let c = Incidence.of_net net in
  let invs = Incidence.p_invariants c in
  Alcotest.(check int) "one invariant" 1 (List.length invs);
  let y = List.hd invs in
  Alcotest.(check int) "free weight" 1 y.(free);
  Alcotest.(check int) "busy weight" 1 y.(busy);
  Alcotest.(check bool) "conserved" true (Incidence.conserved c y);
  (* invariant value on the initial marking *)
  Alcotest.(check int) "value 1" 1 (Incidence.weighted_sum y [| 1; 0 |]);
  ignore net

let test_bus_t_invariant () =
  let net, _, _, grab, release = bus_net () in
  let c = Incidence.of_net net in
  let invs = Incidence.t_invariants c in
  Alcotest.(check int) "one t-invariant" 1 (List.length invs);
  let x = List.hd invs in
  Alcotest.(check int) "grab count" 1 x.(grab);
  Alcotest.(check int) "release count" 1 x.(release);
  ignore net

let test_unbounded_net_not_covered () =
  let b = B.create "source" in
  let p = B.add_place b "p" in
  let _ = B.add_transition b "spawn" ~outputs:[ (p, 1) ] in
  let net = B.build b in
  let c = Incidence.of_net net in
  Alcotest.(check (list (array int))) "no p-invariants" []
    (Incidence.p_invariants c)

let test_pipeline_invariants_conserved () =
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let c = Incidence.of_net net in
  let invs = Incidence.p_invariants c in
  Alcotest.(check bool) "found invariants" true (List.length invs > 0);
  List.iter
    (fun y ->
      Alcotest.(check bool) "each conserved" true (Incidence.conserved c y))
    invs;
  (* the bus one-hot invariant must be among them *)
  let free = Net.place_id net "Bus_free" in
  let busy = Net.place_id net "Bus_busy" in
  let bus_inv =
    List.exists
      (fun y ->
        y.(free) = 1 && y.(busy) = 1
        && Array.to_list y
           |> List.mapi (fun i w -> (i, w))
           |> List.for_all (fun (i, w) -> i = free || i = busy || w = 0))
      invs
  in
  Alcotest.(check bool) "bus one-hot invariant found" true bus_inv

let test_pipeline_t_invariant_reproduces_marking () =
  (* firing each transition as many times as a T-invariant says returns
     the net to its starting marking: verify algebraically with the
     incidence matrix on every T-invariant of the pipeline *)
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let c = Incidence.of_net net in
  let invs = Incidence.t_invariants c in
  Alcotest.(check bool) "t-invariants exist" true (invs <> []);
  List.iter
    (fun x ->
      let m = Array.make (Net.num_places net) 0 in
      Array.iteri
        (fun t count ->
          for _ = 1 to count do
            Incidence.apply c m t
          done)
        x;
      Alcotest.(check (array int)) "marking unchanged"
        (Array.make (Net.num_places net) 0)
        m)
    invs

(* The pipeline with its 20 place declarations rotated by 10: the
   T-invariant elimination runs over places, and in that order its
   tableau explodes.  The row limit must trip before any combination is
   built — checked only afterwards, the product exhausted memory first.
   The P-invariants eliminate over transitions, whose order is
   unchanged, and still complete. *)
let test_farkas_row_limit () =
  let pipeline = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let text = Format.asprintf "%a" Net.pp pipeline in
  let lines = String.split_on_char '\n' text in
  let is_place l = String.starts_with ~prefix:"place " l in
  let places = List.filter is_place lines in
  let rest = List.filter (fun l -> not (is_place l)) lines in
  let rotated =
    List.filteri (fun i _ -> i >= 10) places
    @ List.filteri (fun i _ -> i < 10) places
  in
  let net =
    Pnut_lang.Parser.parse_net
      (String.concat "\n" ((List.hd rest :: rotated) @ List.tl rest))
  in
  let c = Incidence.of_net net in
  let limit =
    Invalid_argument "Incidence: invariant computation exceeded row limit"
  in
  Alcotest.(check int) "p_invariants complete"
    (List.length (Incidence.p_invariants (Incidence.of_net pipeline)))
    (List.length (Incidence.p_invariants c));
  Alcotest.check_raises "t_invariants" limit (fun () ->
      ignore (Incidence.t_invariants c))

let test_place_bounds () =
  (* bus: the one-hot invariant bounds both places at the invariant
     total; pump: q has no invariant cover and no capacity — unknown *)
  let net, free, busy, _, _ = bus_net () in
  let bounds = Incidence.place_bounds net in
  Alcotest.(check bool) "free bounded at 1" true (bounds.(free) = Some 1);
  Alcotest.(check bool) "busy bounded at 1" true (bounds.(busy) = Some 1);
  let b = B.create "pump" in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  let r = B.add_place b "r" ~capacity:7 in
  ignore
    (B.add_transition b "t" ~inputs:[ (p, 1) ]
       ~outputs:[ (p, 1); (q, 1); (r, 1) ]
      : Net.transition_id);
  let pump = B.build b in
  let bounds = Incidence.place_bounds pump in
  Alcotest.(check bool) "p bounded by its invariant" true
    (bounds.(p) = Some 1);
  Alcotest.(check bool) "q unbounded" true (bounds.(q) = None);
  Alcotest.(check bool) "r bounded by declared capacity" true
    (bounds.(r) = Some 7)

(* -- static dependency relations (stubborn-set input) -- *)

let ids = Alcotest.(array int)

let test_bus_relations () =
  let net, free, busy, grab, release = bus_net () in
  let c = Incidence.conflicts net in
  (* grab and release share both places — mutually conflicting *)
  Alcotest.check ids "conflicts grab" [| release |] c.(grab);
  Alcotest.check ids "conflicts release" [| grab |] c.(release);
  let e = Incidence.enablers net in
  Alcotest.check ids "free produced by release" [| release |] e.(free);
  Alcotest.check ids "busy produced by grab" [| grab |] e.(busy);
  let k = Incidence.consumers net in
  Alcotest.check ids "free consumed by grab" [| grab |] k.(free);
  Alcotest.check ids "busy consumed by release" [| release |] k.(busy)

let test_prefetch_relations () =
  (* Figure 1 closed with the consume transition; ids in build order:
     Start_prefetch 0, End_prefetch 1, Decode 2, consume 3.  Hand-check:
     Start/End share the bus and pre_fetching; Start/Decode share
     Empty_I_buffers; End/Decode share Full_I_buffers; Decode/consume
     share Decoded_instruction and Decoder_ready; Start and End share
     nothing with consume. *)
  let net = Pnut_pipeline.Model.prefetch_only Pnut_pipeline.Config.default in
  let start = Net.transition_id net "Start_prefetch" in
  let stop = Net.transition_id net "End_prefetch" in
  let decode = Net.transition_id net "Decode" in
  let consume = Net.transition_id net "consume" in
  let c = Incidence.conflicts net in
  Alcotest.check ids "Start_prefetch" [| stop; decode |] c.(start);
  Alcotest.check ids "End_prefetch" [| start; decode |] c.(stop);
  Alcotest.check ids "Decode" [| start; stop; consume |] c.(decode);
  Alcotest.check ids "consume" [| decode |] c.(consume);
  let e = Incidence.enablers net in
  let k = Incidence.consumers net in
  let p name = Net.place_id net name in
  Alcotest.check ids "Bus_free refilled by End" [| stop |] e.(p "Bus_free");
  Alcotest.check ids "Bus_free drained by Start" [| start |] k.(p "Bus_free");
  Alcotest.check ids "buffers refilled by Decode" [| decode |]
    e.(p "Empty_I_buffers");
  Alcotest.check ids "buffers drained by Start" [| start |]
    k.(p "Empty_I_buffers");
  Alcotest.check ids "Full filled by End" [| stop |] e.(p "Full_I_buffers");
  Alcotest.check ids "Full drained by Decode" [| decode |]
    k.(p "Full_I_buffers");
  Alcotest.check ids "decoder recycled by consume" [| consume |]
    e.(p "Decoder_ready");
  Alcotest.check ids "decoder held by Decode" [| decode |]
    k.(p "Decoder_ready");
  (* pending places carry only inhibitor arcs here: nothing moves them *)
  Alcotest.check ids "no producer of Operand_fetch_pending" [||]
    e.(p "Operand_fetch_pending");
  Alcotest.check ids "no consumer of Operand_fetch_pending" [||]
    k.(p "Operand_fetch_pending")

let test_relation_selfloop_and_inhibitor () =
  (* a pure self-loop moves nothing; an inhibitor arc relates but never
     produces or consumes *)
  let b = B.create "rel" in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  let keep =
    B.add_transition b "keep" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1) ]
  in
  let guard =
    B.add_transition b "guard" ~inhibitors:[ (p, 1) ] ~outputs:[ (q, 1) ]
  in
  let net = B.build b in
  let c = Incidence.conflicts net in
  Alcotest.check ids "self-loop still conflicts via p" [| guard |] c.(keep);
  Alcotest.check ids "inhibitor conflicts via p" [| keep |] c.(guard);
  let e = Incidence.enablers net in
  let k = Incidence.consumers net in
  Alcotest.check ids "self-loop produces nothing into p" [||] e.(p);
  Alcotest.check ids "self-loop consumes nothing from p" [||] k.(p);
  Alcotest.check ids "guard fills q" [| guard |] e.(q)

let test_full_pipeline_relations_symmetric () =
  (* structural sanity on the Figure 1-3 net: the conflict relation is
     symmetric and irreflexive, and every producer/consumer entry moves
     the place it is filed under *)
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let c = Incidence.conflicts net in
  Array.iteri
    (fun t row ->
      Array.iter
        (fun t' ->
          Alcotest.(check bool) "irreflexive" true (t' <> t);
          Alcotest.(check bool) "symmetric" true
            (Array.exists (fun x -> x = t) c.(t')))
        row)
    c;
  let inc = Incidence.of_net net in
  let e = Incidence.enablers net in
  let k = Incidence.consumers net in
  Array.iteri
    (fun p row ->
      Array.iter
        (fun t ->
          Alcotest.(check bool) "producer raises" true
            (Incidence.entry inc p t > 0))
        row;
      Array.iter
        (fun t ->
          Alcotest.(check bool) "consumer lowers" true
            (Incidence.entry inc p t < 0))
        k.(p))
    e

let test_pp_vector () =
  let net, _, _, _, _ = bus_net () in
  let s = Format.asprintf "%a" (Incidence.pp_vector net `Place) [| 1; 2 |] in
  Alcotest.(check string) "rendering" "Bus_free + 2*Bus_busy" s

(* property: along any simulation trace, the adjusted invariant value
     y.m + sum_t in_flight(t) * (y . W_out(t))
   is constant for every P-invariant y.  (Tokens inside a firing
   transition are on neither side, so they are accounted by the output
   weights: y.W_out = y.W_in because y^T C = 0.) *)
let prop_invariant_constant =
  QCheck2.Test.make ~name:"P-invariants constant under firing" ~count:50
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
      let c = Incidence.of_net net in
      let invs = Incidence.p_invariants c in
      let trace, _ = Pnut_sim.Simulator.trace ~seed ~max_events:200 net in
      let y_out y tid =
        List.fold_left
          (fun acc { Net.a_place; a_weight } -> acc + (y.(a_place) * a_weight))
          0
          (Net.transition net tid).Net.t_outputs
      in
      (* in-flight counts including only starts that actually consumed
         tokens: atomic (zero-duration) firings emit an empty start
         delta and move everything at the paired end delta. *)
      let deltas = Pnut_trace.Trace.deltas trace in
      let consuming = Hashtbl.create 64 in
      Array.iter
        (fun (d : Pnut_trace.Trace.delta) ->
          if d.Pnut_trace.Trace.d_kind = Pnut_trace.Trace.Fire_start
             && d.Pnut_trace.Trace.d_marking <> []
          then Hashtbl.replace consuming d.Pnut_trace.Trace.d_firing ())
        deltas;
      List.for_all
        (fun y ->
          let m = Array.copy (Pnut_trace.Trace.header trace).Pnut_trace.Trace.h_initial in
          let in_transit = ref 0 in
          let v0 = Incidence.weighted_sum y m in
          let ok = ref true in
          Array.iter
            (fun (d : Pnut_trace.Trace.delta) ->
              List.iter
                (fun (p, dm) -> m.(p) <- m.(p) + dm)
                d.Pnut_trace.Trace.d_marking;
              (if Hashtbl.mem consuming d.Pnut_trace.Trace.d_firing then
                 let w = y_out y d.Pnut_trace.Trace.d_transition in
                 match d.Pnut_trace.Trace.d_kind with
                 | Pnut_trace.Trace.Fire_start -> in_transit := !in_transit + w
                 | Pnut_trace.Trace.Fire_end -> in_transit := !in_transit - w);
              if Incidence.weighted_sum y m + !in_transit <> v0 then ok := false)
            deltas;
          !ok)
        invs)

let () =
  Alcotest.run "marking-incidence"
    [
      ( "marking",
        [
          Alcotest.test_case "basics" `Quick test_marking_basics;
          Alcotest.test_case "negative rejected" `Quick test_marking_negative_rejected;
          Alcotest.test_case "overflow rejected" `Quick
            test_marking_add_overflow;
          Alcotest.test_case "copy" `Quick test_marking_copy_equal;
          Alcotest.test_case "keys" `Quick test_marking_keys;
        ] );
      ( "incidence",
        [
          Alcotest.test_case "entries" `Quick test_incidence_entries;
          Alcotest.test_case "weights and self-loops" `Quick
            test_incidence_weights_and_selfloop;
          Alcotest.test_case "bus P-invariant" `Quick test_bus_p_invariant;
          Alcotest.test_case "bus T-invariant" `Quick test_bus_t_invariant;
          Alcotest.test_case "unbounded not covered" `Quick
            test_unbounded_net_not_covered;
          Alcotest.test_case "pipeline invariants" `Quick
            test_pipeline_invariants_conserved;
          Alcotest.test_case "pipeline T-invariants" `Quick
            test_pipeline_t_invariant_reproduces_marking;
          Alcotest.test_case "place bounds" `Quick test_place_bounds;
          Alcotest.test_case "farkas row limit" `Quick test_farkas_row_limit;
          Alcotest.test_case "vector rendering" `Quick test_pp_vector;
        ] );
      ( "relations",
        [
          Alcotest.test_case "bus conflicts/enablers" `Quick
            test_bus_relations;
          Alcotest.test_case "prefetch hand-checked sets" `Quick
            test_prefetch_relations;
          Alcotest.test_case "self-loops and inhibitors" `Quick
            test_relation_selfloop_and_inhibitor;
          Alcotest.test_case "full pipeline symmetry" `Quick
            test_full_pipeline_relations_symmetric;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_invariant_constant ]);
    ]
