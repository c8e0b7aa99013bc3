(* Tests for the completion queue (binary heap with FIFO tie-breaking). *)

module Q = Pnut_sim.Event_queue

(* Pops every entry as (time, transition, firing), earliest first. *)
let drain q =
  let rec go acc =
    if Q.is_empty q then List.rev acc
    else begin
      let e = (Q.min_time q, Q.top_transition q, Q.top_firing q) in
      Q.drop q;
      go (e :: acc)
    end
  in
  go []

let push q time transition = Q.push q time ~transition ~firing:(100 + transition)

let entry = Alcotest.(triple (float 0.0) int int)

let test_empty () =
  let q = Q.create () in
  Alcotest.(check bool) "is_empty" true (Q.is_empty q);
  Alcotest.(check (float 0.0)) "min_time" infinity (Q.min_time q);
  Alcotest.check_raises "drop" (Invalid_argument "Event_queue.drop: empty queue")
    (fun () -> Q.drop q)

let test_ordering () =
  let q = Q.create () in
  List.iter (fun (t, v) -> push q t v) [ (3.0, 3); (1.0, 1); (2.0, 2) ];
  Alcotest.(check (float 0.0)) "min_time" 1.0 (Q.min_time q);
  Alcotest.(check (list entry))
    "sorted"
    [ (1.0, 1, 101); (2.0, 2, 102); (3.0, 3, 103) ]
    (drain q)

let test_fifo_ties () =
  let q = Q.create () in
  List.iter (fun v -> push q 5.0 v) [ 0; 1; 2 ];
  push q 1.0 99;
  let order = List.map (fun (_, v, _) -> v) (drain q) in
  Alcotest.(check (list int)) "insertion order among equals" [ 99; 0; 1; 2 ]
    order

let test_interleaved_push_drop () =
  let q = Q.create () in
  push q 2.0 2;
  push q 1.0 1;
  Alcotest.(check int) "top a" 1 (Q.top_transition q);
  Q.drop q;
  push q 0.5 0;
  Alcotest.(check int) "top pre" 0 (Q.top_transition q);
  Alcotest.(check int) "its firing" 100 (Q.top_firing q);
  Q.drop q;
  Alcotest.(check (float 0.0)) "min b" 2.0 (Q.min_time q);
  Q.drop q;
  Alcotest.(check bool) "drained" true (Q.is_empty q)

let test_growth () =
  let q = Q.create () in
  for i = 999 downto 0 do
    push q (float_of_int i) i
  done;
  let popped = drain q in
  Alcotest.(check int) "all popped" 1000 (List.length popped);
  let sorted =
    List.for_all2
      (fun (t, v, f) i -> Float.equal t (float_of_int i) && v = i && f = 100 + i)
      popped (List.init 1000 Fun.id)
  in
  Alcotest.(check bool) "ascending" true sorted

(* [to_sorted_list] leaves the queue alone, and pushing its entries in
   order into a fresh queue rebuilds the same drain order, ties included
   (the checkpoint/restore path depends on this). *)
let test_sorted_list_round_trip () =
  let q = Q.create () in
  List.iter (fun (t, v) -> push q t v)
    [ (5.0, 0); (5.0, 1); (2.0, 2); (5.0, 3); (infinity, 4); (2.0, 5) ];
  Q.drop q;
  push q 5.0 6;
  let listed = Q.to_sorted_list q in
  let fresh = Q.create () in
  List.iter
    (fun (time, transition, firing) -> Q.push fresh time ~transition ~firing)
    listed;
  Alcotest.(check (list entry)) "listing is the drain order" listed (drain q);
  Alcotest.(check (list entry)) "rebuilt queue drains the same" listed
    (drain fresh);
  Alcotest.(check (list int)) "ties stay in insertion order" [ 5; 0; 1; 3; 6; 4 ]
    (List.map (fun (_, v, _) -> v) listed)

(* property: popping a random push sequence yields times in ascending
   order, and equal times preserve insertion order *)
let prop_heap_order =
  QCheck2.Test.make ~name:"heap pops in (time, insertion) order" ~count:200
    QCheck2.Gen.(list (int_range 0 20))
    (fun times ->
      let q = Q.create () in
      List.iteri (fun i t -> push q (float_of_int t) i) times;
      let popped = drain q in
      let rec ordered = function
        | (t1, i1, _) :: ((t2, i2, _) :: _ as rest) ->
          (t1 < t2 || (Float.equal t1 t2 && i1 < i2)) && ordered rest
        | [ _ ] | [] -> true
      in
      List.length popped = List.length times && ordered popped)

let () =
  Alcotest.run "event-queue"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_fifo_ties;
          Alcotest.test_case "interleaved" `Quick test_interleaved_push_drop;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "sorted list round trip" `Quick
            test_sorted_list_round_trip;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_heap_order ]);
    ]
