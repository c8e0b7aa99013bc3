(* Tests for timed reachability: the state-class graph (Timed) and the
   frozen explicit-expansion oracle (Timed_explicit). *)

module Net = Pnut_core.Net
module Expr = Pnut_core.Expr
module Value = Pnut_core.Value
module B = Net.Builder
module Timed = Pnut_reach.Timed
module Tx = Pnut_oracle.Timed_explicit

let one_shot ~firing ~enabling =
  let b = B.create "oneshot" in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  let t = B.add_transition b "t" ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ] ~firing ~enabling in
  (B.build b, p, q, t)

(* -- state-class graph -- *)

let test_firing_time_states () =
  let net, _, q, t = one_shot ~firing:(Net.Const 2.0) ~enabling:Net.Zero in
  let g = Timed.build net in
  Alcotest.(check bool) "complete" true (Timed.complete g);
  (* classes: initial -> in flight -> done; the oracle's interpolated
     tick state collapses into the Complete edge *)
  Alcotest.(check int) "three classes" 3 (Timed.num_states g);
  Alcotest.(check int) "one deadlock" 1 (List.length (Timed.deadlocks g));
  Alcotest.(check int) "q bound" 1 (Timed.max_tokens g q);
  Alcotest.(check (option (float 0.0))) "t fires at 0" (Some 0.0)
    (Timed.min_cycle_time net t)

let test_enabling_time_states () =
  let net, _, _, t = one_shot ~firing:Net.Zero ~enabling:(Net.Const 3.0) in
  let g = Timed.build net in
  (* the leading wait normalizes away: pending at 0 in the initial class *)
  Alcotest.(check int) "two classes" 2 (Timed.num_states g);
  Alcotest.(check (option (float 0.0))) "t fires at 3" (Some 3.0)
    (Timed.min_cycle_time net t);
  Alcotest.(check int) "deadlocked at end" 1 (List.length (Timed.deadlocks g))

let test_conflict_branches () =
  (* two instant transitions compete: the graph must contain BOTH
     choices (the simulator picks probabilistically; the graph covers
     all) *)
  let b = B.create "branch" in
  let p = B.add_place b "p" ~initial:1 in
  let l = B.add_place b "l" in
  let r = B.add_place b "r" in
  let tl = B.add_transition b "left" ~inputs:[ (p, 1) ] ~outputs:[ (l, 1) ] in
  let tr_ = B.add_transition b "right" ~inputs:[ (p, 1) ] ~outputs:[ (r, 1) ] in
  let net = B.build b in
  let g = Timed.build net in
  let initial_succ = Timed.successors g 0 in
  Alcotest.(check int) "two branches" 2 (List.length initial_succ);
  let labels =
    List.map (fun e -> e.Timed.e_label) initial_succ
    |> List.sort compare
  in
  Alcotest.(check bool) "both fire labels" true
    (labels = [ Timed.Fire tl; Timed.Fire tr_ ] || labels = [ Timed.Fire tr_; Timed.Fire tl ])

let test_interval_domains () =
  (* enabling delays 2 and 5 pending together: the initial class's
     normalized domain pins 'fast' at 0 and 'slow' at 3 *)
  let b = B.create "mintick" in
  let p = B.add_place b "p" ~initial:2 in
  let x = B.add_place b "x" in
  let y = B.add_place b "y" in
  let fast =
    B.add_transition b "fast" ~inputs:[ (p, 1) ] ~outputs:[ (x, 1) ]
      ~enabling:(Net.Const 2.0)
  in
  let slow =
    B.add_transition b "slow" ~inputs:[ (p, 1) ] ~outputs:[ (y, 1) ]
      ~enabling:(Net.Const 5.0)
  in
  let net = B.build b in
  let g = Timed.build net in
  let s0 = Timed.state g (Timed.initial g) in
  Alcotest.(check (list int)) "both pending" [ fast; slow ] s0.Timed.ts_pending;
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "normalized domain" [ (0.0, 0.0); (3.0, 3.0) ]
    s0.Timed.ts_pending_iv;
  (* and the whole-graph domain arrays agree with the per-class view *)
  let off, sup, lo, hi = Timed.domain_arrays g in
  Alcotest.(check int) "two slots for class 0" 2 (off.(1) - off.(0));
  Alcotest.(check int) "slow's enabling slot" ((2 * slow) + 1) sup.(1);
  Alcotest.(check (float 0.0)) "slow lo" 3.0 lo.(1);
  Alcotest.(check (float 0.0)) "slow hi" 3.0 hi.(1)

let test_residual_enabling_preserved () =
  (* 'slow' (enabling 5) stays continuously enabled across 'fast' events
     that do not touch its tokens: it must fire at exactly 5, not 5 +
     restarts. *)
  let b = B.create "keepalive" in
  let p = B.add_place b "p" ~initial:1 in
  let other = B.add_place b "other" ~initial:1 in
  let sunk = B.add_place b "sunk" in
  let out = B.add_place b "out" in
  let _ =
    B.add_transition b "fast" ~inputs:[ (other, 1) ] ~outputs:[ (sunk, 1) ]
      ~enabling:(Net.Const 2.0)
  in
  let slow =
    B.add_transition b "slow" ~inputs:[ (p, 1) ] ~outputs:[ (out, 1) ]
      ~enabling:(Net.Const 5.0)
  in
  let net = B.build b in
  Alcotest.(check (option (float 0.0))) "slow at 5 despite fast at 2" (Some 5.0)
    (Timed.min_cycle_time net slow)

let test_stochastic_rejected () =
  let net, _, _, _ = one_shot ~firing:(Net.Exponential 1.0) ~enabling:Net.Zero in
  Alcotest.check_raises "exponential rejected"
    (Invalid_argument "Reach.Timed: stochastic firing time on transition t")
    (fun () -> ignore (Timed.build net));
  let net2, _, _, _ =
    one_shot ~firing:Net.Zero ~enabling:(Net.Choice [ (1.0, 1.0); (2.0, 1.0) ])
  in
  Alcotest.check_raises "spread choice rejected"
    (Invalid_argument "Reach.Timed: stochastic enabling time on transition t")
    (fun () -> ignore (Timed.build net2))

let test_degenerate_durations_accepted () =
  let net, _, _, t =
    one_shot ~firing:(Net.Uniform (2.0, 2.0))
      ~enabling:(Net.Choice [ (3.0, 1.0); (3.0, 5.0) ])
  in
  Alcotest.(check (option (float 0.0))) "enabling 3 then firing" (Some 3.0)
    (Timed.min_cycle_time net t)

let test_interpreted_timed () =
  (* dynamic deterministic duration from a variable *)
  let b = B.create "dyn" ~variables:[ ("d", Value.Int 4) ] in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  let t =
    B.add_transition b "t" ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ]
      ~enabling:(Net.Dynamic (Expr.var "d"))
  in
  let net = B.build b in
  Alcotest.(check (option (float 0.0))) "dynamic delay honoured" (Some 4.0)
    (Timed.min_cycle_time net t)

let test_never_fires () =
  let b = B.create "never" in
  let p = B.add_place b "p" in
  let q = B.add_place b "q" in
  let t = B.add_transition b "t" ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ] in
  let _ = B.add_place b "tok" in
  let net = B.build b in
  Alcotest.(check (option (float 0.0))) "unreachable firing" None
    (Timed.min_cycle_time net t)

(* A non-positive cap is a usage error, as for [build] — not [None],
   which would claim the transition never fires.  A cap of one settles
   the initial vector, where the pipeline's first transition fires. *)
let test_min_cycle_time_cap () =
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let t = Net.transition_id net "Start_prefetch" in
  List.iter
    (fun cap ->
      match Timed.min_cycle_time ~max_states:cap net t with
      | _ -> Alcotest.failf "max_states:%d accepted" cap
      | exception Invalid_argument _ -> ())
    [ 0; -1 ];
  Alcotest.(check (option (float 0.0))) "cap 1" (Some 0.0)
    (Timed.min_cycle_time ~max_states:1 net t)

let three_stage () =
  let b = B.create "3stage" in
  let a = B.add_place b "a" ~initial:1 in
  let bb = B.add_place b "b" in
  let c = B.add_place b "c" in
  let d = B.add_place b "d" in
  let _ = B.add_transition b "s1" ~inputs:[ (a, 1) ] ~outputs:[ (bb, 1) ] ~firing:(Net.Const 2.0) in
  let _ = B.add_transition b "s2" ~inputs:[ (bb, 1) ] ~outputs:[ (c, 1) ] ~enabling:(Net.Const 3.0) in
  let s3 = B.add_transition b "s3" ~inputs:[ (c, 1) ] ~outputs:[ (d, 1) ] ~firing:(Net.Const 1.0) in
  (B.build b, s3)

let test_agreement_with_simulator () =
  (* For a deterministic linear net, the simulator's event times must
     agree with the vector-space search: end-to-end latency of a 3-stage
     deterministic pipeline is the same in both. *)
  let net, s3 = three_stage () in
  Alcotest.(check (option (float 0.0))) "s3 starts at 5" (Some 5.0)
    (Timed.min_cycle_time net s3);
  let trace, _ = Pnut_sim.Simulator.trace ~until:100.0 net in
  let s3_starts =
    Array.to_list (Pnut_trace.Trace.deltas trace)
    |> List.filter (fun d ->
           d.Pnut_trace.Trace.d_kind = Pnut_trace.Trace.Fire_start
           && d.Pnut_trace.Trace.d_transition = s3)
    |> List.map (fun d -> d.Pnut_trace.Trace.d_time)
  in
  Alcotest.(check (list (float 0.0))) "simulator agrees" [ 5.0 ] s3_starts

(* Every class graph lives in the packed store, and a budgeted build
   that completes decodes to exactly the unbudgeted graph. *)
let test_packed_build () =
  let net, _ = three_stage () in
  let plain = Timed.build net in
  let budgeted =
    Pnut_exec.Supervisor.value
      (Timed.build_supervised
         ~budget:(Pnut_exec.Budget.make ~wall_s:3600.0 ())
         net)
  in
  Alcotest.(check bool) "packed is packed" true
    (Timed.packed_bytes_per_state plain <> None);
  Alcotest.(check int) "same classes" (Timed.num_states plain)
    (Timed.num_states budgeted);
  Alcotest.(check int) "same edges" (Timed.num_edges plain)
    (Timed.num_edges budgeted);
  let digest g =
    List.init (Timed.num_states g) (fun i ->
        let s = Timed.state g i in
        ( s.Timed.ts_marking, s.Timed.ts_flight, s.Timed.ts_pending,
          s.Timed.ts_flight_iv, s.Timed.ts_pending_iv, s.Timed.ts_env,
          Timed.successors g i ))
  in
  Alcotest.(check bool) "same decoded graph" true
    (digest plain = digest budgeted)

(* -- exact vector identity --

   One class, {u, G}, is reached with two residual vectors for 'b':
   1.0 +. 1e-12 straight after 'pa', and 1.0 after the detour 'pb' then
   'delay_v', which spends 1e-12 of b's enabling time.  From there the
   two vectors part ways: with b at 1.0, 'b' and 'd' come due at the
   same instant and 'b' fires before 'e' can (marking {Bout, Dout});
   with b at 1.0 +. 1e-12, 'd' fires first and 'e' (enabling 5e-13)
   takes G before 'b' comes due (marking {E}).  The old "%.9g" vector
   key printed both residuals as "1", so the second vector was dropped
   as a duplicate of the first: {Bout, Dout} went missing from the class
   graph and the explicit oracle alike, which therefore still agreed,
   and min_cycle_time never saw 'b' fire. *)
let near_tie_net () =
  let b = B.create "near-tie" in
  let s = B.add_place b "s" ~initial:1 in
  let u = B.add_place b "u" in
  let v = B.add_place b "v" in
  let g = B.add_place b "G" ~initial:1 in
  let h2 = B.add_place b "h2" in
  let dout = B.add_place b "Dout" in
  let bout = B.add_place b "Bout" in
  let e = B.add_place b "E" in
  let tr name ?(enabling = Net.Zero) inputs outputs =
    B.add_transition b name
      ~inputs:(List.map (fun p -> (p, 1)) inputs)
      ~outputs:(List.map (fun p -> (p, 1)) outputs)
      ~enabling
  in
  let _ = tr "pa" [ s ] [ u ] in
  let _ = tr "pb" [ s ] [ v ] in
  let _ = tr "delay_v" [ v ] [ u ] ~enabling:(Net.Const 1e-12) in
  let _ = tr "c" [ u ] [ h2 ] in
  let tb = tr "b" [ g ] [ bout ] ~enabling:(Net.Const (1.0 +. 1e-12)) in
  let _ = tr "d" [ h2 ] [ dout ] ~enabling:(Net.Const 1.0) in
  let _ = tr "e" [ dout; g ] [ e ] ~enabling:(Net.Const 5e-13) in
  (B.build b, u, g, bout, dout, e, tb)

let test_near_tie_vectors_kept () =
  let net, u, g, bout, dout, e, tb = near_tie_net () in
  let cg = Timed.build net in
  let x = Tx.build net in
  let markings_of n state =
    List.init n state |> List.map Array.to_list |> List.sort_uniq compare
  in
  let class_markings =
    markings_of (Timed.num_states cg) (fun i -> (Timed.state cg i).Timed.ts_marking)
  in
  Alcotest.(check (list (list int))) "same reachable markings as the oracle"
    (markings_of (Tx.num_states x) (fun i -> (Tx.state x i).Tx.ts_marking))
    class_markings;
  let np = Net.num_places net in
  let only places =
    List.init np (fun p -> if List.mem p places then 1 else 0)
  in
  Alcotest.(check bool) "b-first ending reached" true
    (List.mem (only [ bout; dout ]) class_markings);
  Alcotest.(check bool) "e-first ending reached" true
    (List.mem (only [ e ]) class_markings);
  (* the {u, G} class keeps both vectors: b's interval spans both *)
  let ug =
    List.find
      (fun i -> Array.to_list (Timed.state cg i).Timed.ts_marking = only [ u; g ])
      (List.init (Timed.num_states cg) Fun.id)
  in
  let s = Timed.state cg ug in
  let b_iv =
    List.assoc tb (List.combine s.Timed.ts_pending s.Timed.ts_pending_iv)
  in
  Alcotest.(check (pair (float 0.0) (float 0.0))) "b's domain holds both"
    (1.0, 1.0 +. 1e-12) b_iv;
  (* only the 1.0 vector lets b fire, 1e-12 + 1.0 after the start *)
  let expect = Tx.min_cycle_time x tb in
  Alcotest.(check bool) "b fires in the oracle" true (expect <> None);
  Alcotest.(check (option (float 0.0))) "b's earliest firing" expect
    (Timed.min_cycle_time net tb)

let test_residual_encodings () =
  (* independent countdowns whose residuals take every vector encoding:
     zero, a three-byte varint (19998), fractions (1.5, 19996.5) and
     an integer past the varint range (2^41 - 2); each must decode to
     the exact value its successors are computed from *)
  let b = B.create "countdowns" in
  let start name delay =
    let p = B.add_place b (name ^ "_p") ~initial:1 in
    let q = B.add_place b (name ^ "_q") in
    B.add_transition b name ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ]
      ~enabling:(Net.Const delay)
  in
  let ta = start "a" 2.0 in
  let tb = start "b" 20000.0 in
  let tc = start "c" 0x1p41 in
  let td = start "d" 3.5 in
  let net = B.build b in
  let g = Timed.build net in
  let x = Tx.build net in
  Alcotest.(check int) "one class per firing" 5 (Timed.num_states g);
  List.iter
    (fun (name, t, at) ->
      Alcotest.(check (option (float 0.0))) name (Some at)
        (Timed.min_cycle_time net t);
      Alcotest.(check (option (float 0.0))) (name ^ " (oracle)") (Some at)
        (Tx.min_cycle_time x t))
    [ ("a", ta, 2.0); ("b", tb, 20000.0); ("c", tc, 0x1p41); ("d", td, 3.5) ]

(* -- span identity: a vector's bytes start with its class id, so the
      dedup table never merges the vectors of two classes -- *)

(* p0 -t0-> p1 -t1-> ... -> pn, one token, every enabling delay 1: class
   i holds the token in p_i and its one vector is t_i's residual,
   normalized to 0, so the classes before the last share their residual
   bytes. *)
let chain n =
  let b = B.create "chain" in
  let place i =
    B.add_place b (Printf.sprintf "p%d" i) ~initial:(if i = 0 then 1 else 0)
  in
  let places = Array.init (n + 1) place in
  let _ =
    Array.init n (fun i ->
        B.add_transition b (Printf.sprintf "t%d" i)
          ~inputs:[ (places.(i), 1) ] ~outputs:[ (places.(i + 1), 1) ]
          ~enabling:(Net.Const 1.0))
  in
  B.build b

(* Class [i] of the chain is the token in p_i, with one edge, firing
   t_i, into class [i + 1]. *)
let check_chain_class g n i =
  let what = Printf.sprintf "class %d" i in
  Alcotest.(check (list int)) (what ^ " marking")
    (List.init (n + 1) (fun p -> if p = i then 1 else 0))
    (Array.to_list (Timed.state g i).Timed.ts_marking);
  Alcotest.(check (list (pair string int))) (what ^ " successors")
    (if i < n then [ (Printf.sprintf "f%d" i, i + 1) ] else [])
    (List.map
       (fun e ->
         match e.Timed.e_label with
         | Timed.Fire t -> (Printf.sprintf "f%d" t, e.Timed.e_to)
         | Timed.Complete t -> (Printf.sprintf "c%d" t, e.Timed.e_to))
       (Timed.successors g i))

let test_twin_vectors_kept () =
  let g = Timed.build (chain 2) in
  Alcotest.(check int) "three classes" 3 (Timed.num_states g);
  Alcotest.(check int) "one vector per class" 3 (Timed.num_vectors g);
  List.iter
    (fun i ->
      Alcotest.(check (list (pair (float 0.0) (float 0.0))))
        (Printf.sprintf "class %d holds residual 0" i)
        [ (0.0, 0.0) ] (Timed.state g i).Timed.ts_pending_iv)
    [ 0; 1 ];
  List.iter (check_chain_class g 2) [ 0; 1; 2 ]

let test_class_id_varint_boundary () =
  (* ids 0..127 are one varint byte, 128..300 two: each vector must
     load as its own class, or the sweep stalls at the boundary *)
  let n = 300 in
  let g = Timed.build (chain n) in
  Alcotest.(check bool) "complete" true (Timed.complete g);
  Alcotest.(check int) "classes" (n + 1) (Timed.num_states g);
  Alcotest.(check int) "vectors" (n + 1) (Timed.num_vectors g);
  for i = 0 to n do
    check_chain_class g n i
  done

(* -- identity pin: the Figure 1-3 pipeline's class graph, byte for
      byte.  The digests were recorded from the string-keyed builder
      this one replaced; any change to class numbering, edge order,
      interval domains or vector dedup moves them. -- *)

let graph_digest g =
  let b = Buffer.create 65536 in
  let ints a =
    Array.iter (fun x -> Printf.bprintf b "%d," x) a;
    Buffer.add_char b '|'
  in
  let floats a =
    Array.iter (fun x -> Printf.bprintf b "%Lx," (Int64.bits_of_float x)) a;
    Buffer.add_char b '|'
  in
  let off, sup, lo, hi = Timed.domain_arrays g in
  ints off;
  ints sup;
  floats lo;
  floats hi;
  for i = 0 to Timed.num_states g - 1 do
    ints (Timed.state g i).Timed.ts_marking;
    List.iter
      (fun e ->
        match e.Timed.e_label with
        | Timed.Fire t -> Printf.bprintf b "f%d>%d;" t e.Timed.e_to
        | Timed.Complete t -> Printf.bprintf b "c%d>%d;" t e.Timed.e_to)
      (Timed.successors g i);
    Buffer.add_char b '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pin_pipeline ~memory ?buffer ?max_states ~classes ~edges ~vectors ~digest
    () =
  let cfg = { Pnut_pipeline.Config.default with memory_cycles = memory } in
  let cfg =
    match buffer with
    | Some w -> { cfg with Pnut_pipeline.Config.buffer_words = w }
    | None -> cfg
  in
  let net = Pnut_pipeline.Model.full cfg in
  let cap = Option.value max_states ~default:100_000 in
  let g = Timed.build ~max_states:cap net in
  Alcotest.(check bool) "complete" (max_states = None) (Timed.complete g);
  Alcotest.(check int) "classes" classes (Timed.num_states g);
  Alcotest.(check int) "edges" edges (Timed.num_edges g);
  Alcotest.(check int) "vectors" vectors (Timed.num_vectors g);
  Alcotest.(check string) "digest" digest (graph_digest g)

let test_pin_memory_10 () =
  pin_pipeline ~memory:10.0 ~classes:914 ~edges:1903 ~vectors:5167
    ~digest:"2839612d434e61ab4d38b146cef53120" ()

let test_pin_memory_50 () =
  pin_pipeline ~memory:50.0 ~buffer:48 ~classes:8610 ~edges:19653
    ~vectors:200959 ~digest:"b29ce471fc8b2c527d1d9e9da211c17e" ()

(* The same model capped at 500 classes: a truncated prefix whose
   edges into existing classes are kept and into fresh ones dropped. *)
let test_pin_memory_50_capped () =
  pin_pipeline ~memory:50.0 ~buffer:48 ~max_states:500 ~classes:500 ~edges:858
    ~vectors:17430 ~digest:"8752df21f73b3e3a273dc565cad59247" ()

(* -- frozen explicit-expansion oracle -- *)

let test_explicit_four_states () =
  let net, _, q, t = one_shot ~firing:(Net.Const 2.0) ~enabling:Net.Zero in
  let g = Tx.build net in
  Alcotest.(check bool) "complete" true (Tx.complete g);
  (* states: initial -> fired (in flight 2) -> tick -> complete *)
  Alcotest.(check int) "four states" 4 (Tx.num_states g);
  Alcotest.(check int) "one deadlock" 1 (List.length (Tx.deadlocks g));
  Alcotest.(check int) "q bound" 1 (Tx.max_tokens g q);
  Alcotest.(check (option (float 0.0))) "t fires at 0" (Some 0.0)
    (Tx.min_cycle_time g t)

let test_explicit_tick_minimum () =
  (* two pending enabling delays 2 and 5: tick must be 2 *)
  let b = B.create "mintick" in
  let p = B.add_place b "p" ~initial:2 in
  let x = B.add_place b "x" in
  let y = B.add_place b "y" in
  let _ =
    B.add_transition b "fast" ~inputs:[ (p, 1) ] ~outputs:[ (x, 1) ]
      ~enabling:(Net.Const 2.0)
  in
  let _ =
    B.add_transition b "slow" ~inputs:[ (p, 1) ] ~outputs:[ (y, 1) ]
      ~enabling:(Net.Const 5.0)
  in
  let net = B.build b in
  let g = Tx.build net in
  let ticks =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun e -> match e.Tx.e_label with Tx.Tick d -> Some d | _ -> None)
          (Tx.successors g i))
      (List.init (Tx.num_states g) Fun.id)
  in
  Alcotest.(check bool) "first tick is 2" true (List.mem 2.0 ticks);
  Alcotest.(check bool) "no tick skips past a deadline" true
    (List.for_all (fun d -> d <= 5.0) ticks)

let test_explicit_horizon () =
  (* an infinite clock net explored up to a horizon stays finite even
     though states carry accumulated phase *)
  let b = B.create "clock" in
  let p = B.add_place b "p" ~initial:1 in
  let count = B.add_place b "ticks" in
  let _ =
    B.add_transition b "beat" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1); (count, 1) ]
      ~firing:(Net.Const 1.0)
  in
  let net = B.build b in
  let g = Tx.build ~horizon:4.0 ~max_states:1000 net in
  Alcotest.(check bool) "finite" true (Tx.num_states g < 50);
  Alcotest.(check bool) "ticks bounded by horizon" true
    (Tx.max_tokens g count <= 5)

let test_class_reduction () =
  (* the whole point: on a delay-heavy net the class graph is strictly
     smaller than the explicit expansion while agreeing on markings and
     deadlocks *)
  let net, _ = three_stage () in
  let g = Timed.build net in
  let x = Tx.build net in
  Alcotest.(check bool) "fewer classes than explicit states" true
    (Timed.num_states g < Tx.num_states x);
  let markings_of n state =
    List.init n state |> List.map Array.to_list |> List.sort_uniq compare
  in
  Alcotest.(check (list (list int))) "same reachable markings"
    (markings_of (Tx.num_states x) (fun i -> (Tx.state x i).Tx.ts_marking))
    (markings_of (Timed.num_states g) (fun i -> (Timed.state g i).Timed.ts_marking))

let test_summaries () =
  let net, _, _, _ = one_shot ~firing:(Net.Const 1.0) ~enabling:Net.Zero in
  let g = Timed.build net in
  let text = Format.asprintf "%a" Timed.pp_summary g in
  Testutil.check_contains "class summary" text "timed state-class graph";
  Testutil.check_contains "class summary" text "residual vectors:";
  let x = Tx.build net in
  let xtext = Format.asprintf "%a" Tx.pp_summary x in
  Testutil.check_contains "explicit summary" xtext "timed reachability graph"

(* -- steady-cycle analysis (RP84 performance evaluation) -- *)

let test_steady_cycle_clock () =
  (* a 1-cycle self-loop: period 1, one firing per cycle *)
  let b = B.create "clock" in
  let p = B.add_place b "p" ~initial:1 in
  let beat =
    B.add_transition b "beat" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1) ]
      ~firing:(Net.Const 1.0)
  in
  let net = B.build b in
  (match Timed.steady_cycle net with
  | Some c ->
    Alcotest.(check (float 1e-9)) "period 1" 1.0 c.Timed.cy_period;
    Alcotest.(check int) "one firing" 1 c.Timed.cy_firings.(beat)
  | None -> Alcotest.fail "expected a cycle")

let test_steady_cycle_pipeline_stages () =
  (* two stages in a ring with delays 2 and 3: the cycle takes 5 and each
     stage fires once *)
  let b = B.create "ring" in
  let a = B.add_place b "a" ~initial:1 in
  let bb = B.add_place b "b" in
  let s1 =
    B.add_transition b "s1" ~inputs:[ (a, 1) ] ~outputs:[ (bb, 1) ]
      ~firing:(Net.Const 2.0)
  in
  let s2 =
    B.add_transition b "s2" ~inputs:[ (bb, 1) ] ~outputs:[ (a, 1) ]
      ~enabling:(Net.Const 3.0)
  in
  let net = B.build b in
  (match Timed.steady_cycle net with
  | Some c ->
    Alcotest.(check (float 1e-9)) "period 5" 5.0 c.Timed.cy_period;
    Alcotest.(check int) "s1 once" 1 c.Timed.cy_firings.(s1);
    Alcotest.(check int) "s2 once" 1 c.Timed.cy_firings.(s2)
  | None -> Alcotest.fail "expected a cycle")

let test_steady_cycle_dead_net () =
  let b = B.create "oneshot" in
  let p = B.add_place b "p" ~initial:1 in
  let _ = B.add_transition b "t" ~inputs:[ (p, 1) ] ~firing:(Net.Const 1.0) in
  let net = B.build b in
  Alcotest.(check bool) "no cycle in a dying net" true
    (Timed.steady_cycle net = None)

let test_steady_cycle_matches_simulation () =
  (* the deterministic prefetch pipeline settles into a periodic regime;
     steady-cycle throughput must match the simulator's long-run rate *)
  let net = Pnut_pipeline.Model.prefetch_only Pnut_pipeline.Config.default in
  match Timed.steady_cycle net with
  | None -> Alcotest.fail "expected a steady cycle"
  | Some c ->
    let decode = Net.transition_id net "Decode" in
    let analytic_rate =
      float_of_int c.Timed.cy_firings.(decode) /. c.Timed.cy_period
    in
    let sink, get = Pnut_stat.Stat.sink () in
    let _ =
      Pnut_sim.Simulator.simulate ~seed:1 ~until:50_000.0 ~sink net
    in
    let sim_rate = Pnut_stat.Stat.throughput (get ()) "Decode" in
    Alcotest.(check bool)
      (Printf.sprintf "cycle rate %.4f vs simulated %.4f" analytic_rate sim_rate)
      true
      (Float.abs (analytic_rate -. sim_rate) < 0.01)

(* Actions drive the walk: [a]'s completion sets x, which enables [b],
   whose completion clears it again.  Each fires once per period of
   1 + 2, at the simulator's rate. *)
let toggle_model =
  "net toggle\nvar x = 0\nplace p init 1\n\
   transition a\n  in p\n  out p\n  firing 1\n  predicate x == 0\n  action x = 1\n\
   transition b\n  in p\n  out p\n  firing 2\n  predicate x == 1\n  action x = 0\n"

let test_steady_cycle_actions () =
  let net = Pnut_lang.Parser.parse_net toggle_model in
  match Timed.steady_cycle net with
  | None -> Alcotest.fail "expected a cycle"
  | Some c ->
    Alcotest.(check (float 1e-9)) "period 3" 3.0 c.Timed.cy_period;
    let sink, get = Pnut_stat.Stat.sink () in
    let _ = Pnut_sim.Simulator.simulate ~seed:1 ~until:3_000.0 ~sink net in
    List.iter
      (fun name ->
        let t = Net.transition_id net name in
        Alcotest.(check int) (name ^ " once") 1 c.Timed.cy_firings.(t);
        Alcotest.(check (float 1e-3))
          (name ^ " rate") (Pnut_stat.Stat.throughput (get ()) name)
          (float_of_int c.Timed.cy_firings.(t) /. c.Timed.cy_period))
      [ "a"; "b" ]

(* The simulator is the oracle for the walk on random conflict-free
   nets: a steady cycle's rates are the long-run rates, a zero-period
   cycle is the simulator's livelock, and a net without a cycle dies or
   livelocks in the simulator too. *)
let test_steady_cycle_simulator_oracle () =
  let rng = Random.State.make [| 22 |] in
  let cycled = ref 0 and stopped = ref 0 in
  for _ = 1 to 300 do
    let net = Testutil.random_timed_net rng in
    match Timed.steady_cycle net with
    | Some c when c.Timed.cy_period = 0.0 -> (
      incr stopped;
      match Pnut_sim.Simulator.simulate ~until:20_000.0 net with
      | exception Pnut_sim.Simulator.Sim_error (Pnut_sim.Simulator.Livelock _) -> ()
      | _ ->
        Alcotest.failf "zero-time livelock, but the simulator does not livelock\n%s"
          (Format.asprintf "%a" Net.pp net))
    | Some c ->
      incr cycled;
      let sink, get = Pnut_stat.Stat.sink () in
      ignore (Pnut_sim.Simulator.simulate ~until:20_000.0 ~sink net
              : Pnut_sim.Simulator.outcome);
      let report = get () in
      Array.iteri
        (fun t n ->
          let name = (Net.transition net t).Net.t_name in
          let expect = float_of_int n /. c.Timed.cy_period in
          let got = Pnut_stat.Stat.throughput report name in
          if Float.abs (expect -. got) > 0.002 +. (0.01 *. expect) then
            Alcotest.failf "%s: cycle rate %g, simulated %g\n%s" name expect got
              (Format.asprintf "%a" Net.pp net))
        c.Timed.cy_firings
    | None -> (
      incr stopped;
      match Pnut_sim.Simulator.simulate ~until:20_000.0 net with
      | { Pnut_sim.Simulator.stop = Pnut_sim.Simulator.Dead; _ } -> ()
      | exception Pnut_sim.Simulator.Sim_error (Pnut_sim.Simulator.Livelock _) -> ()
      | _ ->
        Alcotest.failf "no steady cycle, but the simulator runs on\n%s"
          (Format.asprintf "%a" Net.pp net))
  done;
  Alcotest.(check bool) "both outcomes occur" true (!cycled > 20 && !stopped > 20)

(* After [s] moves the token at time 2, [a] and [b] pass it back and
   forth with no delay: the walk meets the vector after [a] again
   without a tick and reports a zero-time livelock of one [a] and one
   [b], starting at 2, instead of walking all its steps. *)
let test_steady_cycle_zero_time_livelock () =
  let net =
    Pnut_lang.Parser.parse_net
      "net livelock\nplace p init 1\nplace q\nplace r\n\
       transition s\n  in p\n  out q\n  enabling 2\n\
       transition a\n  in q\n  out r\ntransition b\n  in r\n  out q\n"
  in
  match Timed.steady_cycle net with
  | None -> Alcotest.fail "expected a zero-time livelock"
  | Some c ->
    Alcotest.(check (float 0.0)) "period 0" 0.0 c.Timed.cy_period;
    Alcotest.(check (float 1e-9)) "starts at 2" 2.0 c.Timed.cy_transient;
    Alcotest.(check (array int)) "one a and one b" [| 0; 1; 1 |]
      c.Timed.cy_firings;
    match Pnut_sim.Simulator.simulate ~until:100.0 net with
    | exception Pnut_sim.Simulator.Sim_error (Pnut_sim.Simulator.Livelock _) -> ()
    | _ -> Alcotest.fail "the simulator should livelock too"

(* [t] and [u] share [p] and neither takes time to fire.  Zero firing
   duration is atomic in the walk, in the class graph and in the
   simulator: [t]'s token is back before [u]'s enabling clock is
   re-tested, so [u] fires at time 2 ([t] fired at 1 and restarted),
   and then once every period of 2 (docs/SEMANTICS.md § Time). *)
let zero_time_model =
  "net zero_time\nplace p init 1\n\
   transition t\n  in p\n  out p\n  enabling 1\n\
   transition u\n  in p\n  out p\n  enabling 2\n"

let test_steady_cycle_zero_time_corner () =
  let net = Pnut_lang.Parser.parse_net zero_time_model in
  let t = Net.transition_id net "t" and u = Net.transition_id net "u" in
  (match Timed.steady_cycle net with
  | None -> Alcotest.fail "expected a cycle"
  | Some c ->
    Alcotest.(check (float 1e-9)) "period 2" 2.0 c.Timed.cy_period;
    Alcotest.(check int) "t twice" 2 c.Timed.cy_firings.(t);
    Alcotest.(check int) "u once" 1 c.Timed.cy_firings.(u));
  let g = Timed.build net in
  let fires_u =
    List.exists
      (fun i ->
        List.exists (fun e -> e.Timed.e_label = Timed.Fire u) (Timed.successors g i))
      (List.init (Timed.num_states g) Fun.id)
  in
  Alcotest.(check bool) "class graph fires u" true fires_u;
  let sink, get = Pnut_stat.Stat.sink () in
  ignore (Pnut_sim.Simulator.simulate ~until:100.0 ~sink net
          : Pnut_sim.Simulator.outcome);
  Alcotest.(check (float 1e-9)) "simulator fires u once per period" 0.5
    (Pnut_stat.Stat.throughput (get ()) "u")

let () =
  Alcotest.run "timed-reach"
    [
      ( "construction",
        [
          Alcotest.test_case "firing time" `Quick test_firing_time_states;
          Alcotest.test_case "enabling time" `Quick test_enabling_time_states;
          Alcotest.test_case "conflict branches" `Quick test_conflict_branches;
          Alcotest.test_case "interval domains" `Quick test_interval_domains;
          Alcotest.test_case "residual enabling" `Quick
            test_residual_enabling_preserved;
          Alcotest.test_case "packed build" `Quick test_packed_build;
          Alcotest.test_case "near-tie vectors kept" `Quick
            test_near_tie_vectors_kept;
          Alcotest.test_case "residual encodings" `Quick test_residual_encodings;
          Alcotest.test_case "twin vectors kept" `Quick test_twin_vectors_kept;
          Alcotest.test_case "class id varint boundary" `Quick
            test_class_id_varint_boundary;
        ] );
      ( "durations",
        [
          Alcotest.test_case "stochastic rejected" `Quick test_stochastic_rejected;
          Alcotest.test_case "degenerate accepted" `Quick
            test_degenerate_durations_accepted;
          Alcotest.test_case "dynamic deterministic" `Quick test_interpreted_timed;
        ] );
      ( "queries",
        [
          Alcotest.test_case "never fires" `Quick test_never_fires;
          Alcotest.test_case "min cycle time cap" `Quick
            test_min_cycle_time_cap;
          Alcotest.test_case "simulator agreement" `Quick
            test_agreement_with_simulator;
          Alcotest.test_case "summaries" `Quick test_summaries;
        ] );
      ( "identity",
        [
          Alcotest.test_case "pipeline memory 10" `Quick test_pin_memory_10;
          Alcotest.test_case "pipeline memory 50 buffer 48" `Quick
            test_pin_memory_50;
          Alcotest.test_case "pipeline memory 50 buffer 48 cap 500" `Quick
            test_pin_memory_50_capped;
        ] );
      ( "explicit oracle",
        [
          Alcotest.test_case "four states" `Quick test_explicit_four_states;
          Alcotest.test_case "minimum tick" `Quick test_explicit_tick_minimum;
          Alcotest.test_case "horizon" `Quick test_explicit_horizon;
          Alcotest.test_case "class reduction" `Quick test_class_reduction;
        ] );
      ( "steady cycle",
        [
          Alcotest.test_case "self-loop clock" `Quick test_steady_cycle_clock;
          Alcotest.test_case "two-stage ring" `Quick
            test_steady_cycle_pipeline_stages;
          Alcotest.test_case "dead net" `Quick test_steady_cycle_dead_net;
          Alcotest.test_case "actions" `Quick test_steady_cycle_actions;
          Alcotest.test_case "simulator oracle" `Quick
            test_steady_cycle_simulator_oracle;
          Alcotest.test_case "zero-time corner" `Quick
            test_steady_cycle_zero_time_corner;
          Alcotest.test_case "zero-time livelock" `Quick
            test_steady_cycle_zero_time_livelock;
          Alcotest.test_case "matches simulation" `Slow
            test_steady_cycle_matches_simulation;
        ] );
    ]
