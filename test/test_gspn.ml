(* Tests for the analytical (GSPN / CTMC) performance evaluator, checked
   against closed-form Markov results and against the simulator. *)

module Net = Pnut_core.Net
module B = Net.Builder
module Gspn = Pnut_analytic.Gspn
module Sim = Pnut_sim.Simulator
module Stat = Pnut_stat.Stat

(* Two-state machine: free -> busy at rate lambda, busy -> free at rate
   mu.  Closed form: P(busy) = lambda / (lambda + mu). *)
let machine ~lambda ~mu =
  let b = B.create "machine" in
  let free = B.add_place b "free" ~initial:1 in
  let busy = B.add_place b "busy" in
  let _ =
    B.add_transition b "start" ~inputs:[ (free, 1) ] ~outputs:[ (busy, 1) ]
      ~enabling:(Net.Exponential (1.0 /. lambda))
  in
  let _ =
    B.add_transition b "finish" ~inputs:[ (busy, 1) ] ~outputs:[ (free, 1) ]
      ~enabling:(Net.Exponential (1.0 /. mu))
  in
  B.build b

let test_two_state_machine () =
  let lambda = 2.0 and mu = 3.0 in
  let net = machine ~lambda ~mu in
  let r = Gspn.analyze net in
  Alcotest.(check int) "two tangible states" 2 r.Gspn.tangible_states;
  Alcotest.(check int) "no vanishing states" 0 r.Gspn.vanishing_states;
  let expected = lambda /. (lambda +. mu) in
  Testutil.check_close ~tolerance:1e-9 "P(busy)" expected
    (Gspn.place_mean r net "busy");
  Testutil.check_close ~tolerance:1e-9 "P(free)" (1.0 -. expected)
    (Gspn.place_mean r net "free");
  (* flow balance: both transitions fire at the same rate
     lambda * P(free) *)
  let flow = lambda *. (1.0 -. expected) in
  Testutil.check_close ~tolerance:1e-9 "start throughput" flow
    (Gspn.throughput r net "start");
  Testutil.check_close ~tolerance:1e-9 "finish throughput" flow
    (Gspn.throughput r net "finish")

(* M/M/1/K queue: arrivals rate lambda (blocked when full), service rate
   mu.  Closed form: pi_n = rho^n * (1-rho)/(1-rho^{K+1}). *)
let mm1k ~lambda ~mu ~k =
  let b = B.create "mm1k" in
  let slots = B.add_place b "slots" ~initial:k in
  let queue = B.add_place b "queue" in
  let _ =
    B.add_transition b "arrive" ~inputs:[ (slots, 1) ] ~outputs:[ (queue, 1) ]
      ~enabling:(Net.Exponential (1.0 /. lambda))
  in
  let _ =
    B.add_transition b "serve" ~inputs:[ (queue, 1) ] ~outputs:[ (slots, 1) ]
      ~enabling:(Net.Exponential (1.0 /. mu))
  in
  B.build b

let mm1k_mean_queue ~rho ~k =
  (* sum n rho^n / sum rho^n for n in 0..k *)
  let num = ref 0.0 and den = ref 0.0 in
  for n = 0 to k do
    let p = rho ** float_of_int n in
    num := !num +. (float_of_int n *. p);
    den := !den +. p
  done;
  !num /. !den

let test_mm1k_queue () =
  let lambda = 1.0 and mu = 1.5 and k = 5 in
  let net = mm1k ~lambda ~mu ~k in
  let r = Gspn.analyze net in
  Alcotest.(check int) "k+1 states" (k + 1) r.Gspn.tangible_states;
  let rho = lambda /. mu in
  Testutil.check_close ~tolerance:1e-9 "mean queue length"
    (mm1k_mean_queue ~rho ~k)
    (Gspn.place_mean r net "queue");
  (* loss system throughput: mu * P(queue > 0) = lambda * P(not full) *)
  let p_n n =
    let den = ref 0.0 in
    for i = 0 to k do
      den := !den +. (rho ** float_of_int i)
    done;
    (rho ** float_of_int n) /. !den
  in
  Testutil.check_close ~tolerance:1e-9 "served throughput"
    (mu *. (1.0 -. p_n 0))
    (Gspn.throughput r net "serve");
  Testutil.check_close ~tolerance:1e-9 "accepted = served"
    (Gspn.throughput r net "arrive")
    (Gspn.throughput r net "serve")

(* Immediate transitions and vanishing states: exponential source, then
   an immediate probabilistic split 3:1. *)
let split_net () =
  let b = B.create "split" in
  let src = B.add_place b "src" ~initial:1 in
  let mid = B.add_place b "mid" in
  let left = B.add_place b "left" in
  let right = B.add_place b "right" in
  let _ =
    B.add_transition b "produce" ~inputs:[ (src, 1) ] ~outputs:[ (mid, 1) ]
      ~enabling:(Net.Exponential 2.0)
  in
  let _ =
    B.add_transition b "go_left" ~inputs:[ (mid, 1) ] ~outputs:[ (left, 1) ]
      ~frequency:3.0
  in
  let _ =
    B.add_transition b "go_right" ~inputs:[ (mid, 1) ] ~outputs:[ (right, 1) ]
      ~frequency:1.0
  in
  let _ =
    B.add_transition b "drain_left" ~inputs:[ (left, 1) ] ~outputs:[ (src, 1) ]
      ~enabling:(Net.Exponential 1.0)
  in
  let _ =
    B.add_transition b "drain_right" ~inputs:[ (right, 1) ] ~outputs:[ (src, 1) ]
      ~enabling:(Net.Exponential 1.0)
  in
  B.build b

let test_vanishing_split () =
  let net = split_net () in
  let r = Gspn.analyze net in
  Alcotest.(check bool) "has vanishing states" true (r.Gspn.vanishing_states > 0);
  (* immediate throughputs split 3:1 and sum to the producer's rate *)
  let tp = Gspn.throughput r net "produce" in
  let tl = Gspn.throughput r net "go_left" in
  let tr_ = Gspn.throughput r net "go_right" in
  Testutil.check_close ~tolerance:1e-9 "split sums" tp (tl +. tr_);
  Testutil.check_close ~tolerance:1e-9 "3:1 ratio" (3.0 *. tr_) tl;
  (* closed form: cycle = produce (mean 2) then drain (mean 1), so
     produce throughput = 1/3 *)
  Testutil.check_close ~tolerance:1e-9 "cycle rate" (1.0 /. 3.0) tp

let test_chained_vanishing () =
  (* two immediate transitions in a row (vanishing -> vanishing) *)
  let b = B.create "chain" in
  let a = B.add_place b "a" ~initial:1 in
  let v1 = B.add_place b "v1" in
  let v2 = B.add_place b "v2" in
  let z = B.add_place b "z" in
  let _ =
    B.add_transition b "slow" ~inputs:[ (a, 1) ] ~outputs:[ (v1, 1) ]
      ~enabling:(Net.Exponential 1.0)
  in
  let _ = B.add_transition b "hop1" ~inputs:[ (v1, 1) ] ~outputs:[ (v2, 1) ] in
  let _ = B.add_transition b "hop2" ~inputs:[ (v2, 1) ] ~outputs:[ (z, 1) ] in
  let _ =
    B.add_transition b "back" ~inputs:[ (z, 1) ] ~outputs:[ (a, 1) ]
      ~enabling:(Net.Exponential 1.0)
  in
  let net = B.build b in
  let r = Gspn.analyze net in
  (* cycle time 2, every transition fires at rate 1/2 *)
  List.iter
    (fun name ->
      Testutil.check_close ~tolerance:1e-9 (name ^ " rate") 0.5
        (Gspn.throughput r net name))
    [ "slow"; "hop1"; "hop2"; "back" ];
  (* vanishing states hold no probability mass: a + z means sum to 1 *)
  Testutil.check_close ~tolerance:1e-9 "mass on tangible markings" 1.0
    (Gspn.place_mean r net "a" +. Gspn.place_mean r net "z")

let test_absorbing_net () =
  (* one-shot net: all mass ends in the dead marking *)
  let b = B.create "oneshot" in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  let _ =
    B.add_transition b "t" ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ]
      ~enabling:(Net.Exponential 1.0)
  in
  let net = B.build b in
  let r = Gspn.analyze net in
  Testutil.check_close ~tolerance:1e-6 "stationary mass at q" 1.0
    (Gspn.place_mean r net "q");
  Testutil.check_close ~tolerance:1e-6 "throughput dies" 0.0
    (Gspn.throughput r net "t")

(* Two closed classes: the token in [p] leaves for [a] at rate 1 or for
   [b] at rate 3, and stays there.  The long-run split depends on the
   initial marking: 1/4 and 3/4.  A power iteration started from the
   uniform vector over the three tangible markings read 5/12 and 7/12.
   The second net reaches the same split through a vanishing initial
   marking, whose immediate choice (weights 1:3) picks the class. *)
let test_reducible_chain () =
  let split ~vanishing =
    let b = B.create "split" in
    let p = B.add_place b "p" ~initial:1 in
    let a = B.add_place b "a" in
    let bb = B.add_place b "b" in
    if vanishing then begin
      let x = B.add_place b "x" in
      let y = B.add_place b "y" in
      ignore
        (B.add_transition b "i1" ~inputs:[ (p, 1) ] ~outputs:[ (x, 1) ]
          : Net.transition_id);
      ignore
        (B.add_transition b "i2" ~inputs:[ (p, 1) ] ~outputs:[ (y, 1) ]
           ~frequency:3.0
          : Net.transition_id);
      ignore
        (B.add_transition b "t1" ~inputs:[ (x, 1) ] ~outputs:[ (a, 1) ]
           ~enabling:(Net.Exponential 1.0)
          : Net.transition_id);
      ignore
        (B.add_transition b "t2" ~inputs:[ (y, 1) ] ~outputs:[ (bb, 1) ]
           ~enabling:(Net.Exponential 1.0)
          : Net.transition_id)
    end
    else begin
      ignore
        (B.add_transition b "t1" ~inputs:[ (p, 1) ] ~outputs:[ (a, 1) ]
           ~enabling:(Net.Exponential 1.0)
          : Net.transition_id);
      ignore
        (B.add_transition b "t2" ~inputs:[ (p, 1) ] ~outputs:[ (bb, 1) ]
           ~enabling:(Net.Exponential (1.0 /. 3.0))
          : Net.transition_id)
    end;
    B.build b
  in
  List.iter
    (fun vanishing ->
      let net = split ~vanishing in
      let r = Gspn.analyze net in
      let what = if vanishing then "vanishing start" else "tangible start" in
      Testutil.check_close ~tolerance:1e-9 (what ^ ": a") 0.25
        (Gspn.place_mean r net "a");
      Testutil.check_close ~tolerance:1e-9 (what ^ ": b") 0.75
        (Gspn.place_mean r net "b"))
    [ false; true ]

let test_rejections () =
  let deterministic =
    let b = B.create "det" in
    let p = B.add_place b "p" ~initial:1 in
    let _ =
      B.add_transition b "t" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1) ]
        ~firing:(Net.Const 1.0)
    in
    B.build b
  in
  (match Gspn.analyze deterministic with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument msg ->
    Testutil.check_contains "message" msg "non-exponential");
  let exponential_firing =
    let b = B.create "expf" in
    let p = B.add_place b "p" ~initial:1 in
    let _ =
      B.add_transition b "t" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1) ]
        ~firing:(Net.Exponential 1.0)
    in
    B.build b
  in
  (match Gspn.analyze exponential_firing with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument msg ->
    Testutil.check_contains "message" msg "exponential firing time");
  let unbounded =
    let b = B.create "unb" in
    let p = B.add_place b "p" ~initial:1 in
    let q = B.add_place b "q" in
    let _ =
      B.add_transition b "t" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1); (q, 1) ]
        ~enabling:(Net.Exponential 1.0)
    in
    B.build b
  in
  match Gspn.analyze ~max_states:50 unbounded with
  | _ -> Alcotest.fail "expected state cap"
  | exception Invalid_argument msg ->
    Testutil.check_contains "explored states and cap reported" msg
      "50 states explored, cap 50";
    Testutil.check_contains "message" msg "max_states"

(* One token on A, B, C; B picks between going back to A and on to C.
   Every marking has exit rate 1, so the jump chain has period 2: a
   power iteration uniformized at exactly the largest exit rate swings
   between two vectors and never converges.  The stationary
   distribution is (1/4, 1/2, 1/4). *)
let periodic_net () =
  let b = B.create "periodic" in
  let a = B.add_place b "A" ~initial:1 in
  let bb = B.add_place b "B" in
  let c = B.add_place b "C" in
  let arc name src dst mean =
    ignore
      (B.add_transition b name ~inputs:[ (src, 1) ] ~outputs:[ (dst, 1) ]
         ~enabling:(Net.Exponential mean)
        : Net.transition_id)
  in
  arc "ab" a bb 1.0;
  arc "ba" bb a 2.0;
  arc "bc" bb c 2.0;
  arc "cb" c bb 1.0;
  B.build b

let test_periodic_chain () =
  let r = Gspn.analyze (periodic_net ()) in
  List.iteri
    (fun p expected ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "mean of place %d" p)
        expected r.Gspn.place_means.(p))
    [ 0.25; 0.5; 0.25 ]

let test_exponential_variant_rebuild () =
  (* a Choice delay has no single exponential equivalent: rejected *)
  let choicy =
    let b = B.create "choicy" in
    let p = B.add_place b "p" ~initial:1 in
    let _ =
      B.add_transition b "t" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1) ]
        ~firing:(Net.Choice [ (1.0, 0.5); (2.0, 0.5) ])
    in
    B.build b
  in
  (match Gspn.exponential_variant choicy with
  | _ -> Alcotest.fail "expected rejection of Choice delays"
  | exception Invalid_argument msg ->
    Testutil.check_contains "message" msg "unsupported delay shape");
  (* a deterministic-delay net converts cleanly *)
  let simple = Pnut_pipeline.Model.prefetch_only Pnut_pipeline.Config.default in
  let exp_net = Gspn.exponential_variant simple in
  Alcotest.(check int) "same places" (Net.num_places simple) (Net.num_places exp_net);
  Alcotest.(check int) "same transitions" (Net.num_transitions simple)
    (Net.num_transitions exp_net);
  let ep = Net.transition exp_net (Net.transition_id exp_net "End_prefetch") in
  Alcotest.(check bool) "delay became exponential" true
    (ep.Net.t_enabling = Net.Exponential 5.0)

(* the full pipeline is all-Const: the exponential variant is analyzable
   exactly, and the analytic answer matches a long simulation *)
let test_full_pipeline_analytic () =
  let net =
    Gspn.exponential_variant (Pnut_pipeline.Model.full Pnut_pipeline.Config.default)
  in
  let r = Gspn.analyze ~max_states:5000 net in
  Alcotest.(check bool) "nontrivial state space" true (r.Gspn.tangible_states > 50);
  let sink, get = Stat.sink () in
  let _ = Sim.simulate ~seed:11 ~until:300_000.0 ~sink net in
  let sim = get () in
  let compare name =
    let analytic = Gspn.place_mean r net name in
    let simulated = Stat.utilization sim name in
    Alcotest.(check bool)
      (Printf.sprintf "%s: analytic %.4f vs simulated %.4f" name analytic simulated)
      true
      (Float.abs (analytic -. simulated) < 0.03 *. Float.max 1.0 analytic)
  in
  List.iter compare [ "Bus_busy"; "Execution_unit"; "Full_I_buffers" ];
  let thr_a = Gspn.throughput r net "Issue" in
  let thr_s = Stat.throughput sim "Issue" in
  Alcotest.(check bool)
    (Printf.sprintf "Issue rate: analytic %.4f vs simulated %.4f" thr_a thr_s)
    true
    (Float.abs (thr_a -. thr_s) /. thr_a < 0.04)

(* cross-validation: the analytic answer matches a long simulation of the
   same exponential net *)
let test_analytic_matches_simulation () =
  let net =
    Gspn.exponential_variant
      (Pnut_pipeline.Model.prefetch_only Pnut_pipeline.Config.default)
  in
  let r = Gspn.analyze net in
  let sink, get = Stat.sink () in
  let _ = Sim.simulate ~seed:42 ~until:200_000.0 ~sink net in
  let sim = get () in
  let compare name =
    let analytic = Gspn.place_mean r net name in
    let simulated = Stat.utilization sim name in
    Alcotest.(check bool)
      (Printf.sprintf "%s: analytic %.4f vs simulated %.4f" name analytic simulated)
      true
      (Float.abs (analytic -. simulated) < 0.02 *. Float.max 1.0 analytic)
  in
  List.iter compare [ "Bus_busy"; "Full_I_buffers"; "Decoder_ready"; "pre_fetching" ];
  let thr_a = Gspn.throughput r net "Decode" in
  let thr_s = Stat.throughput sim "Decode" in
  Alcotest.(check bool)
    (Printf.sprintf "Decode rate: %.4f vs %.4f" thr_a thr_s)
    true
    (Float.abs (thr_a -. thr_s) /. thr_a < 0.03)

(* Byte-level identity of the chain: tangible and vanishing counts, and
   a digest of every place mean and throughput printed exactly ([%h]).
   Any change to the state-space builder must keep the discovery order
   and with it every float sum; the uniformization rate and the
   starting vector of the power iteration move them too. *)
let test_identity () =
  let digest r =
    let buf = Buffer.create 1024 in
    let add v = Buffer.add_string buf (Printf.sprintf "%h;" v) in
    Array.iter add r.Gspn.place_means;
    Array.iter add r.Gspn.throughputs;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  let cfg = Pnut_pipeline.Config.default in
  List.iter
    (fun (name, net, tangible, vanishing, hex) ->
      let r = Gspn.analyze ~max_states:5000 (Gspn.exponential_variant net) in
      Alcotest.(check int) (name ^ " tangible") tangible r.Gspn.tangible_states;
      Alcotest.(check int) (name ^ " vanishing") vanishing
        r.Gspn.vanishing_states;
      Alcotest.(check string) (name ^ " digest") hex (digest r))
    [
      ("prefetch", Pnut_pipeline.Model.prefetch_only cfg, 14, 7,
       "750fc7b1d9bd731974b61680dbdfbc27");
      ("full", Pnut_pipeline.Model.full cfg, 187, 236,
       "f4c2aaa112d912a75abdde80481facc9");
      ("indep2x3", Pnut_pipeline.Indep.net ~pipelines:2 ~stages:3, 1, 15,
       "50f784b67c2dbcbc087e4d97fa7b2871");
    ]

(* -- the independent GTH oracle --

   Random exponential nets whose chain is irreducible: a ring
   p0 -> p1 -> ... -> p0 moves any token to any place, and every other
   transition puts back as many tokens as it takes, so every marking
   with the initial token count reaches every other.  The extra
   transitions add joins, splits, weight-2 arcs and inhibitors. *)

type extra = {
  x_inputs : (int * int) list;
  x_outputs : (int * int) list;
  x_inhibitor : (int * int) option;
  x_mean : int;
}

type spec = {
  s_tokens : int list;
  s_ring : int list;  (* mean codes, one per place *)
  s_extras : extra list;
}

let mean_of_code c = [| 0.5; 1.0; 2.0; 3.0 |].(c)

let gen_spec =
  QCheck2.Gen.(
    let* np = int_range 2 4 in
    let* tokens = list_size (return np) (int_range 0 2) in
    let tokens =
      if List.for_all (( = ) 0) tokens then 1 :: List.tl tokens else tokens
    in
    let* ring = list_size (return np) (int_range 0 3) in
    let place = int_range 0 (np - 1) in
    let gen_extra =
      let* shape = int_range 0 2 in
      let* a = place and* b = place and* c = place and* d = place in
      let x_inputs, x_outputs =
        match shape with
        | 0 -> ([ (a, 1) ], [ (b, 1) ])
        | 1 -> ([ (a, 1); (b, 1) ], [ (c, 1); (d, 1) ])
        | _ -> ([ (a, 2) ], [ (b, 1); (c, 1) ])
      in
      let* inhibit = int_range 0 3 and* w = int_range 1 2 in
      let* x_mean = int_range 0 3 in
      return
        { x_inputs; x_outputs;
          x_inhibitor = (if inhibit = 0 then Some (d, w) else None); x_mean }
    in
    let* extras = list_size (int_range 0 4) gen_extra in
    return { s_tokens = tokens; s_ring = ring; s_extras = extras })

let build_spec spec =
  let b = B.create "random" in
  let np = List.length spec.s_tokens in
  let places =
    Array.of_list
      (List.mapi
         (fun i k -> B.add_place b (Printf.sprintf "p%d" i) ~initial:k)
         spec.s_tokens)
  in
  let arcs = List.map (fun (p, w) -> (places.(p), w)) in
  List.iteri
    (fun i code ->
      ignore
        (B.add_transition b (Printf.sprintf "ring%d" i)
           ~inputs:[ (places.(i), 1) ]
           ~outputs:[ (places.((i + 1) mod np), 1) ]
           ~enabling:(Net.Exponential (mean_of_code code))
          : Net.transition_id))
    spec.s_ring;
  List.iteri
    (fun i x ->
      ignore
        (B.add_transition b (Printf.sprintf "x%d" i) ~inputs:(arcs x.x_inputs)
           ~outputs:(arcs x.x_outputs)
           ~inhibitors:(arcs (Option.to_list x.x_inhibitor))
           ~enabling:(Net.Exponential (mean_of_code x.x_mean))
          : Net.transition_id))
    spec.s_extras;
  B.build b

(* Place means and throughputs of [Gspn.analyze] within 1e-8 of the
   oracle's; every marking is tangible, so the state counts agree. *)
let agrees_with_gth net =
  let r = Gspn.analyze net in
  let o = Pnut_oracle.Gth.analyze net in
  let close a b =
    Array.length a = Array.length b
    && Array.for_all2 (fun x y -> Float.abs (x -. y) <= 1e-8) a b
  in
  r.Gspn.vanishing_states = 0
  && r.Gspn.tangible_states = o.Pnut_oracle.Gth.states
  && close r.Gspn.place_means o.Pnut_oracle.Gth.place_means
  && close r.Gspn.throughputs o.Pnut_oracle.Gth.throughputs

let prop_matches_gth =
  QCheck2.Test.make ~name:"analyze matches the GTH oracle" ~count:200
    ~print:(fun spec -> Format.asprintf "%a" Net.pp (build_spec spec))
    gen_spec
    (fun spec -> agrees_with_gth (build_spec spec))

let test_gth_periodic () =
  let net = periodic_net () in
  let o = Pnut_oracle.Gth.analyze net in
  List.iteri
    (fun p expected ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "oracle mean of place %d" p)
        expected o.Pnut_oracle.Gth.place_means.(p))
    [ 0.25; 0.5; 0.25 ];
  Alcotest.(check bool) "analyze agrees" true (agrees_with_gth net)

let () =
  Alcotest.run "gspn"
    [
      ( "closed-form",
        [
          Alcotest.test_case "two-state machine" `Quick test_two_state_machine;
          Alcotest.test_case "M/M/1/K" `Quick test_mm1k_queue;
          Alcotest.test_case "vanishing split" `Quick test_vanishing_split;
          Alcotest.test_case "chained vanishing" `Quick test_chained_vanishing;
          Alcotest.test_case "absorbing" `Quick test_absorbing_net;
          Alcotest.test_case "reducible chain" `Quick test_reducible_chain;
          Alcotest.test_case "identity" `Quick test_identity;
        ] );
      ( "interface",
        [
          Alcotest.test_case "rejections" `Quick test_rejections;
          Alcotest.test_case "periodic chain" `Quick test_periodic_chain;
          Alcotest.test_case "exponential variant" `Quick
            test_exponential_variant_rebuild;
        ] );
      ( "gth oracle",
        [
          Alcotest.test_case "periodic chain" `Quick test_gth_periodic;
          QCheck_alcotest.to_alcotest prop_matches_gth;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "matches simulation" `Slow
            test_analytic_matches_simulation;
          Alcotest.test_case "full pipeline" `Slow test_full_pipeline_analytic;
        ] );
    ]
