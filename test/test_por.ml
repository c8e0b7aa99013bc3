(* Stubborn-set partial-order reduction: reduction factors on the indep
   benchmark family, differential agreement with the full build, build
   determinism, budget behavior and fragment rejection. *)

module Net = Pnut_core.Net
module Marking = Pnut_core.Marking
module Expr = Pnut_core.Expr
module Value = Pnut_core.Value
module B = Net.Builder
module Graph = Pnut_reach.Graph
module Stubborn = Pnut_reach.Stubborn
module Supervisor = Pnut_exec.Supervisor
module Boxed = Pnut_oracle.Boxed_graph

let deadlock_markings g =
  Graph.deadlocks g
  |> List.map (fun i -> (Graph.state g i).Graph.s_marking)
  |> List.sort compare

let check_same_deadlocks what full reduced =
  Alcotest.(check (list (array int)))
    (what ^ ": deadlock marking sets")
    (deadlock_markings full) (deadlock_markings reduced)

let check_same_bounds what net full reduced =
  for p = 0 to Net.num_places net - 1 do
    Alcotest.(check int)
      (Printf.sprintf "%s: bound of %s" what (Net.place net p).Net.p_name)
      (Graph.bound full p) (Graph.bound reduced p)
  done

(* -- indep<N>x<K>: the interleaving-explosion benchmark -- *)

let test_indep_reduction () =
  let net = Pnut_pipeline.Indep.net ~pipelines:6 ~stages:4 in
  let full = Graph.build net in
  let reduced = Graph.build ~por:true net in
  Alcotest.(check int) "full graph is 5^6" 15625 (Graph.num_states full);
  Alcotest.(check bool) "reduced visits >= 5x fewer states" true
    (Graph.num_states full >= 5 * Graph.num_states reduced);
  Alcotest.(check bool) "both complete" true
    (Graph.complete full && Graph.complete reduced);
  check_same_deadlocks "packed" full reduced;
  check_same_bounds "packed" net full reduced;
  (* the frozen boxed builder reduces to the same graph *)
  let oracle = Boxed.build ~por:true net in
  Alcotest.(check int) "oracle: full graph is 5^6" 15625
    (Boxed.num_states (Boxed.build net));
  Alcotest.(check int) "oracle: reduced states" (Graph.num_states reduced)
    (Boxed.num_states oracle);
  Alcotest.(check int) "oracle: reduced edges" (Graph.num_edges reduced)
    (Boxed.num_edges oracle);
  Alcotest.(check (list (array int)))
    "oracle: deadlock markings" (deadlock_markings reduced)
    (List.sort compare
       (List.map
          (fun i -> (Boxed.state oracle i).Graph.s_marking)
          (Boxed.deadlocks oracle)))

let test_indep_deadlock_is_final_slots () =
  (* the unique deadlock has every token in its pipeline's last slot —
     in full and reduced builds alike *)
  let net = Pnut_pipeline.Indep.net ~pipelines:3 ~stages:2 in
  let expected = Array.make (Net.num_places net) 0 in
  for i = 0 to 2 do
    expected.(Net.place_id net (Printf.sprintf "P%d_s2" (i + 1))) <- 1
  done;
  List.iter
    (fun por ->
      let g = Graph.build ~por net in
      match deadlock_markings g with
      | [ m ] ->
        Alcotest.(check (array int))
          (Printf.sprintf "por=%b: all tokens in final slots" por)
          expected m
      | l ->
        Alcotest.failf "por=%b: expected 1 deadlock, got %d" por
          (List.length l))
    [ false; true ]

let test_indep_parse_name () =
  Alcotest.(check (option (pair int int)))
    "indep6x4" (Some (6, 4))
    (Pnut_pipeline.Indep.parse_name "indep6x4");
  List.iter
    (fun s ->
      Alcotest.(check (option (pair int int))) s None
        (Pnut_pipeline.Indep.parse_name s))
    [ "indep0x4"; "indep6x0"; "indep6x"; "indepx4"; "pipeline";
      "indep6x4b"; "indep-1x4" ]

(* -- determinism: the reduced set is a function of the marking alone,
   so repeated builds and the frozen boxed builder share one
   numbering -- *)

let test_reduced_numbering_identical () =
  let net = Pnut_pipeline.Indep.net ~pipelines:4 ~stages:3 in
  let reference = Graph.build ~por:true net in
  let markings n state = Array.init n (fun i -> (state i).Graph.s_marking) in
  let triples =
    List.map (fun e -> (e.Graph.e_from, e.Graph.e_transition, e.Graph.e_to))
  in
  let check what complete n state edges =
    Alcotest.(check bool) (what ^ " complete") true complete;
    Alcotest.(check (array (array int)))
      (what ^ ": state numbering identical")
      (markings (Graph.num_states reference) (Graph.state reference))
      (markings n state);
    Alcotest.(check (list (triple int int int)))
      (what ^ ": edges identical")
      (triples (Graph.edges reference)) (triples edges)
  in
  let g = Graph.build ~por:true net in
  check "rebuild" (Graph.complete g) (Graph.num_states g) (Graph.state g)
    (Graph.edges g);
  let o = Boxed.build ~por:true net in
  check "boxed oracle" (Boxed.complete o) (Boxed.num_states o) (Boxed.state o)
    (Boxed.edges o)

(* -- random terminating nets: differential full vs reduced -- *)

(* Layered forward nets: every transition consumes >= 1 token from its
   input places, and every output place sits strictly above every input
   place with at most as many output arcs as input arcs.  The potential
   sum of m(p) * 2^(np-1-p) then drops on every firing (each produced
   token is worth at most half the cheapest consumed one), so every run
   terminates — which is exactly the fragment where the coarse conflict
   relation preserves place bounds, not just deadlocks.  Inhibitor arcs
   are thrown in freely: they restrict enabling without moving tokens. *)
let random_terminating_net seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let np = 4 + int 5 in
  let nt = 2 + int 7 in
  let b = B.create (Printf.sprintf "rand%d" seed) in
  let places =
    Array.init np (fun i ->
        let initial = if i < (np + 1) / 2 then int 3 else 0 in
        B.add_place b (Printf.sprintf "p%d" i) ~initial)
  in
  for t = 0 to nt - 1 do
    let maxin = int (np - 1) in
    let ins =
      if int 2 = 1 && maxin > 0 then
        List.sort_uniq compare [ int maxin; maxin ]
      else [ maxin ]
    in
    let avail = List.init (np - 1 - maxin) (fun i -> maxin + 1 + i) in
    let no = min (int (List.length ins + 1)) (List.length avail) in
    let outs =
      List.map (fun p -> (Random.State.bits rng, p)) avail
      |> List.sort compare |> List.map snd
      |> List.filteri (fun i _ -> i < no)
    in
    let inhibitors =
      if int 10 < 3 then
        let p = int np in
        if List.mem p ins then [] else [ (places.(p), 1 + int 2) ]
      else []
    in
    ignore
      (B.add_transition b
         (Printf.sprintf "t%d" t)
         ~inputs:(List.map (fun p -> (places.(p), 1)) ins)
         ~inhibitors
         ~outputs:(List.map (fun p -> (places.(p), 1)) outs)
        : Net.transition_id)
  done;
  B.build b

let prop_differential =
  QCheck2.Test.make ~name:"reduced build agrees on deadlocks and bounds"
    ~count:120
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let net = random_terminating_net seed in
      let full = Graph.build ~max_states:200_000 net in
      let reduced = Graph.build ~max_states:200_000 ~por:true net in
      if not (Graph.complete full && Graph.complete reduced) then
        QCheck2.Test.fail_report "unexpected truncation on a tiny net";
      if deadlock_markings full <> deadlock_markings reduced then
        QCheck2.Test.fail_report "deadlock marking sets differ";
      for p = 0 to Net.num_places net - 1 do
        if Graph.bound full p <> Graph.bound reduced p then
          QCheck2.Test.fail_reportf "bound of place %d differs: %d vs %d" p
            (Graph.bound full p) (Graph.bound reduced p)
      done;
      (* never more states than the full graph, and the reduced build
         matches the frozen boxed reduced build *)
      if Graph.num_states reduced > Graph.num_states full then
        QCheck2.Test.fail_report "reduced graph larger than full";
      let boxed = Boxed.build ~max_states:200_000 ~por:true net in
      if Boxed.num_states boxed <> Graph.num_states reduced
         || Boxed.num_edges boxed <> Graph.num_edges reduced
      then QCheck2.Test.fail_report "packed/boxed reduced builds disagree";
      true)

(* -- budgets: truncation still degrades gracefully under por -- *)

let test_budget_truncation () =
  let net = Pnut_pipeline.Indep.net ~pipelines:6 ~stages:4 in
  match Graph.build_supervised ~max_states:10 ~por:true net with
  | Supervisor.Complete _ -> Alcotest.fail "expected truncation at 10 states"
  | Supervisor.Degraded { partial; reason; _ } ->
    (match reason with
    | Supervisor.States n -> Alcotest.(check int) "cap reported" 10 n
    | _ -> Alcotest.fail "expected a state-cap trip");
    Alcotest.(check bool) "partial flagged incomplete" false
      (Graph.complete partial);
    Alcotest.(check int) "prefix capped" 10 (Graph.num_states partial)

(* -- fragment rejection -- *)

let test_unsupported () =
  let variables = B.create ~variables:[ ("x", Value.Int 0) ] "vars" in
  let _ = B.add_place variables "p" ~initial:1 in
  (match Stubborn.unsupported (B.build variables) with
  | Some msg -> Testutil.check_contains "net-wide" msg "variables or tables"
  | None -> Alcotest.fail "variables should be rejected net-wide");
  let pred = B.create "pred" in
  let p = B.add_place pred "p" ~initial:1 in
  let _ =
    B.add_transition pred "guarded" ~inputs:[ (p, 1) ]
      ~predicate:(Expr.bool true)
  in
  (match Stubborn.unsupported (B.build pred) with
  | Some msg ->
    Testutil.check_contains "names the transition" msg
      "transition guarded carries a predicate"
  | None -> Alcotest.fail "predicates should be rejected per-transition");
  let act = B.create ~variables:[ ("x", Value.Int 0) ] "act" in
  let q = B.add_place act "q" ~initial:1 in
  let _ =
    B.add_transition act "writer" ~inputs:[ (q, 1) ]
      ~action:[ Expr.Assign ("x", Expr.int 1) ]
  in
  let act_net = B.build act in
  Alcotest.(check bool) "action net rejected" true
    (Stubborn.unsupported act_net <> None);
  (match Graph.build ~por:true act_net with
  | exception Invalid_argument msg ->
    Testutil.check_contains "message mentions --por off" msg "--por off"
  | _ -> Alcotest.fail "build ~por must raise Invalid_argument");
  (* the plain pipeline benchmark family is inside the fragment *)
  Alcotest.(check bool) "indep nets supported" true
    (Stubborn.unsupported (Pnut_pipeline.Indep.net ~pipelines:2 ~stages:2)
    = None)

(* the untimed paper model is plain: reduction applies and agrees *)
let test_prefetch_model_differential () =
  let net = Pnut_pipeline.Model.prefetch_only Pnut_pipeline.Config.default in
  Alcotest.(check bool) "prefetch net supported" true
    (Stubborn.unsupported net = None);
  let full = Graph.build net in
  let reduced = Graph.build ~por:true net in
  check_same_deadlocks "prefetch" full reduced;
  Alcotest.(check bool) "no more states than full" true
    (Graph.num_states reduced <= Graph.num_states full)

(* -- the closure-free stubborn set against a frozen oracle -- *)

(* The closure-based [Stubborn.fired] as it was before the set went
   allocation-free, kept verbatim (modulo field access) as the oracle:
   every seed closed to completion, duplicate seeds re-closed, the best
   seed always re-closed. *)
module Oracle = struct
  module Kernel = Pnut_core.Kernel
  module Incidence = Pnut_core.Incidence

  type t = {
    trans : Kernel.ctrans array;
    nt : int;
    conflicts : int array array;
    producers : int array array;
    consumers : int array array;
  }

  let create net =
    let kernel = Kernel.of_net net in
    {
      trans = Kernel.transitions kernel;
      nt = Kernel.num_transitions kernel;
      conflicts = Incidence.conflicts net;
      producers = Incidence.enablers net;
      consumers = Incidence.consumers net;
    }

  type scratch = {
    enabled : int array;
    stamp : int array;
    stack : int array;
    mutable round : int;
  }

  let scratch t =
    let n = max 1 t.nt in
    { enabled = Array.make n 0; stamp = Array.make n 0;
      stack = Array.make n 0; round = 0 }

  let scapegoat_relation t (c : Kernel.ctrans) m =
    let n = Array.length c.Kernel.s_in_place in
    let rec inputs i =
      if i >= n then inhibitors 0
      else if Marking.get m c.Kernel.s_in_place.(i) < c.Kernel.s_in_weight.(i)
      then t.producers.(c.Kernel.s_in_place.(i))
      else inputs (i + 1)
    and inhibitors i =
      if i >= Array.length c.Kernel.s_inh_place then [||]
      else if
        Marking.get m c.Kernel.s_inh_place.(i) >= c.Kernel.s_inh_weight.(i)
      then t.consumers.(c.Kernel.s_inh_place.(i))
      else inhibitors (i + 1)
    in
    inputs 0

  let fired t sc m =
    let ne = ref 0 in
    for tid = 0 to t.nt - 1 do
      if Kernel.token_enabled t.trans.(tid) m then begin
        sc.enabled.(!ne) <- tid;
        incr ne
      end
    done;
    let ne = !ne in
    if ne <= 1 then Array.sub sc.enabled 0 ne
    else begin
      let closure seed =
        sc.round <- sc.round + 1;
        let round = sc.round in
        let sp = ref 0 in
        let push tid =
          if sc.stamp.(tid) <> round then begin
            sc.stamp.(tid) <- round;
            sc.stack.(!sp) <- tid;
            incr sp
          end
        in
        push seed;
        while !sp > 0 do
          decr sp;
          let tid = sc.stack.(!sp) in
          let c = t.trans.(tid) in
          if Kernel.token_enabled c m then Array.iter push t.conflicts.(tid)
          else Array.iter push (scapegoat_relation t c m)
        done;
        let cnt = ref 0 in
        for i = 0 to ne - 1 do
          if sc.stamp.(sc.enabled.(i)) = round then incr cnt
        done;
        !cnt
      in
      let best_cnt = ref max_int in
      let best_seed = ref (-1) in
      let try_seed i =
        if !best_cnt > 1 then begin
          let seed = sc.enabled.(i) in
          let cnt = closure seed in
          if cnt < !best_cnt then begin
            best_cnt := cnt;
            best_seed := seed
          end
        end
      in
      try_seed 0;
      try_seed (ne - 1);
      try_seed (ne / 2);
      if ne > 3 then try_seed (ne / 4);
      if !best_cnt >= ne then Array.sub sc.enabled 0 ne
      else begin
        let cnt = closure !best_seed in
        assert (cnt = !best_cnt);
        let round = sc.round in
        let out = Array.make cnt 0 in
        let k = ref 0 in
        for i = 0 to ne - 1 do
          let tid = sc.enabled.(i) in
          if sc.stamp.(tid) = round then begin
            out.(!k) <- tid;
            incr k
          end
        done;
        out
      end
    end
end

(* A random plain net with weighted input and output arcs and inhibitor
   arcs, plus random markings over it: small enough that anywhere from
   zero to all of its transitions are enabled. *)
let random_plain_net rng =
  let int n = Random.State.int rng n in
  let np = 2 + int 6 in
  let nt = 1 + int 8 in
  let b = B.create "plain" in
  let places =
    Array.init np (fun i -> B.add_place b (Printf.sprintf "p%d" i))
  in
  let arcs k =
    List.init k (fun _ -> int np)
    |> List.sort_uniq compare
    |> List.map (fun p -> (places.(p), 1 + int 2))
  in
  for t = 0 to nt - 1 do
    ignore
      (B.add_transition b (Printf.sprintf "t%d" t)
         ~inputs:(arcs (int 3)) ~outputs:(arcs (int 3))
         ~inhibitors:(if int 3 = 0 then arcs 1 else [])
        : Net.transition_id)
  done;
  B.build b

let random_marking rng net =
  Marking.of_array
    (Array.init (Net.num_places net) (fun _ -> Random.State.int rng 3))

(* Both implementations on [markings] in turn, each with one scratch
   reused across calls; the enabled counts seen go to [seen]. *)
let fired_agrees ?(seen = Array.make 0 0) net markings =
  let sb = Stubborn.create (Pnut_core.Kernel.of_net net) in
  let sc = Stubborn.scratch sb in
  let oracle = Oracle.create net in
  let osc = Oracle.scratch oracle in
  List.for_all
    (fun m ->
      let ne =
        Array.fold_left
          (fun n c -> if Pnut_core.Kernel.token_enabled c m then n + 1 else n)
          0 oracle.Oracle.trans
      in
      if ne < Array.length seen then seen.(ne) <- seen.(ne) + 1;
      Stubborn.fired sb sc m = Oracle.fired oracle osc m)
    markings

let test_fired_matches_oracle () =
  let seen = Array.make 5 0 in
  for seed = 0 to 1999 do
    let rng = Random.State.make [| seed |] in
    let net = random_plain_net rng in
    let markings = List.init 4 (fun _ -> random_marking rng net) in
    if not (fired_agrees ~seen net markings) then
      Alcotest.failf "seed %d: fired differs from the oracle" seed
  done;
  Array.iteri
    (fun ne n ->
      Alcotest.(check bool)
        (Printf.sprintf "markings with %d enabled transitions covered" ne)
        true (n > 0))
    seen

let prop_fired_matches_oracle =
  QCheck2.Test.make ~name:"fired equals the closure-based oracle" ~count:300
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 14 |] in
      let net = random_plain_net rng in
      fired_agrees net (List.init 8 (fun _ -> random_marking rng net)))

let test_allocation_free () =
  let net = Pnut_pipeline.Indep.net ~pipelines:4 ~stages:3 in
  let kernel = Pnut_core.Kernel.of_net net in
  let m = Net.initial_marking net in
  let trans = Pnut_core.Kernel.transitions kernel in
  let hits = ref 0 in
  let words =
    Testutil.minor_words_of (fun () ->
        for k = 0 to 9_999 do
          if Pnut_core.Kernel.token_enabled trans.(k mod Array.length trans) m
          then incr hits
        done)
  in
  Alcotest.(check bool) "some transitions enabled" true (!hits > 0);
  Alcotest.(check (float 0.)) "token_enabled: 0 minor words over 10k calls"
    0. words;
  (* the stubborn set allocates its result array and nothing else *)
  let sb = Stubborn.create kernel in
  let sc = Stubborn.scratch sb in
  let size = Array.length (Stubborn.fired sb sc m) in
  let words =
    Testutil.minor_words_of (fun () ->
        for _ = 1 to 1_000 do
          ignore (Stubborn.fired sb sc m : int array)
        done)
  in
  Alcotest.(check (float 0.)) "fired: only the result array"
    (float_of_int (1_000 * (size + 1)))
    words

(* -- the static no-reduction test -- *)

(* The 9-place token ring of the reachability benchmark: one
   single-input transition per place, passing a token to the next. *)
let ring ~tokens =
  let b = B.create "ring9" in
  let places =
    Array.init 9 (fun i ->
        B.add_place b (Printf.sprintf "r%d" i)
          ~initial:(if i = 0 then tokens else 0))
  in
  for i = 0 to 8 do
    ignore
      (B.add_transition b (Printf.sprintf "rt%d" i)
         ~inputs:[ (places.(i), 1) ]
         ~outputs:[ (places.((i + 1) mod 9), 1) ]
        : Net.transition_id)
  done;
  B.build b

let reduces net = Stubborn.reduces (Stubborn.create (Pnut_core.Kernel.of_net net))

let test_static_test_corpus () =
  Alcotest.(check bool) "ring: nothing to reduce" false
    (reduces (ring ~tokens:17));
  let config = Pnut_pipeline.Config.default in
  List.iter
    (fun (name, net) -> Alcotest.(check bool) (name ^ " reduces") true
        (reduces net))
    [ ("indep6x4", Pnut_pipeline.Indep.net ~pipelines:6 ~stages:4);
      ("pipeline", Pnut_pipeline.Model.full config);
      ("prefetch", Pnut_pipeline.Model.prefetch_only config) ]

(* A random plain net biased toward the static test: a cycle of
   single-input transitions through some of the places, each passing a
   token on (sometimes also dropping one elsewhere), plus up to two
   extra transitions — half of them single-input moves between cycle
   places, which keep the always-pulled digraph strongly connected, the
   rest with random arcs, which usually break it. *)
let ring_like_net rng =
  let int n = Random.State.int rng n in
  let np = 2 + int 6 in
  let b = B.create "ringlike" in
  let places =
    Array.init np (fun i -> B.add_place b (Printf.sprintf "p%d" i)
                      ~initial:(int 3))
  in
  let cycle = Array.sub places 0 (2 + int (np - 1)) in
  let k = Array.length cycle in
  let add name ~inputs ~outputs ~inhibitors =
    ignore (B.add_transition b name ~inputs ~outputs ~inhibitors
            : Net.transition_id)
  in
  Array.iteri
    (fun i p ->
      let extra = if int 4 = 0 then [ (places.(int np), 1) ] else [] in
      add (Printf.sprintf "c%d" i) ~inputs:[ (p, 1) ]
        ~outputs:((cycle.((i + 1) mod k), 1) :: extra) ~inhibitors:[])
    cycle;
  for x = 0 to int 3 - 1 do
    let name = Printf.sprintf "x%d" x in
    if int 2 = 0 then
      add name ~inputs:[ (cycle.(int k), 1) ] ~outputs:[ (cycle.(int k), 1) ]
        ~inhibitors:[]
    else begin
      let arcs n =
        List.init n (fun _ -> int np)
        |> List.sort_uniq compare
        |> List.map (fun p -> (places.(p), 1 + int 2))
      in
      add name ~inputs:(arcs (1 + int 2)) ~outputs:(arcs (int 3))
        ~inhibitors:(if int 3 = 0 then arcs 1 else [])
    end
  done;
  B.build b

(* On a net the test passes, [fired] and the frozen closure oracle both
   return the full ascending enabled set at every reachable marking (the
   first 300 in breadth-first order: some of these nets are
   unbounded). *)
let prop_static_test_sound =
  QCheck2.Test.make ~name:"irreducible nets fire their full enabled set"
    ~count:100 ~max_gen:2000 ~if_assumptions_fail:(`Fatal, 1.0)
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let net = ring_like_net (Random.State.make [| seed; 21 |]) in
      let kernel = Pnut_core.Kernel.of_net net in
      let sb = Stubborn.create kernel in
      QCheck2.assume (not (Stubborn.reduces sb));
      let sc = Stubborn.scratch sb in
      let oracle = Oracle.create net in
      let osc = Oracle.scratch oracle in
      let trans = Pnut_core.Kernel.transitions kernel in
      let g = Graph.build ~max_states:300 net in
      List.for_all
        (fun i ->
          let m = Marking.of_array (Graph.state g i).Graph.s_marking in
          let enabled =
            List.filter
              (fun tid -> Pnut_core.Kernel.token_enabled trans.(tid) m)
              (List.init (Array.length trans) Fun.id)
            |> Array.of_list
          in
          Stubborn.fired sb sc m = enabled
          && Stubborn.enabled_count sc = Array.length enabled
          && Oracle.fired oracle osc m = enabled)
        (List.init (Graph.num_states g) Fun.id))

(* The builder skips the stubborn sets on the ring; the frozen boxed
   builder still calls [fired] at every state, and the two graphs, and
   the full one, coincide. *)
let test_ring_boxed_agrees () =
  let net = ring ~tokens:5 in
  let triples =
    List.map (fun e -> (e.Graph.e_from, e.Graph.e_transition, e.Graph.e_to))
  in
  let packed = Graph.build ~por:true net in
  let full = Graph.build net in
  let boxed = Boxed.build ~por:true net in
  Alcotest.(check int) "C(13, 8) states" 1287 (Graph.num_states packed);
  List.iter
    (fun (what, n, state, edges) ->
      Alcotest.(check (array (array int)))
        (what ^ ": states identical")
        (Array.init (Graph.num_states packed) (fun i ->
             (Graph.state packed i).Graph.s_marking))
        (Array.init n (fun i -> (state i).Graph.s_marking));
      Alcotest.(check (list (triple int int int)))
        (what ^ ": edges identical")
        (triples (Graph.edges packed)) (triples edges))
    [ ("boxed por", Boxed.num_states boxed, Boxed.state boxed,
       Boxed.edges boxed);
      ("full", Graph.num_states full, Graph.state full, Graph.edges full) ]

(* [por_reduction] as the CLI once computed it after the build: every
   recorded state's token-enabled transitions over the recorded edges. *)
let post_pass_reduction net g =
  let trans = Pnut_core.Kernel.transitions (Pnut_core.Kernel.of_net net) in
  let total = ref 0 in
  for i = 0 to Graph.num_states g - 1 do
    let m = Marking.of_array (Graph.state g i).Graph.s_marking in
    Array.iter
      (fun c -> if Pnut_core.Kernel.token_enabled c m then incr total)
      trans
  done;
  float_of_int !total /. float_of_int (max 1 (Graph.num_edges g))

(* The sweep's count equals the post-pass on complete, capped and
   cancelled builds, through the plain loop (the ring) and the stubborn
   loop (the pipeline and branching models). *)
let test_por_reduction_counted () =
  let config = Pnut_pipeline.Config.default in
  let cancelled () =
    let tok = Pnut_exec.Budget.token () in
    Pnut_exec.Budget.cancel tok;
    Pnut_exec.Budget.make ~cancel:tok ()
  in
  List.iter
    (fun (name, net) ->
      let check what ?budget ?max_states expect_reason =
        let outcome = Graph.build_supervised ?budget ?max_states ~por:true net in
        let g = Supervisor.value outcome in
        (match (outcome, expect_reason) with
        | Supervisor.Complete _, None -> ()
        | Supervisor.Degraded { reason; progress; _ }, Some r when reason = r ->
          if r = Supervisor.Cancelled then
            Alcotest.(check bool) (name ^ ": frontier left") true
              (progress.Supervisor.frontier > 0)
        | _ -> Alcotest.failf "%s %s: unexpected outcome" name what);
        Alcotest.(check (float 0.))
          (Printf.sprintf "%s %s: por_reduction" name what)
          (post_pass_reduction net g) (Graph.por_reduction g)
      in
      check "complete" None;
      check "capped" ~max_states:200 (Some (Supervisor.States 200));
      check "cancelled" ~budget:(cancelled ()) (Some Supervisor.Cancelled);
      Alcotest.(check (float 0.)) (name ^ ": 1.0 without por") 1.0
        (Graph.por_reduction (Graph.build net)))
    [ ("ring", ring ~tokens:5);
      ("pipeline", Pnut_pipeline.Model.full config);
      ("branching", Pnut_pipeline.Branching.full config) ]

let () =
  Alcotest.run "por"
    [
      ( "indep",
        [
          Alcotest.test_case "reduction >= 5x with identical deadlocks"
            `Quick test_indep_reduction;
          Alcotest.test_case "deadlock is the final-slot marking" `Quick
            test_indep_deadlock_is_final_slots;
          Alcotest.test_case "name parsing" `Quick test_indep_parse_name;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "reduced numbering identical across builds"
            `Quick test_reduced_numbering_identical;
        ] );
      ( "budget",
        [ Alcotest.test_case "state cap degrades" `Quick test_budget_truncation ] );
      ( "fragment",
        [
          Alcotest.test_case "unsupported features rejected" `Quick
            test_unsupported;
          Alcotest.test_case "prefetch model agrees" `Quick
            test_prefetch_model_differential;
        ] );
      ( "alloc-free",
        [
          Alcotest.test_case "fired equals the frozen oracle" `Quick
            test_fired_matches_oracle;
          Alcotest.test_case "enabling test and stubborn set" `Quick
            test_allocation_free;
        ] );
      ( "static",
        [
          Alcotest.test_case "ring irreducible, corpus reduces" `Quick
            test_static_test_corpus;
          Alcotest.test_case "boxed oracle agrees on the ring" `Quick
            test_ring_boxed_agrees;
          Alcotest.test_case "por_reduction counted in the sweep" `Quick
            test_por_reduction_counted;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_fired_matches_oracle;
          QCheck_alcotest.to_alcotest prop_static_test_sound;
        ] );
    ]
