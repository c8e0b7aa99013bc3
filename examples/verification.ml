(* Verification workflow (Section 4.4 and the [MR87] analyzer).

   The same property can be checked at three levels of assurance:
   1. tested against one simulation trace (tracertool),
   2. proven over every reachable state (first-order predicate calculus
      and branching-time temporal logic on the reachability graph),
   3. for boundedness questions, decided even for infinite state spaces
      (Karp-Miller coverability).

   This example runs all three on the pipeline model, then deliberately
   injects the modeling bug the paper warns about (a non-zero timing on a
   bus hand-off) and shows every level catching it.

   Run with:  dune exec examples/verification.exe *)

module Net = Pnut_core.Net
module Model = Pnut_pipeline.Model
module Config = Pnut_pipeline.Config
module Sim = Pnut_sim.Simulator
module Query = Pnut_tracer.Query
module Parser = Pnut_lang.Parser
module Graph = Pnut_reach.Graph
module Ctl = Pnut_reach.Ctl
module Predicate = Pnut_reach.Predicate

let one_hot = "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]"

let () =
  let net = Model.full Config.default in

  Format.printf "Level 1: testing the bus invariant on a simulation trace@.";
  let trace, _ = Sim.trace ~seed:42 ~until:5000.0 net in
  let result = Query.eval trace (Parser.parse_query one_hot) in
  Format.printf "  %-55s %a@.@." one_hot Query.pp_result result;

  Format.printf "Level 2: proving it over every reachable state@.";
  let g = Graph.build ~max_states:20_000 net in
  Format.printf "  reachable states: %d@." (Graph.num_states g);
  Format.printf "  %-55s %a@." one_hot Query.pp_result
    (Predicate.eval g (Parser.parse_query one_hot));
  let liveness =
    Ctl.AG
      (Ctl.Implies
         ( Ctl.Atom (Parser.parse_expr "Bus_busy == 1"),
           Ctl.AF (Ctl.Atom (Parser.parse_expr "Bus_free == 1")) ))
  in
  Format.printf "  AG (Bus_busy -> inev Bus_free)%36s %b@.@." "" (Ctl.check g liveness);

  Format.printf "Level 3: boundedness via coverability@.";
  (* coverability needs an inhibitor-free net: the prefetch fragment
     with its inhibitors dropped is a sound over-approximation for
     boundedness of the buffer (dropping inhibitors only adds behaviour) *)
  let open Net.Builder in
  let b = create "prefetch_over" in
  let bus_free = add_place b "Bus_free" ~initial:1 in
  let bus_busy = add_place b "Bus_busy" in
  let empty = add_place b "Empty" ~initial:6 in
  let full = add_place b "Full" in
  let fetching = add_place b "fetching" in
  let _ =
    add_transition b "start"
      ~inputs:[ (bus_free, 1); (empty, 2) ]
      ~outputs:[ (bus_busy, 1); (fetching, 1) ]
  in
  let _ =
    add_transition b "finish"
      ~inputs:[ (fetching, 1); (bus_busy, 1) ]
      ~outputs:[ (bus_free, 1); (full, 2) ]
  in
  let _ = add_transition b "decode" ~inputs:[ (full, 1) ] ~outputs:[ (empty, 1) ] in
  let over = build b in
  let cov = Pnut_reach.Coverability.build over in
  Format.printf "  %a@.@." (Pnut_reach.Coverability.pp_summary over) cov;

  Format.printf
    "Injecting the paper's modeling bug: a 1-cycle FIRING time on the@.";
  Format.printf "bus hand-off (tokens vanish mid-transfer)...@.@.";
  let buggy =
    let b = create "buggy_bus" in
    let free = add_place b "Bus_free" ~initial:1 in
    let busy = add_place b "Bus_busy" in
    let _ =
      add_transition b "grab" ~inputs:[ (free, 1) ] ~outputs:[ (busy, 1) ]
        ~firing:(Net.Const 1.0)  (* the bug: should be instantaneous *)
    in
    let _ =
      add_transition b "release" ~inputs:[ (busy, 1) ] ~outputs:[ (free, 1) ]
        ~enabling:(Net.Const 5.0)
    in
    build b
  in
  let buggy_trace, _ = Sim.trace ~seed:1 ~until:100.0 buggy in
  Format.printf "  trace test:        %-36s %a@." one_hot Query.pp_result
    (Query.eval buggy_trace (Parser.parse_query one_hot));
  (* The untimed graph fires atomically and CANNOT see this bug — the
     timed reachability graph carries in-flight firings and can: *)
  let bg = Graph.build buggy in
  Format.printf "  untimed graph:     %-36s %a   <- blind to timing!@."
    one_hot Query.pp_result
    (Predicate.eval bg (Parser.parse_query one_hot));
  let tg = Pnut_reach.Timed.build buggy in
  let violating =
    let free = Net.place_id buggy "Bus_free" in
    let busy = Net.place_id buggy "Bus_busy" in
    let rec find i =
      if i >= Pnut_reach.Timed.num_states tg then None
      else
        let s = Pnut_reach.Timed.state tg i in
        if s.Pnut_reach.Timed.ts_marking.(free)
           + s.Pnut_reach.Timed.ts_marking.(busy)
           <> 1
        then Some i
        else find (i + 1)
    in
    find 0
  in
  (match violating with
  | Some i ->
    Format.printf
      "  timed graph:       one-hot invariant                   fails \
       (state #%d, token in transit)@." i
  | None -> Format.printf "  timed graph:       unexpectedly clean@.");
  Format.printf
    "@.(The trace test and the timed graph catch the bug; the untimed@.";
  Format.printf
    "graph abstracts firings to atomic steps and misses it — choosing@.";
  Format.printf "the right analysis level matters.)@."
