(* The reproduction harness: regenerates every figure of the paper's
   evaluation (Figures 1-7 of "The Use of Petri Nets for Modeling
   Pipelined Processors", plus the Section 4.4 verification queries),
   then runs the ablations called out in DESIGN.md and a set of Bechamel
   engine microbenchmarks.

   Absolute counts cannot match the paper bit-for-bit (its PRNG and seeds
   are unspecified); EXPERIMENTS.md records the shape comparison this
   harness prints. *)

module Net = Pnut_core.Net
module Config = Pnut_pipeline.Config
module Model = Pnut_pipeline.Model
module Interpreted = Pnut_pipeline.Interpreted
module Extensions = Pnut_pipeline.Extensions
module Sim = Pnut_sim.Simulator
module Stat = Pnut_stat.Stat
module Trace = Pnut_trace.Trace
module Signal = Pnut_tracer.Signal
module Waveform = Pnut_tracer.Waveform
module Query = Pnut_tracer.Query
module Parser = Pnut_lang.Parser
module Boxed = Pnut_oracle.Boxed_graph

let section title =
  Printf.printf "\n%s\n%s\n%s\n\n"
    (String.make 74 '=') title (String.make 74 '=')

let default = Config.default

let stats ?(seed = 42) ?(until = 10_000.0) net =
  let sink, get = Stat.sink () in
  let _ = Sim.simulate ~seed ~until ~sink net in
  get ()

(* The reference run shared by Figures 5-7: the paper's parameters,
   10000 cycles. *)
let reference_trace = lazy (fst (Sim.trace ~seed:42 ~until:10_000.0 (Model.full default)))
let reference_stats = lazy (Stat.of_trace (Lazy.force reference_trace))

(* -- Figures 1-4: the models themselves -- *)

let figure_1_to_3 () =
  section "Figures 1-3: the 3-stage pipeline model (textual form)";
  let net = Model.full default in
  Format.printf "%a@." Net.pp net;
  let diags = Pnut_core.Validate.check net in
  Printf.printf "validate: %d diagnostics\n" (List.length diags);
  let inc = Pnut_core.Incidence.of_net net in
  Printf.printf "P-invariants (structural correctness of the figures):\n";
  List.iter
    (fun y ->
      Format.printf "  %a = constant@." (Pnut_core.Incidence.pp_vector net `Place) y)
    (Pnut_core.Incidence.p_invariants inc);
  let g = Pnut_reach.Graph.build ~max_states:20_000 net in
  Format.printf "%a@." Pnut_reach.Graph.pp_summary g

let figure_4 () =
  section "Figure 4: interpreted net for operand fetching";
  let net = Interpreted.operand_fetch_skeleton default in
  (* print without the bulky selection table *)
  Array.iter
    (fun tr ->
      Format.printf "transition %s" tr.Net.t_name;
      (match tr.Net.t_predicate with
      | Some p -> Format.printf "  predicate %a" Pnut_core.Expr.pp p
      | None -> ());
      List.iter
        (fun s -> Format.printf "  action %a" Pnut_core.Expr.pp_stmt s)
        tr.Net.t_action;
      Format.printf "@.")
    (Net.transitions net);
  let r = stats ~seed:8 ~until:5000.0 net in
  Printf.printf
    "\nskeleton run: %.3f fetches per decoded instruction (expected ~0.4)\n"
    (float_of_int (Stat.transition r "fetch_operand").Stat.ts_starts
    /. float_of_int (Stat.transition r "Decode").Stat.ts_starts)

(* -- Figure 5: the statistics report -- *)

(* Paper values from the Figure-5 report (10000 cycles). *)
let paper_event_stats =
  [
    (* name, avg concurrent firings, throughput *)
    ("Issue", 0.0, 0.1238);
    ("exec_type_1", 0.0618, 0.0618);
    ("exec_type_2", 0.0752, 0.0376);
    ("exec_type_3", 0.0631, 0.0126);
    ("exec_type_4", 0.059, 0.0059);
    ("exec_type_5", 0.29, 0.0058);
  ]

let paper_place_stats =
  [
    ("Full_I_buffers", 4.621);
    ("Empty_I_buffers", 0.7576);
    ("pre_fetching", 0.3107);
    ("fetching", 0.2275);
    ("storing", 0.12);
    ("Bus_busy", 0.6582);
    ("Decoder_ready", 0.0014);
    ("Execution_unit", 0.2739);
    ("ready_to_issue_instruction", 0.5022);
  ]

let figure_5 () =
  section "Figure 5: performance statistics report (10000 cycles, seed 42)";
  let r = Lazy.force reference_stats in
  print_string (Stat.render r);
  Printf.printf "\nPaper-vs-measured comparison (shape):\n";
  Printf.printf "  %-28s %10s %10s %8s\n" "metric" "paper" "measured" "ratio";
  let row name paper measured =
    Printf.printf "  %-28s %10.4f %10.4f %8.2f\n" name paper measured
      (if paper = 0.0 then Float.nan else measured /. paper)
  in
  List.iter
    (fun (name, _, paper_thr) ->
      row (name ^ " throughput") paper_thr (Stat.throughput r name))
    paper_event_stats;
  List.iter
    (fun (name, paper_avg) ->
      row (name ^ " avg tokens") paper_avg (Stat.utilization r name))
    paper_place_stats;
  (* the derived readings of Section 4.2 *)
  Printf.printf "\nSection 4.2 readings:\n";
  Printf.printf "  instruction processing rate = Issue throughput = %.4f/cycle\n"
    (Stat.throughput r "Issue");
  Printf.printf "  bus utilization             = avg(Bus_busy)    = %.4f\n"
    (Stat.utilization r "Bus_busy");
  Printf.printf "  bus breakdown: prefetch %.4f + operand %.4f + store %.4f = %.4f\n"
    (Stat.utilization r "pre_fetching")
    (Stat.utilization r "fetching")
    (Stat.utilization r "storing")
    (Stat.utilization r "pre_fetching"
    +. Stat.utilization r "fetching"
    +. Stat.utilization r "storing")

(* -- Figure 6: animation -- *)

let figure_6 () =
  section "Figure 6: animation of the pipeline model (first events)";
  let net = Model.full default in
  let trace, _ = Sim.trace ~seed:42 ~max_events:4 net in
  let frames =
    Pnut_anim.Animator.frames
      ~places:
        [ "Bus_free"; "Bus_busy"; "Empty_I_buffers"; "Full_I_buffers";
          "pre_fetching"; "Decoder_ready" ]
      net trace
  in
  List.iteri
    (fun i f ->
      if i < 6 then begin
        print_string f.Pnut_anim.Animator.f_text;
        print_endline "----------------------------------------"
      end)
    frames;
  Printf.printf "(%d frames total)\n" (List.length frames)

(* -- Figure 7: tracertool -- *)

let figure_7 () =
  section "Figure 7: timing analysis using tracertool (cycles 0-150)";
  let trace = Lazy.force reference_trace in
  let exec_sum =
    Signal.Fun
      ( "all_exec",
        List.fold_left
          (fun acc name -> Pnut_core.Expr.(acc + var name))
          (Pnut_core.Expr.int 0)
          (Model.exec_transition_names default) )
  in
  let signals =
    [ Signal.Place "Bus_busy"; Signal.Place "pre_fetching";
      Signal.Place "fetching"; Signal.Place "storing";
      Signal.Transition "exec_type_1"; Signal.Transition "exec_type_2";
      Signal.Transition "exec_type_3"; Signal.Transition "exec_type_4";
      Signal.Transition "exec_type_5"; exec_sum;
      Signal.Place "Empty_I_buffers" ]
  in
  print_string
    (Waveform.render ~from_time:0.0 ~to_time:150.0
       ~markers:
         [ { Waveform.m_label = "O"; m_time = 54.0 };
           { Waveform.m_label = "X"; m_time = 94.0 } ]
       trace signals)

(* -- Section 4.4: verification queries -- *)

let section_4_4 () =
  section "Section 4.4: trace verification queries";
  let trace = Lazy.force reference_trace in
  List.iter
    (fun q ->
      let result = Query.eval trace (Parser.parse_query q) in
      Format.printf "  %-72s %a@." q Query.pp_result result)
    [
      "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]";
      "exists s in (S - {#0}) [ Empty_I_buffers(s) = 6 ]";
      "exists s in S [ exec_type_5(s) > 0 ]";
      "forall s in {s' in S | Bus_busy(s') > 0} [ inev(s, Bus_free > 0, true) ]";
    ];
  (* and the branching-time version on the reachability graph *)
  let net = Model.full default in
  let g = Pnut_reach.Graph.build ~max_states:20_000 net in
  let inev_free =
    Pnut_reach.Ctl.AG
      (Pnut_reach.Ctl.Implies
         ( Pnut_reach.Ctl.Atom (Parser.parse_expr "Bus_busy == 1"),
           Pnut_reach.Ctl.AF (Pnut_reach.Ctl.Atom (Parser.parse_expr "Bus_free == 1")) ))
  in
  Printf.printf "  reachability analyzer: AG (Bus_busy -> inev Bus_free) = %b (proof)\n"
    (Pnut_reach.Ctl.check g inev_free)

(* -- Ablation A1: firing vs enabling time -- *)

module B = Net.Builder

(* Rebuild a net with every enabling delay turned into a firing delay. *)
let enabling_to_firing net =
  let b =
    B.create (Net.name net ^ "_firing") ~variables:(Net.variables net)
      ~tables:(Net.tables net)
  in
  Array.iter
    (fun p ->
      ignore
        (match p.Net.p_capacity with
        | Some c ->
          B.add_place b p.Net.p_name ~initial:p.Net.p_initial ~capacity:c
        | None -> B.add_place b p.Net.p_name ~initial:p.Net.p_initial
          : Net.place_id))
    (Net.places net);
  Array.iter
    (fun tr ->
      let arcs l = List.map (fun a -> (a.Net.a_place, a.Net.a_weight)) l in
      let firing, enabling =
        match tr.Net.t_enabling with
        | Net.Zero -> (tr.Net.t_firing, Net.Zero)
        | d -> (d, Net.Zero)  (* swap: the delay becomes a firing time *)
      in
      ignore
        (match tr.Net.t_predicate with
        | Some p ->
          B.add_transition b tr.Net.t_name ~inputs:(arcs tr.Net.t_inputs)
            ~inhibitors:(arcs tr.Net.t_inhibitors)
            ~outputs:(arcs tr.Net.t_outputs) ~firing ~enabling
            ~frequency:tr.Net.t_frequency ~predicate:p ~action:tr.Net.t_action
        | None ->
          B.add_transition b tr.Net.t_name ~inputs:(arcs tr.Net.t_inputs)
            ~inhibitors:(arcs tr.Net.t_inhibitors)
            ~outputs:(arcs tr.Net.t_outputs) ~firing ~enabling
            ~frequency:tr.Net.t_frequency ~action:tr.Net.t_action
          : Net.transition_id))
    (Net.transitions net);
  B.build b

let ablation_firing_vs_enabling () =
  section "Ablation A1: firing time vs enabling time (Section 4.2 subtlety)";
  let enabling_model = Model.full default in
  let firing_model = enabling_to_firing enabling_model in
  let re = stats ~seed:42 enabling_model in
  let rf = stats ~seed:42 firing_model in
  Printf.printf
    "Memory delays as ENABLING times (tokens stay visible during access):\n";
  Printf.printf "  Issue throughput %.4f, Bus_busy reading %.4f\n"
    (Stat.throughput re "Issue") (Stat.utilization re "Bus_busy");
  Printf.printf
    "Memory delays as FIRING times (tokens vanish during access):\n";
  Printf.printf "  Issue throughput %.4f, Bus_busy reading %.4f  <- misreads!\n"
    (Stat.throughput rf "Issue") (Stat.utilization rf "Bus_busy");
  Printf.printf
    "\nThe throughputs stay in the same regime (the delays are identical)\n\
     but the firing-time version breaks the Bus_free+Bus_busy=1 discipline,\n\
     so the place average no longer reads as utilization — the paper's\n\
     reason for requiring instantaneous bus hand-offs.\n";
  let trace, _ = Sim.trace ~seed:1 ~until:1000.0 firing_model in
  let q = Parser.parse_query "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]" in
  Format.printf "  one-hot query on the firing-time variant: %a@."
    Query.pp_result (Query.eval trace q)

(* -- Ablation A2: memory speed -- *)

let ablation_memory_speed () =
  section "Ablation A2: memory speed vs performance (intro motivation)";
  Printf.printf "  %10s %12s %10s %10s\n" "mem cycles" "instr/cycle" "bus util" "buf avg";
  List.iter
    (fun memory_cycles ->
      let r = stats ~until:20_000.0 (Model.full { default with Config.memory_cycles }) in
      Printf.printf "  %10g %12.4f %10.3f %10.3f\n" memory_cycles
        (Stat.throughput r "Issue")
        (Stat.utilization r "Bus_busy")
        (Stat.utilization r "Full_I_buffers"))
    [ 1.0; 2.0; 3.0; 5.0; 8.0; 12.0; 20.0 ]

(* -- Ablation A3: buffer size -- *)

let ablation_buffer_size () =
  section "Ablation A3: instruction-buffer size";
  Printf.printf "  %6s %12s %12s\n" "words" "instr/cycle" "decoder idle";
  List.iter
    (fun buffer_words ->
      let r = stats ~until:20_000.0 (Model.full { default with Config.buffer_words }) in
      Printf.printf "  %6d %12.4f %12.4f\n" buffer_words
        (Stat.throughput r "Issue")
        (Stat.utilization r "Decoder_ready"))
    [ 2; 4; 6; 8; 12 ]

(* -- Ablation A4: caches -- *)

let ablation_cache () =
  section "Ablation A4: cache hit ratios (Section 3)";
  Printf.printf "  %6s %12s %10s\n" "hit" "instr/cycle" "bus util";
  List.iter
    (fun h ->
      let net =
        Extensions.with_caches ~icache_hit_ratio:h ~dcache_hit_ratio:h default
      in
      let r = stats ~until:20_000.0 net in
      Printf.printf "  %6.2f %12.4f %10.3f\n" h
        (Stat.throughput r "Issue")
        (Stat.utilization r "Bus_busy"))
    [ 0.0; 0.25; 0.5; 0.75; 0.9; 0.99 ]

(* -- Ablation A5: instruction mix -- *)

let ablation_instruction_mix () =
  section "Ablation A5: instruction-mix sensitivity";
  Printf.printf "  %16s %12s %10s\n" "mix (0/1/2 ops)" "instr/cycle" "bus util";
  List.iter
    (fun ((m1, m2, m3) as mix) ->
      let r = stats ~until:20_000.0 (Model.full { default with Config.mix }) in
      Printf.printf "  %6.0f/%3.0f/%3.0f %12.4f %10.3f\n" m1 m2 m3
        (Stat.throughput r "Issue")
        (Stat.utilization r "Bus_busy"))
    [ (100.0, 0.0001, 0.0001); (70.0, 20.0, 10.0); (50.0, 30.0, 20.0);
      (20.0, 40.0, 40.0) ]

(* -- Ablation A6: structural vs interpreted model -- *)

let ablation_interpreted () =
  section "Ablation A6: structural vs table-driven model (Section 3)";
  let rs = stats ~until:20_000.0 (Model.full default) in
  let ri = stats ~until:20_000.0 (Interpreted.full default) in
  Printf.printf "  %-14s %8s %8s %12s %10s\n" "model" "places" "trans" "instr/cycle" "bus util";
  let row name net r =
    Printf.printf "  %-14s %8d %8d %12.4f %10.3f\n" name (Net.num_places net)
      (Net.num_transitions net) (Stat.throughput r "Issue")
      (Stat.utilization r "Bus_busy")
  in
  row "structural" (Model.full default) rs;
  row "interpreted" (Interpreted.full default) ri;
  let wide = Interpreted.full ~instruction_set:(Interpreted.wide_instruction_set ()) default in
  let rw = stats ~until:20_000.0 wide in
  row "30-mode ISA" wide rw

(* -- Ablation A8: branches and flush-on-branch -- *)

let ablation_branches () =
  section "Ablation A8: taken branches flushing the prefetch buffer";
  Printf.printf
    "Control transfers squash the prefetched words (Section 3's 'more\n\
     complex processors' direction). Branch-ratio sweep at buffer = 6:\n\n";
  Printf.printf "  %8s %12s %14s %10s\n" "branches" "instr/cycle"
    "words flushed" "bus util";
  List.iter
    (fun ratio ->
      let net = Pnut_pipeline.Branching.full ~branch_ratio:ratio default in
      let r = stats ~until:20_000.0 net in
      let flushed =
        if ratio > 0.0 then
          (Stat.transition r "flush_buffer_word").Stat.ts_starts
        else 0
      in
      Printf.printf "  %8g %12.4f %14d %10.3f\n" ratio
        (Stat.throughput r "Issue") flushed
        (Stat.utilization r "Bus_busy"))
    [ 0.0; 0.05; 0.15; 0.3; 0.5 ];
  Printf.printf
    "\nBuffer depth vs branch frequency (instr/cycle): without branches a\n\
     deeper buffer can only help (A3); with branches the prefetched words\n\
     are wasted work and the gain inverts:\n\n";
  Printf.printf "  %10s %10s %10s %10s\n" "buffer" "b=0" "b=0.15" "b=0.4";
  List.iter
    (fun buffer_words ->
      let rate ratio =
        let net =
          Pnut_pipeline.Branching.full ~branch_ratio:ratio
            { default with Config.buffer_words }
        in
        Stat.throughput (stats ~until:20_000.0 net) "Issue"
      in
      Printf.printf "  %10d %10.4f %10.4f %10.4f\n" buffer_words (rate 0.0)
        (rate 0.15) (rate 0.4))
    [ 2; 4; 6; 12 ]

(* -- Ablation A9: pipelined vs non-pipelined -- *)

let ablation_serial () =
  section "Ablation A9: pipelining speedup over the serial baseline";
  Printf.printf
    "The paper's premise is that pipelining speeds up fetch/decode/execute;\n\
     the counterfactual is a machine doing one instruction at a time with\n\
     the same timings. Analytic serial cost with the paper's parameters:\n\
     %.1f cycles/instruction.\n\n"
    (Pnut_pipeline.Serial.expected_cycles_per_instruction default);
  Printf.printf "  %10s %12s %12s %9s\n" "mem cycles" "pipelined" "serial" "speedup";
  List.iter
    (fun memory_cycles ->
      let c = { default with Config.memory_cycles } in
      let p = Stat.throughput (stats ~until:50_000.0 (Model.full c)) "Issue" in
      let s =
        Stat.throughput (stats ~until:50_000.0 (Pnut_pipeline.Serial.full c)) "Decode"
      in
      Printf.printf "  %10g %12.4f %12.4f %9.2f\n" memory_cycles p s (p /. s))
    [ 1.0; 2.0; 5.0; 10.0; 20.0 ];
  Printf.printf
    "\nThe speedup grows with memory latency — overlap hides it — toward\n\
     the bus-bound asymptote (serial demand 1.6m vs pipelined 1.1m cycles\n\
     of bus per instruction => ~1.45 in the limit).\n"

(* -- Ablation A7: analytical vs simulation evaluation -- *)

let ablation_analytic () =
  section "Ablation A7: analytical (CTMC) vs simulation evaluation";
  Printf.printf
    "The paper's conclusion mentions P-NUT tools for analytical (as\n\
     opposed to simulation) performance evaluation. The exponential\n\
     variant of the full pipeline (all deterministic delays replaced by\n\
     exponentials of the same mean) is a GSPN; its CTMC is solved exactly\n\
     and compared to a 300k-cycle simulation, and to the deterministic\n\
     model (showing how much the timing distribution matters):\n\n";
  let det = Model.full default in
  let exp_net = Pnut_analytic.Gspn.exponential_variant det in
  let a = Pnut_analytic.Gspn.analyze ~max_states:5000 exp_net in
  let sim_exp = stats ~until:300_000.0 exp_net in
  let sim_det = Lazy.force reference_stats in
  Printf.printf "  %-26s %12s %12s %12s\n" "metric" "exp analytic" "exp simulated"
    "det simulated";
  let row name analytic simulated det_v =
    Printf.printf "  %-26s %12.4f %12.4f %12.4f\n" name analytic simulated det_v
  in
  row "Issue throughput"
    (Pnut_analytic.Gspn.throughput a exp_net "Issue")
    (Stat.throughput sim_exp "Issue")
    (Stat.throughput sim_det "Issue");
  row "Bus utilization"
    (Pnut_analytic.Gspn.place_mean a exp_net "Bus_busy")
    (Stat.utilization sim_exp "Bus_busy")
    (Stat.utilization sim_det "Bus_busy");
  row "Full buffers"
    (Pnut_analytic.Gspn.place_mean a exp_net "Full_I_buffers")
    (Stat.utilization sim_exp "Full_I_buffers")
    (Stat.utilization sim_det "Full_I_buffers");
  Printf.printf
    "\n  (%d tangible + %d vanishing markings; the analytic and simulated\n\
    \  exponential columns agree to stochastic noise, validating both.\n\
    \  The deterministic column differs for a real semantic reason: the\n\
    \  five competing exec_type transitions select by FREQUENCY when\n\
    \  instant-enabled, but exponential delays make them RACE, biasing\n\
    \  the class mix toward fast instructions — a classic preselection-\n\
    \  vs-race subtlety of timed-net semantics.)\n"
    a.Pnut_analytic.Gspn.tangible_states a.Pnut_analytic.Gspn.vanishing_states;
  (* replication CIs quantify the simulation noise *)
  let ci =
    Pnut_stat.Replication.replicate ~seed:5 ~runs:8 ~until:10_000.0 exp_net
      (fun r -> Stat.throughput r "Issue")
  in
  Format.printf "  simulated Issue throughput over 8 runs: %a@."
    Pnut_stat.Replication.pp ci

(* -- Bechamel microbenchmarks -- *)

let bechamel_micro () =
  section "Engine microbenchmarks (Bechamel)";
  let open Bechamel in
  let net = Model.full default in
  let small = Model.prefetch_only default in
  let trace_text =
    lazy (Pnut_trace.Codec.to_string (fst (Sim.trace ~seed:1 ~until:500.0 net)))
  in
  let stored_trace = lazy (fst (Sim.trace ~seed:1 ~until:500.0 net)) in
  let tests =
    Test.make_grouped ~name:"pnut"
      [
        Test.make ~name:"simulate-1k-cycles"
          (Staged.stage (fun () ->
               ignore (Sim.simulate ~seed:7 ~until:1000.0 net)));
        Test.make ~name:"reachability-prefetch"
          (Staged.stage (fun () ->
               ignore (Pnut_reach.Graph.build ~max_states:10_000 small)));
        Test.make ~name:"trace-parse"
          (Staged.stage (fun () ->
               ignore (Pnut_trace.Codec.parse (Lazy.force trace_text))));
        Test.make ~name:"stat-pass"
          (Staged.stage (fun () ->
               ignore (Stat.of_trace (Lazy.force stored_trace))));
        Test.make ~name:"invariants"
          (Staged.stage (fun () ->
               ignore (Pnut_core.Incidence.p_invariants (Pnut_core.Incidence.of_net net))));
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  List.iter
    (fun (name, o) ->
      match Analyze.OLS.estimates o with
      | Some (t :: _) -> Printf.printf "  %-32s %12.0f ns/run\n" name t
      | Some [] | None -> Printf.printf "  %-32s (no estimate)\n" name)
    (List.sort compare rows)

(* -- final self-check: the reproduction claims, asserted -- *)

let shape_verdicts () =
  section "Shape verdicts (the claims EXPERIMENTS.md records)";
  let failures = ref 0 in
  let check name ok detail =
    if not ok then incr failures;
    Printf.printf "  [%s] %-52s %s\n" (if ok then "PASS" else "FAIL") name detail
  in
  let r = Lazy.force reference_stats in
  let issue = Stat.throughput r "Issue" in
  check "Issue rate in the paper's band" (issue > 0.09 && issue < 0.15)
    (Printf.sprintf "%.4f vs paper 0.1238" issue);
  let bus = Stat.utilization r "Bus_busy" in
  check "bus utilization band" (bus > 0.5 && bus < 0.75)
    (Printf.sprintf "%.3f vs paper 0.658" bus);
  let pf = Stat.utilization r "pre_fetching" in
  let ft = Stat.utilization r "fetching" in
  let st = Stat.utilization r "storing" in
  check "bus breakdown ordering (prefetch > fetch > store)" (pf > ft && ft > st)
    (Printf.sprintf "%.3f / %.3f / %.3f" pf ft st);
  check "breakdown sums to utilization"
    (Float.abs (pf +. ft +. st -. bus) < 1e-6)
    (Printf.sprintf "sum %.4f" (pf +. ft +. st));
  check "buffers nearly full"
    (Stat.utilization r "Full_I_buffers" > 3.5)
    (Printf.sprintf "%.2f vs paper 4.62" (Stat.utilization r "Full_I_buffers"));
  check "decoder essentially never idle"
    (Stat.utilization r "Decoder_ready" < 0.05)
    (Printf.sprintf "%.4f vs paper 0.0014" (Stat.utilization r "Decoder_ready"));
  (* monotone sensitivities *)
  let rate mem =
    Stat.throughput (stats ~until:10_000.0 (Model.full { default with Config.memory_cycles = mem })) "Issue"
  in
  check "throughput falls with memory latency" (rate 1.0 > rate 5.0 && rate 5.0 > rate 20.0)
    (Printf.sprintf "%.4f > %.4f > %.4f" (rate 1.0) (rate 5.0) (rate 20.0));
  let cached h =
    Stat.throughput
      (stats ~until:10_000.0
         (Extensions.with_caches ~icache_hit_ratio:h ~dcache_hit_ratio:h default))
      "Issue"
  in
  check "caches help" (cached 0.9 > cached 0.0)
    (Printf.sprintf "%.4f (h=0.9) vs %.4f (h=0)" (cached 0.9) (cached 0.0));
  (* the verification queries *)
  let trace = Lazy.force reference_trace in
  let holds q = Query.holds (Query.eval trace (Parser.parse_query q)) in
  check "bus one-hot query holds"
    (holds "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]") "";
  check "type-5 instruction occurred"
    (holds "exists s in S [ exec_type_5(s) > 0 ]") "";
  (* baseline *)
  let serial =
    Stat.throughput (stats ~until:50_000.0 (Pnut_pipeline.Serial.full default)) "Decode"
  in
  check "pipelining speedup > 1.3" (issue /. serial > 1.3)
    (Printf.sprintf "%.2fx over the serial baseline" (issue /. serial));
  Printf.printf "\n%s\n"
    (if !failures = 0 then "All shape verdicts PASS."
     else Printf.sprintf "%d shape verdict(s) FAILED." !failures)

(* -- Machine-readable benchmarks (--bench-json) -- *)

(* The report is a table of cases: each measures one section as a [json]
   value and gates it with checks on paths of that value.  One emitter
   prints the tree, one reporter the gates; floors read the baseline by path. *)

module Graph = Pnut_reach.Graph
module Timed = Pnut_reach.Timed
module Timed_explicit = Pnut_oracle.Timed_explicit

type json =
  | Int of int | Float of float | Bool of bool | Str of string
  | List of json list | Obj of (string * json) list

(* [x] rounded to [dp] decimals (seconds keep 6, rates 0); the emitter
   prints the shortest decimal of the rounded value. *)
let num ?(dp = 6) x =
  let scale = 10.0 ** float_of_int dp in
  Float (Float.round (x *. scale) /. scale)

let ratio ?(dp = 3) a b = num ~dp (if b > 0.0 then a /. b else 0.0)
let rate count s = ratio ~dp:0 (float_of_int count) s

(* [n] [what] (states, events) in [s] seconds, and their rate *)
let throughput what n s =
  [ (what, Int n); ("seconds", num s); (what ^ "_per_sec", rate n s) ]

(* Containers of scalars print on one line, anything deeper one member
   per line. *)
let rec to_string indent = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.15g" f
  | Bool v -> string_of_bool v
  | Str s -> Printf.sprintf "%S" s
  | List l -> members indent "[" "]" (List.map (fun v -> ("", v)) l)
  | Obj kv ->
    members indent "{" "}" (List.map (fun (k, v) -> (Printf.sprintf "%S: " k, v)) kv)

and members indent opening closing ms =
  let nested = List.exists (function _, (List _ | Obj _) -> true | _ -> false) ms in
  let pad n = if nested then "\n" ^ String.make n ' ' else " " in
  let item (key, v) = pad (indent + 2) ^ key ^ to_string (indent + 2) v in
  opening ^ String.concat "," (List.map item ms) ^ pad indent ^ closing

(* Enough of JSON to read a report back: strings carry no escapes. *)
let parse s =
  let pos = ref 0 in
  let fail () = failwith (Printf.sprintf "malformed JSON at byte %d" !pos) in
  let span ok =
    let i = !pos in
    while !pos < String.length s && ok s.[!pos] do incr pos done;
    String.sub s i (!pos - i)
  in
  let peek () =
    ignore (span (String.contains " \t\r\n"));
    if !pos < String.length s then s.[!pos] else '\000'
  in
  let expect c = if peek () = c then incr pos else fail () in
  let str () = expect '"'; let v = span (( <> ) '"') in expect '"'; v in
  let seq close item =
    if peek () = close then (incr pos; [])
    else
      let rec more acc =
        let acc = item () :: acc in
        if peek () = ',' then (incr pos; more acc) else (expect close; List.rev acc)
      in
      more []
  in
  let rec value () =
    match peek () with
    | '{' -> incr pos; Obj (seq '}' (fun () -> let k = str () in expect ':'; (k, value ())))
    | '[' -> incr pos; List (seq ']' value)
    | '"' -> Str (str ())
    | _ -> (
      match span (String.contains "+-.0123456789Eaeflnrstu") with
      | "true" -> Bool true
      | "false" -> Bool false
      | w -> (match float_of_string_opt w with Some f -> Float f | None -> fail ()))
  in
  let v = value () in
  if peek () <> '\000' then fail ();
  v

(* The value at a dotted path such as [reach.timed.states_per_sec]. *)
let at j path =
  List.fold_left
    (fun j key -> match j with Some (Obj kv) -> List.assoc_opt key kv | _ -> None)
    (Some j) (String.split_on_char '.' path)

let number j path =
  match at j path with
  | Some (Int i) -> Some (float_of_int i) | Some (Float f) -> Some f | _ -> None

let wall f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Best-of-[n] wall time: sub-10ms constructions are at the mercy of
   scheduling noise in a single shot, and the committed baseline the
   regression gate reads back must be reproducible. *)
let best_of n f =
  let v, s0 = wall f in
  let best = ref s0 in
  for _ = 2 to n do
    let _, s = wall f in
    if s < !best then best := s
  done;
  (v, !best)

(* A check reads a path below its gate's path. *)
type check =
  | Show of string  (* only prints the value next to the verdict *)
  | Is of string  (* a boolean that must be true *)
  | At_most of string * float
  | At_least of string * float

(* A case's gates are named by their path below the section [name]. *)
type case = {
  name : string;
  run : quick:bool -> json;
  gates : quick:bool -> (string * check list) list;
}

let replicate =
  let run ~quick =
    let runs = if quick then 16 else 64 and until = if quick then 1_000.0 else 2_000.0 in
    let net = Model.full default and read r = Stat.throughput r "Issue" in
    let rep jobs = Pnut_stat.Replication.replicate ~seed:7 ~jobs ~runs ~until net read in
    let sweep = List.map (fun jobs -> (jobs, wall (fun () -> rep jobs))) [ 1; 2; 4 ] in
    let _, (e1, serial_s) = List.hd sweep in
    let row (jobs, (_, s)) =
      let speedup = if s > 0.0 then serial_s /. s else 0.0 in
      Obj
        [ ("jobs", Int jobs); ("seconds", num s); ("speedup", num ~dp:3 speedup);
          ("parallel_efficiency", num ~dp:3 (speedup /. float_of_int jobs)) ]
    in
    Obj
      [ ("runs", Int runs); ("until", Float until);
        ("identical_across_jobs", Bool (List.for_all (fun (_, (e, _)) -> e = e1) sweep));
        ("sweep", List (List.map row sweep)) ]
  in
  { name = "replicate"; run; gates = (fun ~quick:_ -> []) }

(* bit-identity of the packed graph and the boxed oracle: every state
   (marking and environment), every successor and predecessor list in
   order, truncation flag *)
let graphs_identical a b =
  let triples es =
    List.map (fun (e : Graph.edge) -> (e.e_from, e.e_transition, e.e_to)) es
  in
  Boxed.complete a = Graph.complete b
  && Boxed.num_states a = Graph.num_states b
  && Boxed.num_edges a = Graph.num_edges b
  && List.for_all
       (fun i ->
         let sa = Boxed.state a i and sb = Graph.state b i in
         sa.Graph.s_marking = sb.Graph.s_marking
         && sa.s_env = sb.s_env
         && triples (Boxed.successors a i) = triples (Graph.successors b i)
         && triples (Boxed.predecessors a i) = triples (Graph.predecessors b i))
       (List.init (Boxed.num_states a) Fun.id)

(* The compact arena store against the frozen boxed builder of the
   test-only oracle library.  The model is a 9-place token ring (states
   = C(N+8,8): N=17 gives 1,081,575, N=10 the quick run's 43,758) — big
   enough that per-state boxing and hashtable nodes dominate the boxed
   build.  The ring conserves its tokens, so every place bound is known
   to the codec and a state packs into a single word.  The [figures]
   are compared with the oracle state by state at the kernel cap. *)
let packed_section ~quick ~cap figures =
  let tokens = if quick then 10 else 17 in
  let ring =
    let rb = Net.Builder.create "ring9" in
    let place i =
      Net.Builder.add_place rb (Printf.sprintf "r%d" i)
        ~initial:(if i = 0 then tokens else 0)
    in
    let ps = Array.init 9 place in
    for i = 0 to 8 do
      ignore
        (Net.Builder.add_transition rb (Printf.sprintf "rt%d" i)
           ~inputs:[ (ps.(i), 1) ] ~outputs:[ (ps.((i + 1) mod 9), 1) ]
          : Net.transition_id)
    done;
    Net.Builder.build rb
  in
  let ring_cap = 2_000_000 in
  let boxed_g, boxed_s = best_of 3 (fun () -> Boxed.build ~max_states:ring_cap ring) in
  let g, s = best_of 3 (fun () -> Graph.build ~max_states:ring_cap ring) in
  let states = Graph.num_states g and edges = Graph.num_edges g in
  let bytes_per_state = Option.get (Graph.packed_bytes_per_state g) in
  let identical =
    List.for_all
      (fun m ->
        graphs_identical (Boxed.build ~max_states:cap m) (Graph.build ~max_states:cap m))
      figures
    && (if quick then graphs_identical boxed_g g
        else
          (* at 10^6 states the full deep compare costs more than the
             builds; counts and truncation are checked, the per-state
             deep identity rides the quick run and the test suite *)
          Boxed.num_states boxed_g = states
          && Boxed.num_edges boxed_g = edges
          && Boxed.complete boxed_g = Graph.complete g)
  in
  Obj
    [ ("model", Str "ring9"); ("tokens", Int tokens); ("states", Int states);
      ("edges", Int edges);
      ("boxed",
       Obj [ ("seconds", num boxed_s); ("states_per_sec", rate states boxed_s) ]);
      ("seconds", num s); ("states_per_sec", rate states s);
      ("speedup_vs_boxed", ratio boxed_s s);
      ("speedup_at_least_1_5x", Bool (boxed_s >= 1.5 *. s));
      ("bytes_per_state", num ~dp:2 bytes_per_state);
      ("bytes_per_state_at_most_32", Bool (bytes_per_state <= 32.0));
      ("identical_on_figures", Bool identical) ]

(* Stubborn-set reduction on indep6x4 — six independent 4-stage
   pipelines, the pure interleaving explosion (5^6 = 15625 full
   states).  Both the deadlock-set identity and the >= 5x reduction
   are deterministic state counts, gated absolutely in quick and full
   runs alike; the timings ride along as advisory data. *)
let por_section () =
  let indep = Pnut_pipeline.Indep.net ~pipelines:6 ~stages:4 and cap = 200_000 in
  let build por = best_of 3 (fun () -> Graph.build ~max_states:cap ~por indep) in
  let full_g, full_s = build false in
  let red_g, red_s = build true in
  let full = Graph.num_states full_g and red = Graph.num_states red_g in
  let deadlocks state ids =
    List.sort compare (List.map (fun i -> (state i).Graph.s_marking) ids)
  in
  let boxed por =
    let g = Boxed.build ~max_states:cap ~por indep in
    deadlocks (Boxed.state g) (Boxed.deadlocks g)
  in
  let deadlocks_identical =
    deadlocks (Graph.state full_g) (Graph.deadlocks full_g)
    = deadlocks (Graph.state red_g) (Graph.deadlocks red_g)
    && (* the boxed oracle's builds must agree with each other too *)
    boxed false = boxed true
  in
  Obj
    [ ("model", Str "indep6x4");
      ("full", Obj [ ("states", Int full); ("seconds", num full_s) ]);
      ("reduced", Obj [ ("states", Int red); ("seconds", num red_s) ]);
      ("reduction", ratio ~dp:1 (float_of_int full) (float_of_int (max 1 red)));
      ("reduction_at_least_5x", Bool (full >= 5 * red));
      ("deadlock_sets_identical", Bool deadlocks_identical) ]

(* The timed state-class graph against the frozen explicit
   expansion on the Figure 1-3 pipeline with a 10-cycle memory — the
   longer the deterministic delays, the more distinct clock valuations
   the explicit expansion enumerates per marking, and the more the
   interval-domain classes collapse.  Both graphs must agree on the
   reachable-marking and deadlock-marking sets (that is the whole
   correctness contract), the class count must be >= 5x smaller and
   the class build no slower than the explicit one. *)
let timed_section () =
  let net = Model.full { default with memory_cycles = 10.0 } and cap = 200_000 in
  let g, s = best_of 3 (fun () -> Timed.build ~max_states:cap net) in
  let xg, xs = best_of 3 (fun () -> Timed_explicit.build ~max_states:cap net) in
  let classes = Timed.num_states g and explicit = Timed_explicit.num_states xg in
  let marking i = (Timed.state g i).ts_marking
  and explicit_marking i = (Timed_explicit.state xg i).ts_marking in
  let same_sets a b = List.sort_uniq compare a = List.sort_uniq compare b in
  Obj
    [ ("states_per_sec", rate classes s);
      ("model", Str "pipeline (Model.full, memory_cycles=10)");
      ("classes", Int classes); ("vectors", Int (Timed.num_vectors g));
      ("seconds", num s);
      ("explicit", Obj (throughput "states" explicit xs));
      ("class_over_explicit_s", ratio s xs);
      ("reduction_vs_explicit",
       ratio ~dp:2 (float_of_int explicit) (float_of_int (max 1 classes)));
      ("reduction_at_least_5x", Bool (explicit >= 5 * classes));
      ("marking_sets_identical",
       Bool (same_sets (List.init classes marking) (List.init explicit explicit_marking)));
      ("deadlock_sets_identical",
       Bool
         (same_sets (List.map marking (Timed.deadlocks g))
            (List.map explicit_marking (Timed_explicit.deadlocks xg))));
      ("bytes_per_state", num ~dp:2 (Option.get (Timed.packed_bytes_per_state g))) ]

let reach =
  let run ~quick =
    (* the serial kernel build on the Figure 1-3 pipeline and the
       branching model; the pipeline row is the gated headline *)
    let figures = [ Model.full default; Pnut_pipeline.Branching.full default ] in
    let cap = if quick then 10_000 else 20_000 and reps = if quick then 3 else 5 in
    let models =
      List.map2
        (fun name m ->
          let g, s = best_of reps (fun () -> Graph.build ~max_states:cap m) in
          (name, Graph.num_states g, s))
        [ "pipeline"; "branching" ] figures
    in
    let packed = packed_section ~quick ~cap figures in
    let por = por_section () in
    let timed = timed_section () in
    let _, states, s = List.hd models in
    let row (name, n, s) = Obj (("model", Str name) :: throughput "states" n s) in
    Obj
      [ ("states_per_sec", rate states s); ("max_states", Int cap);
        ("kernel", Obj [ ("states", Int states); ("seconds", num s) ]);
        ("models", List (List.map row models));
        ("packed", packed); ("por", por); ("timed", timed) ]
  in
  (* the packed store's thresholds: bit-identity always; the
     bytes/state and speedup floors only on the full-size ring (the
     quick run's 43k states can't amortize fixed costs and would make
     the CI verdict flaky).  The stubborn-set and state-class thresholds
     are deterministic counts and set identities, gated in quick and
     full runs alike, plus a class build no slower than the explicit
     build (best of 3 each, same process). *)
  let gates ~quick =
    [ ("packed",
       [ Show "states"; Show "bytes_per_state"; Show "speedup_vs_boxed";
         Is "identical_on_figures" ]
       @ if quick then []
         else [ Is "bytes_per_state_at_most_32"; Is "speedup_at_least_1_5x" ]);
      ("por",
       [ Show "full.states"; Show "reduced.states"; Is "reduction_at_least_5x";
         Is "deadlock_sets_identical" ]);
      ("timed",
       [ Show "classes"; Show "explicit.states"; Is "reduction_at_least_5x";
         Is "marking_sets_identical"; Is "deadlock_sets_identical";
         Show "seconds"; Show "explicit.seconds";
         At_most ("class_over_explicit_s", 1.0) ]) ]
  in
  { name = "reach"; run; gates }

(* raw simulation events/sec (single stream; the per-run engine),
   measured against the frozen pre-optimization engine on the same model
   and seed, and swept across every built-in model — locality differs
   (the serial model fires one transition at a time, the pipeline keeps
   five stages busy), so one model alone would hide regressions *)
let sim =
  let run ~quick =
    let net = Model.full default in
    (* Always the full horizon and repetitions, even under [--quick]:
       the whole sweep costs tens of milliseconds, and the CI regression
       gate compares a quick run against the committed full-run baseline
       — the two must measure the same thing.  Best-of: see [best_of]. *)
    let until = 10_000.0 and reps = 7 in
    let outcome, sim_s = best_of reps (fun () -> Sim.simulate ~seed:42 ~until net) in
    let ref_outcome, ref_s =
      best_of reps (fun () -> Pnut_oracle.Reference.simulate ~seed:42 ~until net)
    in
    let events = outcome.Sim.started and ref_events = ref_outcome.Sim.started in
    (* supervision overhead: the same Figure-5 model under a generous
       budget (never trips, but arms the 256-step monitor poll) against
       the unbudgeted engine, at a 10x horizon (~30 ms a run).  The two
       sides run as pairs, in alternating order so that neither always
       goes first, and the gate reads the median of the per-pair ratios:
       a preemption or a slow spell on a busy host moves the one pair it
       hits, where a best-of on each side let it decide the verdict. *)
    let budget_pairs = if quick then 15 else 25 and budget_until = 10.0 *. until in
    let generous_budget = Pnut_exec.Budget.make ~wall_s:3600.0 ~heap_mb:65536 () in
    let run_plain () = Sim.simulate ~seed:42 ~until:budget_until net in
    let run_budgeted () =
      Sim.run ~until:budget_until ~budget:generous_budget (Sim.create ~seed:42 net)
    in
    let pairs =
      List.init budget_pairs (fun k ->
          if k land 1 = 0 then
            let p = wall run_plain in
            (p, wall run_budgeted)
          else
            let b = wall run_budgeted in
            (wall run_plain, b))
    in
    let median xs =
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      a.(Array.length a / 2)
    in
    let (plain_outcome, _), (budgeted_outcome, _) = List.hd pairs in
    let plain_s = median (List.map (fun ((_, s), _) -> s) pairs) in
    let budgeted_s = median (List.map (fun (_, (_, s)) -> s) pairs) in
    let pair_ratio = median (List.map (fun ((_, p), (_, b)) -> p /. b) pairs) in
    let sweep =
      List.map
        (fun (name, m) ->
          let o, s = wall (fun () -> Sim.simulate ~seed:42 ~until m) in
          Obj (("model", Str name) :: throughput "events" o.Sim.started s))
        [ ("pipeline", net); ("prefetch", Model.prefetch_only default);
          ("interpreted_isa", Interpreted.full default);
          ("branching", Pnut_pipeline.Branching.full default);
          ("serial", Pnut_pipeline.Serial.full default) ]
    in
    Obj
      ((("until", Float until) :: throughput "events" events sim_s)
      @ [ ("reference_engine", Obj (throughput "events" ref_events ref_s));
          ("speedup_vs_reference", ratio ref_s sim_s);
          ("traces_identical", Bool (events = ref_events));
          ("budget_overhead",
           Obj
             [ ("until", Float budget_until); ("plain_seconds", num plain_s);
               ("budgeted_seconds", num budgeted_s);
               ("budgeted_events_per_sec", rate budgeted_outcome.Sim.started budgeted_s);
               ("pairs", Int budget_pairs);
               ("events_per_sec_ratio", num ~dp:4 pair_ratio);
               ("outcome_identical",
                Bool
                  (budgeted_outcome.started = plain_outcome.started
                  && budgeted_outcome.final_clock = plain_outcome.final_clock)) ]);
          ("sweep", List sweep) ])
  in
  (* an armed-but-untripped budget must keep its events/sec within 3%
     of the unbudgeted engine's — the monitor poll rides the existing
     watchdog cadence, so anything slower means a check leaked into the
     hot loop.  The ratio is the median over pairs run in this process,
     so the host's speed cancels out. *)
  let gates ~quick:_ =
    [ ("budget_overhead",
       [ Show "plain_seconds"; Show "budgeted_seconds";
         At_least ("events_per_sec_ratio", 0.97) ]) ]
  in
  { name = "sim"; run; gates }

(* codec throughput: text vs binary on the Figure-5 reference trace *)
let codec =
  let run ~quick =
    let until = if quick then 2_000.0 else 10_000.0 in
    let trace = fst (Sim.trace ~seed:42 ~until (Model.full default)) in
    let deltas = Trace.length trace and reps = if quick then 3 else 10 in
    let per_rep f =
      let (), s = wall (fun () -> for _ = 1 to reps do ignore (f ()) done) in
      s /. float_of_int reps
    in
    let text = Pnut_trace.Codec.to_string trace in
    let bin = Pnut_trace.Binary.to_string trace in
    let text_enc_s = per_rep (fun () -> Pnut_trace.Codec.to_string trace) in
    let bin_enc_s = per_rep (fun () -> Pnut_trace.Binary.to_string trace) in
    let text_dec_s = per_rep (fun () -> Pnut_trace.Codec.parse text) in
    let bin_dec_s = per_rep (fun () -> Pnut_trace.Binary.parse bin) in
    (* peak-RSS proxy: live words a stat pass must hold over the same
       stored trace.  The streaming pass retains only the accumulator;
       the materializing pass additionally retains the whole Trace.t. *)
    let trace_file = Filename.temp_file "pnut_bench" ".trace" in
    Out_channel.with_open_bin trace_file (fun oc -> output_string oc text);
    let retained f =
      Gc.compact ();
      let before = (Gc.stat ()).Gc.live_words in
      let minor0 = Gc.minor_words () in
      let keep = In_channel.with_open_bin trace_file f in
      Gc.compact ();
      let after = (Gc.stat ()).Gc.live_words in
      let alloc_mb = (Gc.minor_words () -. minor0) *. 8.0 /. 1e6 in
      ignore (Sys.opaque_identity keep);
      Obj
        [ ("retained_live_words", Int (after - before));
          ("minor_alloc_mb", num ~dp:2 alloc_mb) ]
    in
    let streaming =
      retained (fun ic ->
          let sink, get = Stat.sink () in
          Pnut_trace.Codec.stream_channel ic sink;
          get ())
    in
    let materialized =
      retained (fun ic ->
          let tr = Pnut_trace.Codec.read_channel ic in
          (tr, Stat.of_trace tr))
    in
    Sys.remove trace_file;
    let side bytes enc_s dec_s =
      Obj
        [ ("bytes", Int (String.length bytes)); ("encode_seconds", num enc_s);
          ("decode_seconds", num dec_s); ("decode_deltas_per_sec", rate deltas dec_s) ]
    in
    let text_bytes = String.length text and bin_bytes = String.length bin in
    Obj
      [ ("until", Float until); ("deltas", Int deltas);
        ("text", side text text_enc_s text_dec_s);
        ("binary", side bin bin_enc_s bin_dec_s);
        ("size_ratio", ratio (float_of_int text_bytes) (float_of_int bin_bytes));
        ("decode_speedup", ratio text_dec_s bin_dec_s);
        ("encode_speedup", ratio text_enc_s bin_enc_s);
        ("binary_at_least_5x_smaller", Bool (5 * bin_bytes <= text_bytes));
        ("binary_decodes_faster", Bool (bin_dec_s < text_dec_s));
        ("streaming_stat", streaming); ("materialized_stat", materialized) ]
  in
  { name = "codec"; run; gates = (fun ~quick:_ -> []) }

let cases = [ replicate; reach; sim; codec ]

(* Regression floors: the fresh value at each path must reach [floor]
   times the baseline's value at the same path. *)
let floors =
  [ ("sim.events_per_sec", 0.7); ("reach.states_per_sec", 0.7);
    ("reach.timed.states_per_sec", 0.7) ]

let usage_error fmt =
  Printf.ksprintf (fun m -> prerr_endline ("bench: " ^ m); exit 2) fmt

(* The floor gates against a baseline file; a file that cannot be read
   or lacks a floor path is a usage error, never a skipped gate. *)
let floor_gates file =
  let j =
    try parse (In_channel.with_open_bin file In_channel.input_all)
    with Sys_error e | Failure e -> usage_error "cannot read baseline %s: %s" file e
  in
  List.map
    (fun (path, floor) ->
      match number j path with
      | Some base -> (path, [ At_least ("", floor *. base) ])
      | None -> usage_error "baseline %s has no number at %s" file path)
    floors

(* [bench: <gate> <checks>: ok] on stdout or [bench: FAIL <gate> <checks>]
   on stderr; [true] when it passed.  The check path [""] is the gate's. *)
let report_gate report (gate, checks) =
  let path p = if p = "" then gate else gate ^ "." ^ p in
  let number_at p = Option.get (number report (path p)) in
  let shown ?(bound = "") p =
    let v = to_string 0 (Option.get (at report (path p))) in
    (if p = "" then v else p ^ "=" ^ v) ^ bound
  in
  let bound op x = Printf.sprintf " (%s %s)" op (to_string 0 (Float x)) in
  let check = function
    | Show p -> (true, shown p)
    | Is p -> (at report (path p) = Some (Bool true), shown p)
    | At_most (p, x) -> (number_at p <= x, shown ~bound:(bound "<=" x) p)
    | At_least (p, x) -> (number_at p >= x, shown ~bound:(bound ">=" x) p)
  in
  let results = List.map check checks in
  let ok = List.for_all fst results in
  let detail = String.concat ", " (List.map snd results) in
  if ok then Printf.printf "bench: %s %s: ok\n" gate detail
  else Printf.eprintf "bench: FAIL %s %s\n" gate detail;
  ok

let bench_json ~quick ~file ?baseline () =
  (* Read the baseline before anything is measured or written: CI
     points [--baseline] at the same path it regenerates. *)
  let floor_gates = Option.fold ~none:[] ~some:floor_gates baseline in
  let cores = Domain.recommended_domain_count () in
  let sections = List.map (fun c -> (c.name, c.run ~quick)) cases in
  let report =
    Obj ([ ("bench", Str "pr10"); ("model", Str "pipeline (Model.full default)");
           ("cores", Int cores); ("quick", Bool quick) ] @ sections)
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (to_string 0 report ^ "\n"));
  Printf.printf "wrote %s (cores=%d)\n" file cores;
  let case_gates c = List.map (fun (g, cs) -> (c.name ^ "." ^ g, cs)) (c.gates ~quick) in
  let gates = List.concat_map case_gates cases @ floor_gates in
  let verdicts = List.map (report_gate report) gates in
  if not (List.for_all Fun.id verdicts) then exit 1

let run_figures () =
  List.iter (fun figure -> figure ())
    [ figure_1_to_3; figure_4; figure_5; figure_6; figure_7; section_4_4;
      ablation_firing_vs_enabling; ablation_memory_speed; ablation_buffer_size;
      ablation_cache; ablation_instruction_mix; ablation_interpreted;
      ablation_analytic; ablation_branches; ablation_serial; bechamel_micro;
      shape_verdicts ];
  print_newline ()

(* No argument reproduces the figures; [--bench-json [FILE] [--quick]
   [--baseline FILE]] writes the report.  Anything else is exit 2. *)
let () =
  let usage = "usage: main.exe [--bench-json [FILE] [--quick] [--baseline FILE]]" in
  let is_value f = f <> "" && f.[0] <> '-' in
  let rec args json quick baseline = function
    | [] -> (json, quick, baseline)
    | "--bench-json" :: f :: rest when is_value f -> args (Some f) quick baseline rest
    | "--bench-json" :: rest -> args (Some "BENCH_pr10.json") quick baseline rest
    | "--quick" :: rest -> args json true baseline rest
    | "--baseline" :: f :: rest when is_value f -> args json quick (Some f) rest
    | a :: _ -> usage_error "unexpected argument %s; %s" a usage
  in
  match args None false None (List.tl (Array.to_list Sys.argv)) with
  | None, false, None -> run_figures ()
  | Some file, quick, baseline -> bench_json ~quick ~file ?baseline ()
  | None, _, _ -> usage_error "--quick and --baseline need --bench-json; %s" usage
