(* System-wide property tests over randomly generated nets: the whole
   tool pipeline must hold its invariants on nets nobody hand-crafted. *)

module Net = Pnut_core.Net
module B = Net.Builder
module Marking = Pnut_core.Marking
module Sim = Pnut_sim.Simulator
module Trace = Pnut_trace.Trace
module Codec = Pnut_trace.Codec
module Filter = Pnut_trace.Filter
module Stat = Pnut_stat.Stat
module Graph = Pnut_reach.Graph

(* -- random net generation --

   Small connected nets: [np] places with random initial tokens, [ntr]
   transitions with 1-2 inputs, 1-2 outputs, random small weights, and a
   random mix of timings.  Always includes at least one token so
   something can happen. *)

type spec = {
  sp_places : int;
  sp_transitions : int;
  sp_tokens : int list;       (* initial marking, length sp_places *)
  sp_arcs : (int list * int list * int) list;
      (* per transition: input place ids, output place ids, timing code *)
}

let gen_spec =
  QCheck2.Gen.(
    let* np = int_range 2 5 in
    let* ntr = int_range 1 5 in
    let* tokens = list_size (return np) (int_range 0 3) in
    let tokens = if List.for_all (fun t -> t = 0) tokens then 1 :: List.tl tokens else tokens in
    let gen_arc_list = list_size (int_range 1 2) (int_range 0 (np - 1)) in
    let* arcs =
      list_size (return ntr)
        (triple gen_arc_list gen_arc_list (int_range 0 3))
    in
    return { sp_places = np; sp_transitions = ntr; sp_tokens = tokens; sp_arcs = arcs })

let build_net spec =
  let b = B.create "random" in
  let places =
    List.mapi
      (fun i tokens -> B.add_place b (Printf.sprintf "p%d" i) ~initial:tokens)
      spec.sp_tokens
  in
  let place i = List.nth places (i mod spec.sp_places) in
  List.iteri
    (fun ti (inputs, outputs, timing) ->
      let dedup l = List.sort_uniq compare (List.map place l) in
      let firing, enabling =
        match timing with
        | 0 -> (Net.Zero, Net.Const 1.0)       (* keep zero-delay loops timed *)
        | 1 -> (Net.Const 1.0, Net.Zero)
        | 2 -> (Net.Const 2.5, Net.Zero)
        | _ -> (Net.Zero, Net.Const 0.5)
      in
      ignore
        (B.add_transition b
           (Printf.sprintf "t%d" ti)
           ~inputs:(List.map (fun p -> (p, 1)) (dedup inputs))
           ~outputs:(List.map (fun p -> (p, 1)) (dedup outputs))
           ~firing ~enabling
          : Net.transition_id))
    spec.sp_arcs;
  B.build b

let short_trace ?(seed = 7) spec =
  let net = build_net spec in
  let trace, _ = Sim.trace ~seed ~until:50.0 ~max_events:500 net in
  (net, trace)

(* -- properties -- *)

let prop_markings_never_negative =
  QCheck2.Test.make ~name:"simulated markings never go negative" ~count:150
    gen_spec (fun spec ->
      let _, trace = short_trace spec in
      let c = Trace.cursor (Trace.header trace) in
      let nonneg () = Array.for_all (fun n -> n >= 0) (Trace.marking c) in
      nonneg ()
      && Array.for_all (fun d -> Trace.emit (Trace.step c) d; nonneg ()) (Trace.deltas trace))

let prop_trace_times_monotone =
  QCheck2.Test.make ~name:"trace timestamps are non-decreasing" ~count:150
    gen_spec (fun spec ->
      let _, trace = short_trace spec in
      let ok = ref true in
      let last = ref 0.0 in
      Array.iter
        (fun (d : Trace.delta) ->
          if d.Trace.d_time < !last then ok := false;
          last := d.Trace.d_time)
        (Trace.deltas trace);
      !ok)

let prop_starts_cover_ends =
  QCheck2.Test.make ~name:"every Fire_end is preceded by its Fire_start"
    ~count:150 gen_spec (fun spec ->
      let _, trace = short_trace spec in
      let open_firings = Hashtbl.create 16 in
      let ok = ref true in
      Array.iter
        (fun (d : Trace.delta) ->
          match d.Trace.d_kind with
          | Trace.Fire_start -> Hashtbl.replace open_firings d.Trace.d_firing ()
          | Trace.Fire_end ->
            if Hashtbl.mem open_firings d.Trace.d_firing then
              Hashtbl.remove open_firings d.Trace.d_firing
            else ok := false)
        (Trace.deltas trace);
      !ok)

let prop_codec_roundtrip_random_nets =
  QCheck2.Test.make ~name:"codec round-trips simulated traces" ~count:100
    gen_spec (fun spec ->
      let _, trace = short_trace spec in
      let text = Codec.to_string trace in
      String.equal text (Codec.to_string (Codec.parse text)))

let prop_filter_identity =
  QCheck2.Test.make ~name:"identity filter preserves traces" ~count:100
    gen_spec (fun spec ->
      let _, trace = short_trace spec in
      String.equal
        (Codec.to_string trace)
        (Codec.to_string (Filter.apply Filter.all trace)))

let prop_stat_mass_conservation =
  QCheck2.Test.make ~name:"stat starts >= ends and bounded counts" ~count:100
    gen_spec (fun spec ->
      let _, trace = short_trace spec in
      let r = Stat.of_trace trace in
      Array.for_all
        (fun t ->
          t.Stat.ts_starts >= t.Stat.ts_ends && t.Stat.ts_ends >= 0)
        r.Stat.transitions)

let prop_determinism =
  QCheck2.Test.make ~name:"same seed, same trace on random nets" ~count:75
    gen_spec (fun spec ->
      let _, t1 = short_trace ~seed:13 spec in
      let _, t2 = short_trace ~seed:13 spec in
      String.equal (Codec.to_string t1) (Codec.to_string t2))

(* Untimed reachability must cover every marking the simulator visits at
   instants when no firing is in flight (atomic-comparable states). *)
let prop_simulated_quiescent_states_reachable =
  QCheck2.Test.make ~name:"quiescent simulated markings are in the graph"
    ~count:75 gen_spec (fun spec ->
      let net = build_net spec in
      match Graph.build ~max_states:3000 net with
      | exception Invalid_argument _ -> true  (* stochastic parts: skip *)
      | g ->
        if not (Graph.complete g) then true
        else begin
          let trace, _ = Sim.trace ~seed:3 ~until:30.0 ~max_events:300 net in
          let ok = ref true in
          let c = Trace.cursor (Trace.header trace) in
          let check () =
            if Array.for_all (fun n -> n = 0) (Trace.in_flight c)
               && Graph.find_state g (Trace.marking c) = None
            then ok := false
          in
          check ();
          Array.iter (fun d -> Trace.emit (Trace.step c) d; check ()) (Trace.deltas trace);
          !ok
        end)

(* Invariant values computed by Farkas hold on every reachable (graph)
   state, for random nets. *)
let prop_invariants_hold_on_graph =
  QCheck2.Test.make ~name:"P-invariants hold across the reachability graph"
    ~count:75 gen_spec (fun spec ->
      let net = build_net spec in
      let inc = Pnut_core.Incidence.of_net net in
      match Pnut_core.Incidence.p_invariants inc with
      | exception Invalid_argument _ -> true  (* row-limit blowup: skip *)
      | invs -> (
        match Graph.build ~max_states:2000 net with
        | exception Invalid_argument _ -> true
        | g ->
          if not (Graph.complete g) then true
          else begin
            let m0 = Marking.to_array (Net.initial_marking net) in
            List.for_all
              (fun y ->
                let v0 = Pnut_core.Incidence.weighted_sum y m0 in
                let ok = ref true in
                for i = 0 to Graph.num_states g - 1 do
                  let s = Graph.state g i in
                  if Pnut_core.Incidence.weighted_sum y s.Graph.s_marking <> v0
                  then ok := false
                done;
                !ok)
              invs
          end))

(* The waveform renderer and animator must not crash on any trace. *)
let prop_renderers_total =
  QCheck2.Test.make ~name:"waveform and animator never crash" ~count:75
    gen_spec (fun spec ->
      let net, trace = short_trace spec in
      let h = Trace.header trace in
      let signals =
        Array.to_list h.Trace.h_places
        |> List.map (fun p -> Pnut_tracer.Signal.Place p)
      in
      let _ =
        Pnut_tracer.Waveform.render
          ~style:{ Pnut_tracer.Waveform.default_style with width = 24 }
          trace signals
      in
      let frames = Pnut_anim.Animator.frames net trace in
      List.length frames = 2 * Trace.length trace)

(* Coverability is an over-approximation of reachability: for bounded
   inhibitor-free nets, every reachable marking must be covered. *)
let prop_coverability_covers_reachability =
  QCheck2.Test.make ~name:"coverability covers every reachable marking"
    ~count:75 gen_spec (fun spec ->
      let net = build_net spec in
      match Pnut_reach.Coverability.build ~max_states:3000 net with
      | exception Invalid_argument _ -> true  (* inhibitors etc.: skip *)
      | cov -> (
        match Graph.build ~max_states:2000 net with
        | exception Invalid_argument _ -> true
        | g ->
          if not (Graph.complete g && Pnut_reach.Coverability.complete cov)
          then true
          else begin
            let ok = ref true in
            for i = 0 to Graph.num_states g - 1 do
              let m = (Graph.state g i).Graph.s_marking in
              if not (Pnut_reach.Coverability.covers cov m) then ok := false
            done;
            (* and the per-place bounds dominate the exact bounds *)
            !ok
            && List.for_all
                 (fun p ->
                   match Pnut_reach.Coverability.place_bound cov p with
                   | None -> true
                   | Some cb -> cb >= Graph.bound g p)
                 (List.init spec.sp_places Fun.id)
          end))

(* Explicit timed expansions (the frozen oracle) are well-formed: residual delays never go
   negative, Tick edges carry positive durations equal to the minimum
   residual of their source state, and Fire edges only leave states where
   the fired transition's enabling residual is zero. *)
let prop_timed_graph_well_formed =
  QCheck2.Test.make ~name:"explicit timed graphs are well-formed" ~count:60 gen_spec
    (fun spec ->
      let net = build_net spec in
      match Pnut_oracle.Timed_explicit.build ~max_states:400 ~horizon:20.0 net with
      | exception Invalid_argument _ -> true
      | g ->
        let ok = ref true in
        for i = 0 to Pnut_oracle.Timed_explicit.num_states g - 1 do
          let s = Pnut_oracle.Timed_explicit.state g i in
          let residuals =
            List.map snd s.Pnut_oracle.Timed_explicit.ts_in_flight
            @ List.map snd s.Pnut_oracle.Timed_explicit.ts_pending
          in
          if List.exists (fun r -> r < 0.0) residuals then ok := false;
          List.iter
            (fun e ->
              match e.Pnut_oracle.Timed_explicit.e_label with
              | Pnut_oracle.Timed_explicit.Tick d ->
                let positive_residuals =
                  List.filter (fun r -> r > 0.0) residuals
                in
                if d <= 0.0
                   || positive_residuals = []
                   || Float.abs
                        (List.fold_left Float.min d positive_residuals -. d)
                      > 1e-9
                then ok := false
              | Pnut_oracle.Timed_explicit.Fire tid ->
                (match List.assoc_opt tid s.Pnut_oracle.Timed_explicit.ts_pending with
                | Some r when Float.equal r 0.0 -> ()
                | Some _ | None -> ok := false)
              | Pnut_oracle.Timed_explicit.Complete tid ->
                if
                  not
                    (List.exists
                       (fun (t, r) -> t = tid && Float.equal r 0.0)
                       s.Pnut_oracle.Timed_explicit.ts_in_flight)
                then ok := false)
            (Pnut_oracle.Timed_explicit.successors g i)
        done;
        !ok)

(* Batch means over the full window equal the global average. *)
let prop_batch_consistent_with_stat =
  QCheck2.Test.make ~name:"batch means average to the stat answer" ~count:50
    gen_spec (fun spec ->
      let _, trace = short_trace spec in
      if Trace.final_time trace <= 0.0 then true
      else begin
        let h = Trace.header trace in
        let r = Stat.of_trace trace in
        Array.for_all
          (fun name ->
            let e = Pnut_stat.Batch.place_utilization ~batches:4 trace name in
            (* mean of equal-width batch means = global time average *)
            Float.abs (e.Pnut_stat.Replication.mean -. Stat.utilization r name)
            < 1e-6)
          h.Trace.h_places
      end)

let () =
  Alcotest.run "properties"
    [
      ( "system",
        [
          QCheck_alcotest.to_alcotest prop_markings_never_negative;
          QCheck_alcotest.to_alcotest prop_trace_times_monotone;
          QCheck_alcotest.to_alcotest prop_starts_cover_ends;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip_random_nets;
          QCheck_alcotest.to_alcotest prop_filter_identity;
          QCheck_alcotest.to_alcotest prop_stat_mass_conservation;
          QCheck_alcotest.to_alcotest prop_determinism;
          QCheck_alcotest.to_alcotest prop_simulated_quiescent_states_reachable;
          QCheck_alcotest.to_alcotest prop_invariants_hold_on_graph;
          QCheck_alcotest.to_alcotest prop_coverability_covers_reachability;
          QCheck_alcotest.to_alcotest prop_timed_graph_well_formed;
          QCheck_alcotest.to_alcotest prop_renderers_total;
          QCheck_alcotest.to_alcotest prop_batch_consistent_with_stat;
        ] );
    ]
