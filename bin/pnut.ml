(* The P-NUT command-line driver: simulate, analyze, filter, plot, check
   and animate Petri-net models, mirroring the original toolset's
   pipe-friendly decomposition (simulator | filter | stat/tracertool). *)

open Cmdliner

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* Exit codes, used consistently by every subcommand:
   0  success;
   1  negative analysis verdict (failing query, unbounded net, dying
      cycle, aborted simulation);
   2  parse, specification or input errors the tools detect themselves
      (errors the argument parser catches — an unknown command or flag,
      a malformed value — exit 124, cmdliner's own code);
   3  degraded: a resource budget (--wall-limit / --heap-limit-mb, or a
      state cap reported through a supervised builder) tripped and a
      partial result was emitted.  Partial output is well-formed — a
      valid prefix of the full result — but incomplete. *)

let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

(* An unreadable input file is a usage error.  A directory opens fine
   on Linux but fails on its length with an unhelpful EOVERFLOW, so it
   is named as such up front. *)
let read_file path =
  if Sys.file_exists path && Sys.is_directory path then
    die "%s: is a directory, not a file" path;
  match open_in_bin path with
  | exception Sys_error msg -> die "%s" msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try really_input_string ic (in_channel_length ic)
        with Sys_error msg -> die "%s: %s" path msg)

let exit_degraded = 3

(* Budget flags, shared by every long-running subcommand.  No flags →
   no budget (zero overhead); a tripped budget degrades gracefully:
   partial output, a diagnostic on stderr, exit 3. *)
let budget_arg =
  let wall =
    Arg.(value & opt (some float) None & info [ "wall-limit" ] ~docv:"SECONDS"
           ~doc:"Resource budget: stop gracefully after SECONDS of wall \
                 clock, emit the partial result and exit 3.")
  in
  let heap =
    Arg.(value & opt (some int) None & info [ "heap-limit-mb" ] ~docv:"MB"
           ~doc:"Resource budget: stop gracefully once the major heap \
                 exceeds MB megabytes, emit the partial result and exit 3.")
  in
  let mk wall_s heap_mb =
    if wall_s = None && heap_mb = None then None
    else
      try Some (Pnut_exec.Budget.make ?wall_s ?heap_mb ())
      with Invalid_argument msg -> die "%s" msg
  in
  Term.(const mk $ wall $ heap)

(* Report a budget trip on stderr, after whatever partial output the
   caller has, and exit [exit_degraded]. *)
let exit_if_degraded what = function
  | Pnut_exec.Supervisor.Complete _ -> ()
  | Pnut_exec.Supervisor.Degraded { reason; progress; _ } ->
    Format.eprintf "%s degraded: %s (%a)@." what
      (Pnut_exec.Supervisor.reason_message reason)
      Pnut_exec.Supervisor.pp_progress progress;
    exit exit_degraded

(* Parse a mini-language argument (query, signal, CTL formula), exiting
   2 with a uniform location message on failure. *)
let parse_arg what parse text =
  try parse text
  with Pnut_lang.Parser.Parse_error (_, col, msg) ->
    die "%s %S: column %d: %s" what text col msg

(* A simulation whose expression fails to evaluate aborts its run. *)
let run_aborted n e =
  Printf.eprintf "run %d aborted: %s\n" n (Pnut_sim.Simulator.error_message e);
  exit 1

(* Run an analysis that reports bad input via Invalid_argument. *)
let or_die f = try f () with Invalid_argument msg -> die "%s" msg

let load_net path =
  try Pnut_lang.Parser.parse_net (read_file path)
  with Pnut_lang.Parser.Parse_error (line, col, msg) ->
    die "%s:%d:%d: %s" path line col msg

(* Trace input, shared by every consumer.  The format (text or binary)
   is auto-detected from the first byte; codec errors exit 2 with the
   source location (line for text, byte offset for binary). *)

let with_trace_in path f =
  if path = "-" then f stdin
  else
    match open_in_bin path with
    | ic -> Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)
    | exception Sys_error msg -> die "%s" msg

let trace_errors path f =
  try f () with
  | Pnut_trace.Codec.Parse_error (line, msg) -> die "%s:%d: %s" path line msg
  | Pnut_trace.Binary.Parse_error (off, msg) ->
    die "%s: byte %d: %s" path off msg
  | Sys_error msg -> die "%s" msg

(* Stream a trace into a sink in O(1) memory. *)
let stream_trace path sink =
  trace_errors path (fun () ->
      with_trace_in path (fun ic -> Pnut_trace.Codec.stream_channel ic sink))

(* Materialize a trace, for the tools that need random access (tracer
   windows, check's state queries, batch means). *)
let load_trace path =
  trace_errors path (fun () -> with_trace_in path Pnut_trace.Codec.read_channel)

(* Trace output: a streaming writer sink over a channel. *)
let trace_out_channel out =
  if out = "-" then (stdout, false)
  else
    match open_out_bin out with
    | oc -> (oc, true)
    | exception Sys_error msg -> die "%s" msg

let trace_writer_sink format oc =
  match format with
  | `Text -> Pnut_trace.Codec.channel_sink oc
  | `Binary -> Pnut_trace.Binary.channel_sink oc

let close_trace_out (oc, close) = if close then close_out oc else flush oc

(* -- shared arguments -- *)

let net_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"MODEL.pn"
         ~doc:"Textual Petri-net model file.")

let trace_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE"
         ~doc:"Trace file produced by $(b,pnut sim) (or - for stdin).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
         ~doc:"Random seed for the simulation experiment.")

let jobs_arg =
  let jobs_conv =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 0 -> Ok n
      | Some _ -> Error (`Msg "worker count must be >= 0")
      | None -> Error (`Msg (Printf.sprintf "invalid worker count %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt jobs_conv 0 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Worker domains (0 = auto: $(b,PNUT_JOBS) or the core \
               count).  Results are identical for every value.")

let until_arg =
  Arg.(value & opt (some float) None & info [ "until" ] ~docv:"T"
         ~doc:"Simulate until the clock reaches T.")

let format_arg =
  Arg.(value
       & opt (enum [ ("text", `Text); ("binary", `Binary) ]) `Text
       & info [ "format" ] ~docv:"FMT"
           ~doc:"Trace encoding on output: $(b,text) (line-oriented, \
                 human-readable) or $(b,binary) (compact varint records; \
                 see docs/LANGUAGE.md).  Readers auto-detect either.")

let max_events_arg =
  Arg.(value & opt (some int) None & info [ "max-events" ] ~docv:"N"
         ~doc:"Stop after N firings have started.")

(* -- pnut model -- *)

let model_cmd =
  let doc = "Emit a built-in processor model in the textual language." in
  let which =
    (* the named models plus the indep<N>x<K> generator family, which an
       enum cannot express *)
    let parse s =
      match s with
      | "pipeline" -> Ok `Pipeline
      | "prefetch" -> Ok `Prefetch
      | "interpreted" -> Ok `Interpreted
      | "branching" -> Ok `Branching
      | "serial" -> Ok `Serial
      | _ ->
        (match Pnut_pipeline.Indep.parse_name s with
        | Some (n, k) -> Ok (`Indep (n, k))
        | None ->
          Error
            (`Msg
               (Printf.sprintf
                  "invalid model %S: expected pipeline, prefetch, \
                   interpreted, branching, serial or indep<N>x<K>"
                  s)))
    in
    let print ppf = function
      | `Pipeline -> Format.pp_print_string ppf "pipeline"
      | `Prefetch -> Format.pp_print_string ppf "prefetch"
      | `Interpreted -> Format.pp_print_string ppf "interpreted"
      | `Branching -> Format.pp_print_string ppf "branching"
      | `Serial -> Format.pp_print_string ppf "serial"
      | `Indep (n, k) -> Format.fprintf ppf "indep%dx%d" n k
    in
    Arg.(value
         & pos 0 (Arg.conv (parse, print)) `Pipeline
         & info [] ~docv:"NAME"
             ~doc:"pipeline (Figures 1-3), prefetch (Figure 1), interpreted \
                   (Figure 4 style), branching (flush-on-branch), serial, \
                   or indep<N>x<K> (N independent K-stage pipelines — a \
                   width-scalable concurrency benchmark).")
  in
  let memory =
    Arg.(value & opt float 5.0 & info [ "memory-cycles" ] ~docv:"C"
           ~doc:"Processor cycles per memory access.")
  in
  let buffers =
    Arg.(value & opt int 6 & info [ "buffer-words" ] ~docv:"W"
           ~doc:"Instruction-buffer size in words.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the model to FILE instead of stdout.")
  in
  let list_flag =
    Arg.(value & flag & info [ "list" ]
           ~doc:"List the built-in models with one-line descriptions and \
                 exit.")
  in
  let run which memory buffers out list_models =
    if list_models then begin
      List.iter
        (fun (name, desc) -> Printf.printf "%-12s %s\n" name desc)
        [
          ( "pipeline",
            "the paper's full pipelined processor (Figures 1-3): prefetch, \
             decode, execute over a shared bus; deterministic delays, so \
             --timed applies" );
          ( "prefetch",
            "the instruction-prefetch unit alone (Figure 1); the smallest \
             timed model" );
          ( "interpreted",
            "Figure 4 style: interpreted arcs move opcode values through \
             variables and tables" );
          ( "branching",
            "pipeline with a taken-branch path that flushes the \
             instruction buffer" );
          ( "serial",
            "the same work with no overlap (every stage serialized) — the \
             paper's no-pipelining baseline" );
          ( "indep<N>x<K>",
            "N independent K-stage pipelines (e.g. indep4x3) — a \
             width-scalable concurrency benchmark for reachability" );
        ];
      exit 0
    end;
    let config =
      { Pnut_pipeline.Config.default with
        Pnut_pipeline.Config.memory_cycles = memory;
        buffer_words = buffers }
    in
    let net =
      match which with
      | `Pipeline -> Pnut_pipeline.Model.full config
      | `Prefetch -> Pnut_pipeline.Model.prefetch_only config
      | `Interpreted -> Pnut_pipeline.Interpreted.full config
      | `Branching -> Pnut_pipeline.Branching.full config
      | `Serial -> Pnut_pipeline.Serial.full config
      | `Indep (n, k) -> Pnut_pipeline.Indep.net ~pipelines:n ~stages:k
    in
    let text = Format.asprintf "%a" Pnut_core.Net.pp net in
    match out with
    | Some path -> write_file path text
    | None -> print_string text
  in
  Cmd.v (Cmd.info "model" ~doc)
    Term.(const run $ which $ memory $ buffers $ out $ list_flag)

(* -- pnut sim -- *)

let sim_cmd =
  let doc = "Simulate a model, writing a trace and/or statistics." in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write the simulation trace to FILE (- for stdout).")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print the statistical analysis report after the run.")
  in
  let runs =
    Arg.(value & opt int 1 & info [ "runs" ] ~docv:"N"
           ~doc:"Independent experiments with split random streams; the \
                 statistics report is printed per run (run numbers 1..N). \
                 --trace applies to the first run only.")
  in
  let explain =
    Arg.(value & flag & info [ "explain-deadlock" ]
           ~doc:"When a run dies, explain per transition which input \
                 place, inhibitor or predicate blocks it.")
  in
  let save_state =
    Arg.(value & opt (some string) None & info [ "save-state" ] ~docv:"FILE"
           ~doc:"Checkpoint the engine state when the (first) run stops, \
                 so $(b,--load-state) can resume it later.")
  in
  let load_state =
    Arg.(value & opt (some string) None & info [ "load-state" ] ~docv:"FILE"
           ~doc:"Resume from a checkpoint written by $(b,--save-state) \
                 instead of starting fresh. $(b,--seed) is ignored: the \
                 random stream continues from the snapshot, so the resumed \
                 run replays exactly what the uninterrupted run would have \
                 done.")
  in
  let run path seed until max_events trace_out format stats runs explain
      budget save_state load_state =
    let net = load_net path in
    if runs < 1 then die "--runs must be at least 1";
    if load_state <> None && runs > 1 then
      die "--load-state resumes a single run; drop --runs %d" runs;
    (match Pnut_core.Validate.check net with
    | [] -> ()
    | diags ->
      List.iter
        (fun d ->
          Format.eprintf "%a@." Pnut_core.Validate.pp_diagnostic d)
        diags);
    let until = if until = None && max_events = None then Some 10000.0 else until in
    let ck =
      Option.map
        (fun file ->
          try Pnut_sim.Checkpoint.load file with
          | Pnut_sim.Checkpoint.Parse_error (line, msg) ->
            die "%s:%d: %s" file line msg
          | Sys_error msg -> die "%s" msg)
        load_state
    in
    (* A horizon before the starting clock is refused before --trace
       creates its file. *)
    let clock =
      Option.fold ck ~none:0.0 ~some:(fun c -> c.Pnut_sim.Checkpoint.ck_clock)
    in
    Option.iter
      (fun u -> or_die (fun () -> Pnut_sim.Simulator.check_horizon u ~clock))
      until;
    let master = Pnut_core.Prng.create seed in
    (* Trace records stream straight to the channel as the run produces
       them; the trace is never held in memory. *)
    let trace_chan = Option.map trace_out_channel trace_out in
    let trace_sink =
      Option.map (fun (oc, _) -> trace_writer_sink format oc) trace_chan
    in
    let aborted = ref false in
    let degraded = ref false in
    for run_number = 1 to runs do
      let stat_sink, stat_get = Pnut_stat.Stat.sink ~run:run_number () in
      let sinks =
        (if stats || trace_out = None then [ stat_sink ] else [])
        @
        match trace_sink with
        | Some s when run_number = 1 -> [ s ]
        | Some _ | None -> []
      in
      let sink = Pnut_trace.Trace.tee sinks in
      (* [create] scans enabledness: a failing predicate aborts there *)
      let start () =
        match ck with
        | Some ck ->
          (try Pnut_sim.Simulator.restore ~sink net ck
           with Pnut_sim.Simulator.Sim_error e ->
             die "%s" (Pnut_sim.Simulator.error_message e))
        | None ->
          (* a single run uses the seed directly (same trace as the
             library API); multiple runs draw split, independent streams *)
          let prng =
            if runs = 1 then Pnut_core.Prng.create seed
            else Pnut_core.Prng.split master
          in
          Pnut_sim.Simulator.create ~prng ~sink net
      in
      match
        let st = start () in
        (st, Pnut_sim.Simulator.run ?until ?max_events ?budget st)
      with
      | st, outcome ->
        (match outcome.Pnut_sim.Simulator.stop with
        | Pnut_sim.Simulator.Budget_exhausted _ -> degraded := true
        | _ -> ());
        if stats || trace_out = None then
          print_string (Pnut_stat.Stat.render (stat_get ()));
        if runs > 1 then print_newline ();
        Printf.eprintf
          "run %d stopped: %s at t=%g (%d events started, %d finished)\n"
          run_number
          (match outcome.Pnut_sim.Simulator.stop with
          | Pnut_sim.Simulator.Horizon -> "horizon"
          | Pnut_sim.Simulator.Dead -> "dead (no enabled transition)"
          | Pnut_sim.Simulator.Event_limit -> "event limit"
          | Pnut_sim.Simulator.Budget_exhausted r ->
            Pnut_exec.Supervisor.reason_message r)
          outcome.Pnut_sim.Simulator.final_clock
          outcome.Pnut_sim.Simulator.started
          outcome.Pnut_sim.Simulator.finished;
        (match outcome.Pnut_sim.Simulator.stop with
        | Pnut_sim.Simulator.Dead when explain ->
          Format.eprintf "%a@." Pnut_sim.Simulator.pp_diagnosis
            (Pnut_sim.Simulator.diagnose st)
        | _ -> ());
        (match save_state with
        | Some file when run_number = 1 ->
          Pnut_sim.Checkpoint.save file (Pnut_sim.Simulator.checkpoint st)
        | Some _ | None -> ())
      | exception Pnut_sim.Simulator.Sim_error e ->
        Printf.eprintf "run %d aborted: %s\n" run_number
          (Pnut_sim.Simulator.error_message e);
        aborted := true
      | exception Invalid_argument msg -> die "%s" msg
    done;
    Option.iter close_trace_out trace_chan;
    if !aborted then exit 1;
    if !degraded then exit exit_degraded
  in
  Cmd.v (Cmd.info "sim" ~doc)
    Term.(const run $ net_arg $ seed_arg $ until_arg $ max_events_arg
          $ trace_out $ format_arg $ stats $ runs $ explain $ budget_arg
          $ save_state $ load_state)

(* -- pnut stat -- *)

let stat_cmd =
  let doc = "Statistical analysis of a trace (the Figure-5 report)." in
  let tsv =
    Arg.(value & flag & info [ "tsv" ] ~doc:"Machine-readable TSV output.")
  in
  let run path tsv =
    let stat_sink, stat_get = Pnut_stat.Stat.sink () in
    (try stream_trace path stat_sink
     with Invalid_argument msg -> die "%s: %s" path msg);
    let report = stat_get () in
    print_string
      (if tsv then Pnut_stat.Stat.render_tsv report
       else Pnut_stat.Stat.render report)
  in
  Cmd.v (Cmd.info "stat" ~doc) Term.(const run $ trace_arg $ tsv)

(* -- pnut filter -- *)

let filter_cmd =
  let doc = "Reduce a trace to the places/transitions of interest." in
  let places =
    Arg.(value & opt (some (list string)) None & info [ "places" ] ~docv:"P,..."
           ~doc:"Keep only these places.")
  in
  let transitions =
    Arg.(value & opt (some (list string)) None & info [ "transitions" ]
           ~docv:"T,..." ~doc:"Keep only these transitions.")
  in
  let no_vars =
    Arg.(value & flag & info [ "no-vars" ] ~doc:"Drop variable updates.")
  in
  let out =
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output trace file (- for stdout).")
  in
  let run path places transitions no_vars out format =
    let spec =
      Pnut_trace.Filter.make_spec ?places ?transitions ~vars:(not no_vars) ()
    in
    (* Pure pass-through: records flow reader -> filter -> writer one at
       a time, so a filter stage adds O(1) memory to a pipeline. *)
    let chan = trace_out_channel out in
    let writer = trace_writer_sink format (fst chan) in
    stream_trace path (Pnut_trace.Filter.sink spec writer);
    close_trace_out chan
  in
  Cmd.v (Cmd.info "filter" ~doc)
    Term.(const run $ trace_arg $ places $ transitions $ no_vars $ out
          $ format_arg)

(* -- pnut tracer -- *)

let tracer_cmd =
  let doc = "Timing analysis: plot signals from a trace (Figure 7)." in
  let signals =
    Arg.(non_empty & opt_all string [] & info [ "signal"; "s" ] ~docv:"SPEC"
           ~doc:"Signal to plot: a place/transition/variable name or \
                 name=expression.")
  in
  let from_t =
    Arg.(value & opt float 0.0 & info [ "from" ] ~docv:"T" ~doc:"Window start.")
  in
  let to_t =
    Arg.(value & opt (some float) None & info [ "to" ] ~docv:"T"
           ~doc:"Window end (default: end of trace).")
  in
  let width =
    Arg.(value & opt int 72 & info [ "width" ] ~docv:"COLS" ~doc:"Plot width.")
  in
  let markers =
    Arg.(value & opt_all (pair ~sep:':' string float) []
         & info [ "marker" ] ~docv:"LABEL:TIME" ~doc:"Place a marker.")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ]
           ~doc:"Emit the sampled signals as CSV instead of a waveform.")
  in
  let run path signals from_t to_t width markers csv =
    let trace = load_trace path in
    let sigs =
      List.map (parse_arg "signal" Pnut_lang.Parser.parse_signal) signals
    in
    let markers =
      List.map
        (fun (label, time) ->
          { Pnut_tracer.Waveform.m_label = label; m_time = time })
        markers
    in
    let output =
      or_die (fun () ->
          if csv then Pnut_tracer.Signal.to_csv trace sigs
          else
            let style = { Pnut_tracer.Waveform.default_style with width } in
            Pnut_tracer.Waveform.render ~style ~from_time:from_t ?to_time:to_t
              ~markers trace sigs)
    in
    print_string output
  in
  Cmd.v (Cmd.info "tracer" ~doc)
    Term.(const run $ trace_arg $ signals $ from_t $ to_t $ width $ markers
          $ csv)

(* -- pnut check -- *)

let check_cmd =
  let doc = "Verify queries against a trace (Section 4.4)." in
  let queries =
    Arg.(non_empty & pos_right 0 string [] & info [] ~docv:"QUERY"
           ~doc:"forall/exists query, e.g. 'forall s in S [ A(s) + B(s) = 1 ]'.")
  in
  let run path queries =
    let trace = load_trace path in
    let failures = ref 0 in
    List.iter
      (fun q ->
        let query = parse_arg "query" Pnut_lang.Parser.parse_query q in
        match Pnut_tracer.Query.eval trace query with
        | result ->
          if not (Pnut_tracer.Query.holds result) then incr failures;
          Format.printf "%-60s %a@." q Pnut_tracer.Query.pp_result result
        | exception Invalid_argument msg -> die "query %S: %s" q msg)
      queries;
    if !failures > 0 then exit 1
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ trace_arg $ queries)

(* -- pnut reach -- *)

let reach_cmd =
  let doc = "Build and analyze the reachability graph of a model." in
  let timed =
    Arg.(value & flag & info [ "timed" ]
           ~doc:"Timed reachability (deterministic delays only): builds \
                 the state-class graph — markings, deadlocks and bounds \
                 of the explicit timed expansion without its tick \
                 interpolation.")
  in
  let max_states =
    Arg.(value & opt int 100000 & info [ "max-states" ] ~docv:"N"
           ~doc:"State cap.")
  in
  let ctl =
    Arg.(value & opt_all string [] & info [ "ctl" ] ~docv:"FORMULA"
           ~doc:"Check an invariant atom under AG, e.g. 'Bus_free + Bus_busy == 1' \
                 (untimed graph only).")
  in
  let query =
    Arg.(value & opt_all string [] & info [ "query" ] ~docv:"QUERY"
           ~doc:"Prove a forall/exists query over all reachable states \
                 (inev/alw are branching-time AF/AG), e.g. \
                 'forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]' \
                 (untimed graph only).")
  in
  let por =
    Arg.(value
         & opt (enum [ ("auto", `Auto); ("on", `On); ("off", `Off) ]) `Auto
         & info [ "por" ] ~docv:"MODE"
             ~doc:"Stubborn-set partial-order reduction: auto (on for \
                   deadlock/boundedness runs on plain place/transition \
                   nets; off when $(b,--ctl)/$(b,--query) needs the full \
                   graph or variables/predicates/actions make firings \
                   visible; auto skips the reduction when the net's \
                   structure guarantees it removes nothing), on, or off.  \
                   Preserves the exact deadlock \
                   markings (and place bounds on terminating nets) while \
                   visiting orders of magnitude fewer states on wide \
                   concurrent nets; state and edge counts are counts of \
                   the reduced graph.")
  in
  let run path timed max_states ctl query por budget =
    if max_states < 1 then
      die "--max-states must be positive (got %d)" max_states;
    let net = load_net path in
    (* On a budget trip the partial graph is still a valid prefix:
       summarize it and exit 3.  The CTL/query checks need the complete
       graph, so a degraded build skips them. *)
    if timed then begin
      if por = `On then
        die "--por on: partial-order reduction supports untimed \
             reachability only";
      if ctl <> [] then
        die "--ctl: CTL checks run on the untimed graph only; drop --timed";
      if query <> [] then
        die "--query: queries run on the untimed graph only; drop --timed";
      let outcome =
        or_die (fun () ->
            Pnut_reach.Timed.build_supervised ~max_states ?budget net)
      in
      let g = Pnut_exec.Supervisor.value outcome in
      Format.printf "%a@." Pnut_reach.Timed.pp_summary g;
      Printf.eprintf "reach: classes=%d edges=%d vectors=%d bytes/state=%.1f\n%!"
        (Pnut_reach.Timed.num_states g)
        (Pnut_reach.Timed.num_edges g)
        (Pnut_reach.Timed.num_vectors g)
        (Option.get (Pnut_reach.Timed.packed_bytes_per_state g));
      exit_if_degraded "reach" outcome
    end
    else begin
      let por =
        match por with
        | `On ->
          if ctl <> [] || query <> [] then
            die "--por on: --ctl/--query need the full interleaving graph; \
                 drop them or pass --por off";
          (match Pnut_reach.Stubborn.unsupported net with
          | Some msg -> die "%s" msg
          | None -> true)
        | `Off -> false
        | `Auto ->
          ctl = [] && query = []
          && Pnut_reach.Stubborn.unsupported net = None
      in
      (* Every formula is parsed before the build, so a typo costs no
         exploration. *)
      let parse_all what parse = List.map (fun s -> (s, parse_arg what parse s)) in
      let ctl = parse_all "formula" Pnut_lang.Parser.parse_expr ctl in
      let query = parse_all "query" Pnut_lang.Parser.parse_query query in
      let outcome =
        or_die (fun () ->
            Pnut_reach.Graph.build_supervised ~max_states ?budget ~por net)
      in
      let g = Pnut_exec.Supervisor.value outcome in
      Format.printf "%a@." Pnut_reach.Graph.pp_summary g;
      (* One-line machine-grepable stats on stderr.  por_reduction is the
         per-state branching reduction (token-enabled firings the full
         expansion would have taken, over edges actually recorded) — a
         lower bound on the state-count reduction, counted by the sweep;
         1.0x when the reduction is off. *)
      Printf.eprintf "reach: states=%d edges=%d bytes/state=%.1f \
                      por_reduction=%.1fx\n%!"
        (Pnut_reach.Graph.num_states g)
        (Pnut_reach.Graph.num_edges g)
        (Option.get (Pnut_reach.Graph.packed_bytes_per_state g))
        (Pnut_reach.Graph.por_reduction g);
      (match outcome with
      | Pnut_exec.Supervisor.Degraded _ -> ()
      | Pnut_exec.Supervisor.Complete g ->
        let failures = ref 0 in
        List.iter
          (fun (f, e) ->
            match Pnut_reach.Ctl.check g Pnut_reach.Ctl.(AG (Atom e)) with
            | ok ->
              if not ok then incr failures;
              Format.printf "AG(%s): %b@." f ok
            | exception Invalid_argument msg -> die "formula %S: %s" f msg)
          ctl;
        List.iter
          (fun (q, parsed) ->
            match Pnut_reach.Predicate.eval g parsed with
            | result ->
              if not (Pnut_tracer.Query.holds result) then incr failures;
              Format.printf "%-60s %a@." q Pnut_tracer.Query.pp_result result
            | exception Invalid_argument msg -> die "query %S: %s" q msg)
          query;
        if !failures > 0 then exit 1);
      exit_if_degraded "reach" outcome
    end
  in
  Cmd.v (Cmd.info "reach" ~doc)
    Term.(const run $ net_arg $ timed $ max_states $ ctl $ query $ por
          $ budget_arg)

(* -- pnut invariants -- *)

let invariants_cmd =
  let doc = "Compute P- and T-invariants of a model." in
  let run path =
    let net = load_net path in
    let inc = Pnut_core.Incidence.of_net net in
    (* Farkas elimination gives up past its row limit; compute both sets
       before printing, so that the command exits 2 with nothing
       half-written *)
    let p_invs, t_invs =
      or_die (fun () ->
          ( Pnut_core.Incidence.p_invariants inc,
            Pnut_core.Incidence.t_invariants inc ))
    in
    Format.printf "P-invariants:@.";
    List.iter
      (fun v ->
        Format.printf "  %a@." (Pnut_core.Incidence.pp_vector net `Place) v)
      p_invs;
    Format.printf "T-invariants:@.";
    List.iter
      (fun v ->
        Format.printf "  %a@."
          (Pnut_core.Incidence.pp_vector net `Transition) v)
      t_invs
  in
  Cmd.v (Cmd.info "invariants" ~doc) Term.(const run $ net_arg)

(* -- pnut anim -- *)

let anim_cmd =
  let doc = "Animate a simulation run of a model (Figure 6, in text)." in
  let steps =
    Arg.(value & opt int 10 & info [ "steps" ] ~docv:"N"
           ~doc:"Number of trace events to animate.")
  in
  let delay =
    Arg.(value & opt float 0.0 & info [ "delay" ] ~docv:"SECONDS"
           ~doc:"Pause between frames.")
  in
  let places =
    Arg.(value & opt (some (list string)) None & info [ "places" ]
           ~docv:"P,..." ~doc:"Restrict the state panel to these places.")
  in
  let trace_in =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"TRACE"
           ~doc:"Animate this stored trace (- for stdin) instead of \
                 running the simulator; frames are rendered as records \
                 arrive, so an unbounded piped trace animates in \
                 constant memory.")
  in
  let run path seed steps delay places trace_in =
    let net = load_net path in
    (* Frames are emitted one at a time straight from the trace sink;
       neither the trace nor the frame list is materialized. *)
    let emit f = Pnut_anim.Animator.play ~delay_s:delay stdout [ f ] in
    let sink = or_die (fun () -> Pnut_anim.Animator.sink ?places net emit) in
    match trace_in with
    | Some tr -> or_die (fun () -> stream_trace tr sink)
    | None -> (
      try ignore (Pnut_sim.Simulator.simulate ~seed ~max_events:steps ~sink net)
      with Pnut_sim.Simulator.Sim_error e -> run_aborted 1 e)
  in
  Cmd.v (Cmd.info "anim" ~doc)
    Term.(const run $ net_arg $ seed_arg $ steps $ delay $ places $ trace_in)

(* -- pnut validate -- *)

let validate_cmd =
  let doc = "Static checks of a model (unbound names, dead places, ...)." in
  let run path =
    let net = load_net path in
    match Pnut_core.Validate.check net with
    | [] -> print_endline "no diagnostics"
    | diags ->
      List.iter
        (fun d -> Format.printf "%a@." Pnut_core.Validate.pp_diagnostic d)
        diags;
      if Pnut_core.Validate.errors diags <> [] then exit 1
  in
  Cmd.v (Cmd.info "validate" ~doc) Term.(const run $ net_arg)

(* -- pnut analytic -- *)

let analytic_cmd =
  let doc =
    "Analytical (Markov-chain) performance evaluation of a GSPN model."
  in
  let exponentialize =
    Arg.(value & flag & info [ "exponentialize" ]
           ~doc:"First convert deterministic delays to exponential ones \
                 with the same means.")
  in
  let max_states =
    Arg.(value & opt int 2000 & info [ "max-states" ] ~docv:"N" ~doc:"State cap.")
  in
  let run path exponentialize max_states budget =
    let net = load_net path in
    let net =
      if exponentialize then
        or_die (fun () -> Pnut_analytic.Gspn.exponential_variant net)
      else net
    in
    let outcome =
      or_die (fun () ->
          Pnut_analytic.Gspn.analyze_supervised ~max_states ?budget net)
    in
    let r = Pnut_exec.Supervisor.value outcome in
    Printf.printf "tangible states:  %d\n" r.Pnut_analytic.Gspn.tangible_states;
    Printf.printf "vanishing states: %d\n\n" r.Pnut_analytic.Gspn.vanishing_states;
    Printf.printf "%-32s %12s\n" "place" "mean tokens";
    Array.iteri
      (fun p mean ->
        Printf.printf "%-32s %12.6f\n"
          (Pnut_core.Net.place net p).Pnut_core.Net.p_name mean)
      r.Pnut_analytic.Gspn.place_means;
    Printf.printf "\n%-32s %12s\n" "transition" "throughput";
    Array.iteri
      (fun t thr ->
        Printf.printf "%-32s %12.6f\n"
          (Pnut_core.Net.transition net t).Pnut_core.Net.t_name thr)
      r.Pnut_analytic.Gspn.throughputs;
    exit_if_degraded "analytic" outcome
  in
  Cmd.v (Cmd.info "analytic" ~doc)
    Term.(const run $ net_arg $ exponentialize $ max_states $ budget_arg)

(* -- pnut coverability -- *)

let coverability_cmd =
  let doc = "Boundedness analysis via the Karp-Miller construction." in
  let max_states =
    Arg.(value & opt int 100000 & info [ "max-states" ] ~docv:"N"
           ~doc:"State cap.")
  in
  let run path max_states budget =
    let net = load_net path in
    let outcome =
      or_die (fun () ->
          Pnut_reach.Coverability.build_supervised ~max_states ?budget net)
    in
    let g = Pnut_exec.Supervisor.value outcome in
    Format.printf "%a@." (Pnut_reach.Coverability.pp_summary net) g;
    (* A tripped budget means the verdict below would be drawn from an
       incomplete tree, so degradation takes precedence over it. *)
    exit_if_degraded "coverability" outcome;
    if not (Pnut_reach.Coverability.is_bounded g) then exit 1
  in
  Cmd.v (Cmd.info "coverability" ~doc)
    Term.(const run $ net_arg $ max_states $ budget_arg)

(* -- pnut dot -- *)

let dot_cmd =
  let doc = "Export a model (or its reachability graph) to Graphviz." in
  let what =
    Arg.(value & opt (enum [ ("net", `Net_graph); ("reach", `Reach);
                             ("coverability", `Cov) ])
           `Net_graph
         & info [ "kind" ] ~docv:"KIND" ~doc:"net | reach | coverability.")
  in
  let max_states =
    Arg.(value & opt int 20_000 & info [ "max-states" ] ~docv:"N"
           ~doc:"State cap for the graph-building kinds.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write to FILE instead of stdout.")
  in
  let run path what max_states out budget =
    let net = load_net path in
    (* Graph-building kinds run under the shared budget flags like any
       other long-running subcommand: on a trip the dot of the partial
       graph (a valid prefix) is still written, then exit 3. *)
    let outcome =
      match what with
      | `Net_graph -> Pnut_exec.Supervisor.Complete (Pnut_core.Dot.net net)
      | `Reach ->
        Pnut_exec.Supervisor.map Pnut_reach.Export.graph_dot
          (or_die (fun () ->
               Pnut_reach.Graph.build_supervised ~max_states ?budget net))
      | `Cov ->
        Pnut_exec.Supervisor.map (Pnut_reach.Export.coverability_dot net)
          (or_die (fun () ->
               Pnut_reach.Coverability.build_supervised ~max_states ?budget
                 net))
    in
    let text = Pnut_exec.Supervisor.value outcome in
    (match out with
    | Some path -> write_file path text
    | None -> print_string text);
    exit_if_degraded "dot" outcome
  in
  Cmd.v (Cmd.info "dot" ~doc)
    Term.(const run $ net_arg $ what $ max_states $ out $ budget_arg)

(* -- pnut replicate -- *)

let replicate_cmd =
  let doc =
    "Confidence-interval estimation over independent replications."
  in
  let runs =
    Arg.(value & opt int 10 & info [ "runs" ] ~docv:"N" ~doc:"Replications.")
  in
  let until =
    Arg.(value & opt float 10000.0 & info [ "until" ] ~docv:"T" ~doc:"Horizon.")
  in
  let place =
    Arg.(value & opt_all string [] & info [ "place" ] ~docv:"P"
           ~doc:"Report the mean token count of this place.")
  in
  let transition =
    Arg.(value & opt_all string [] & info [ "throughput" ] ~docv:"T"
           ~doc:"Report the throughput of this transition.")
  in
  let confidence =
    Arg.(value & opt float 0.95 & info [ "confidence" ] ~docv:"LEVEL"
           ~doc:"0.90, 0.95 or 0.99.")
  in
  let run path seed runs until place transition confidence jobs budget =
    let net = load_net path in
    if place = [] && transition = [] then
      die "nothing to estimate: pass --place and/or --throughput";
    (* One sweep per command: every estimate reads the same reports. *)
    let outcome =
      try
        or_die (fun () ->
            Pnut_stat.Replication.sweep ~seed ~jobs ?budget ~runs ~until net)
      with Pnut_stat.Replication.Aborted (n, e) -> run_aborted n e
    in
    let reports = Pnut_exec.Supervisor.value outcome in
    let estimate what read =
      match Pnut_stat.Replication.summarize ~confidence read reports with
      | { pr_estimate = Some e; _ } ->
        Format.printf "%-40s %a@." what Pnut_stat.Replication.pp e
      | { pr_estimate = None; pr_completed; pr_requested; _ } ->
        Format.printf "%-40s (no estimate: %d of %d replications done)@."
          what pr_completed pr_requested
      | exception Not_found -> die "unknown place/transition in %s" what
      | exception Invalid_argument msg -> die "%s" msg
    in
    List.iter
      (fun p ->
        estimate (p ^ " mean tokens") (fun r -> Pnut_stat.Stat.utilization r p))
      place;
    List.iter
      (fun t ->
        estimate (t ^ " throughput") (fun r -> Pnut_stat.Stat.throughput r t))
      transition;
    exit_if_degraded "replicate" outcome
  in
  Cmd.v (Cmd.info "replicate" ~doc)
    Term.(const run $ net_arg $ seed_arg $ runs $ until $ place $ transition
          $ confidence $ jobs_arg $ budget_arg)

(* -- pnut cycle -- *)

let cycle_cmd =
  let doc =
    "Steady-state cycle analysis of a deterministic timed model [RP84]."
  in
  let max_steps =
    Arg.(value & opt int 100000 & info [ "max-steps" ] ~docv:"N"
           ~doc:"Walk bound: firings and completions (time advances are \
                 folded into them and not counted).")
  in
  let marked_graph =
    Arg.(value & flag & info [ "marked-graph" ]
           ~doc:"Use the Ramamoorthy-Ho maximum-ratio-cycle method \
                 (decision-free nets only) instead of the state walker.")
  in
  let run path max_steps marked_graph =
    let net = load_net path in
    if marked_graph then begin
      match Pnut_analytic.Marked_graph.cycle_time net with
      | Pnut_analytic.Marked_graph.Cycle_time 0.0 ->
        Printf.printf "zero-time livelock: no circuit has a positive delay\n";
        exit 1
      | Pnut_analytic.Marked_graph.Cycle_time t ->
        Printf.printf "cycle time: %g (throughput %g per transition)\n" t
          (1.0 /. t);
        (match Pnut_analytic.Marked_graph.critical_circuit net with
        | Some (circuit, _) ->
          Printf.printf "critical circuit: %s\n"
            (String.concat " -> "
               (List.map
                  (fun i ->
                    (Pnut_core.Net.transition net i).Pnut_core.Net.t_name)
                  circuit))
        | None -> ())
      | Pnut_analytic.Marked_graph.Deadlock ->
        Printf.printf "deadlock: a circuit carries no tokens\n";
        exit 1
      | Pnut_analytic.Marked_graph.Unbounded_rate ->
        Printf.printf "no circuit constrains the net (unbounded rate)\n"
      | exception Invalid_argument msg -> die "%s" msg
    end
    else
      match Pnut_reach.Timed.steady_cycle ~max_steps net with
      | Some c when c.Pnut_reach.Timed.cy_period = 0.0 ->
        Printf.printf "zero-time livelock: time stops at %g\n"
          c.Pnut_reach.Timed.cy_transient;
        exit 1
      | Some c ->
        Printf.printf "transient: %g\nperiod:    %g\n\n"
          c.Pnut_reach.Timed.cy_transient c.Pnut_reach.Timed.cy_period;
        Printf.printf "%-32s %10s %12s\n" "transition" "per cycle" "throughput";
        Array.iteri
          (fun t count ->
            if count > 0 then
              Printf.printf "%-32s %10d %12.6f\n"
                (Pnut_core.Net.transition net t).Pnut_core.Net.t_name count
                (float_of_int count /. c.Pnut_reach.Timed.cy_period))
          c.Pnut_reach.Timed.cy_firings
      | None ->
        Printf.eprintf "no steady cycle found (net dies or bound too small)\n";
        exit 1
      | exception Invalid_argument msg -> die "%s" msg
  in
  Cmd.v (Cmd.info "cycle" ~doc)
    Term.(const run $ net_arg $ max_steps $ marked_graph)

(* -- pnut explore -- *)

let explore_cmd =
  let doc = "Interactive state-space exploration of a model." in
  let run path seed =
    let net = load_net path in
    try or_die (fun () -> Pnut_sim.Explorer.run ~seed net stdin stdout)
    with Pnut_sim.Simulator.Sim_error e -> run_aborted 1 e
  in
  Cmd.v (Cmd.info "explore" ~doc) Term.(const run $ net_arg $ seed_arg)

(* -- pnut batch -- *)

let batch_cmd =
  let doc = "Batch-means confidence intervals from one long trace." in
  let warmup =
    Arg.(value & opt float 0.0 & info [ "warmup" ] ~docv:"T"
           ~doc:"Discard the first T time units.")
  in
  let batches =
    Arg.(value & opt int 10 & info [ "batches" ] ~docv:"N" ~doc:"Batch count.")
  in
  let place =
    Arg.(value & opt_all string [] & info [ "place" ] ~docv:"P"
           ~doc:"Estimate this place's mean token count.")
  in
  let transition =
    Arg.(value & opt_all string [] & info [ "throughput" ] ~docv:"T"
           ~doc:"Estimate this transition's throughput.")
  in
  let run path warmup batches place transition =
    let trace = load_trace path in
    if place = [] && transition = [] then
      die "nothing to estimate: pass --place and/or --throughput";
    let report what compute =
      match compute () with
      | e -> Format.printf "%-40s %a@." what Pnut_stat.Replication.pp e
      | exception Not_found -> die "unknown name in %s" what
      | exception Invalid_argument msg -> die "%s" msg
    in
    List.iter
      (fun p ->
        report (p ^ " mean tokens") (fun () ->
            Pnut_stat.Batch.place_utilization ~warmup ~batches trace p))
      place;
    List.iter
      (fun t ->
        report (t ^ " throughput") (fun () ->
            Pnut_stat.Batch.transition_throughput ~warmup ~batches trace t))
      transition
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(const run $ trace_arg $ warmup $ batches $ place $ transition)

let main =
  let doc = "P-NUT: Petri-Net Utility Tools" in
  let info = Cmd.info "pnut" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ model_cmd; sim_cmd; stat_cmd; filter_cmd; tracer_cmd;
      check_cmd; reach_cmd; invariants_cmd; anim_cmd; validate_cmd;
      analytic_cmd; coverability_cmd; dot_cmd; replicate_cmd; explore_cmd;
      batch_cmd; cycle_cmd ]

let () = exit (Cmd.eval main)
