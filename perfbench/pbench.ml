(* The processes that run.py times.

   Every end-to-end subcommand is one fresh process that makes the public
   calls of the matching pnut subcommand, from [Parser.parse_net] to the
   printed result, and then checks that result against the expected
   values given on its command line.  A failed check is reported on
   stderr and exits 1.  The last line on stdout is "@@pbench " followed
   by a JSON object: whether the checks passed, and the set-up time.

   With [--spans FILE] the same calls run inside named spans, which are
   kept in memory and written to FILE at exit.  Layer costs that sit
   inside one library call are then measured by replay after the path:
   [Simulator.run] into a null sink, each trace decoder into a counting
   sink (in the [stat] process, the last of Figure 5), [Stubborn.fired]
   and [Store.intern] over every reached state, and the same build at one
   worker.  The replay time is reported as [extra_s] so that run.py can
   subtract it from the process wall time, and the per-layer metrics
   derived from the spans ride in the result line.

   [calib] is a fixed load that calls no pnut library.  run.py times it
   beside every run to take the host's speed out of the end-to-end
   times. *)

open Pnut_core
module Trace = Pnut_trace.Trace
module Codec = Pnut_trace.Codec
module Filter = Pnut_trace.Filter
module Stat = Pnut_stat.Stat
module Simulator = Pnut_sim.Simulator
module Graph = Pnut_reach.Graph
module Timed = Pnut_reach.Timed
module Packed = Pnut_reach.Packed
module Store = Pnut_reach.Store
module Stubborn = Pnut_reach.Stubborn
module Supervisor = Pnut_exec.Supervisor

let now = Unix.gettimeofday

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* -- JSON output -- *)

type json =
  | Int of int
  | Num of float
  | Str of string
  | Bool of bool
  | Obj of (string * json) list
  | Arr of json list

let rec add_json b = function
  | Int n -> Buffer.add_string b (string_of_int n)
  | Num x ->
    (* all digits, so that run-to-run noise stays visible *)
    Buffer.add_string b
      (if Float.is_finite x then Printf.sprintf "%.17g" x else "null")
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Str s ->
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' | '\\' -> Buffer.add_char b '\\'; Buffer.add_char b c
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        add_json b (Str k);
        Buffer.add_char b ':';
        add_json b v)
      kvs;
    Buffer.add_char b '}'
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        add_json b v)
      xs;
    Buffer.add_char b ']'

let json_string j =
  let b = Buffer.create 256 in
  add_json b j;
  Buffer.contents b

(* -- output checks -- *)

let failures = ref []

let expect ok fmt =
  Printf.ksprintf (fun msg -> if not ok then failures := msg :: !failures) fmt

(* -- spans, counts and per-layer metrics -- *)

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

let tracing = ref false
let spans = ref []
let open_spans = ref []
let next_id = ref 0
let metrics = ref []

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    open_spans := List.tl !open_spans;
    spans := { id; parent; name; t0; t1 } :: !spans;
    r
  end

let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None)
    !spans

(* Total time of every span with this name (chunked replays). *)
let total name = List.fold_left ( +. ) 0.0 (durations name)

let metric name v = metrics := (name, v) :: !metrics

(* A metric from spans that only some processes of a run open. *)
let metric_of_spans metric_name span_name =
  if durations span_name <> [] then metric metric_name (total span_name)

let per_second count seconds =
  if seconds > 0.0 then float_of_int count /. seconds else 0.0

let write_spans path ~run =
  let span_json s =
    Obj
      [ ("id", Int s.id); ("parent", Int s.parent); ("name", Str s.name);
        ("start", Num s.t0); ("end", Num s.t1) ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (json_string
           (Obj
              [ ("run", Str run);
                ("spans", Arr (List.rev_map span_json !spans));
                ("counts",
                 Obj (List.rev_map (fun (k, v) -> (k, Num v)) !metrics)) ]));
      output_char oc '\n')

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* GC figures of the path, taken before any replay allocates. *)
let record_gc () =
  let words_mb w = w *. float_of_int (Sys.word_size / 8) /. 1e6 in
  let q = Gc.quick_stat () in
  metric "gc.minor_mb" (words_mb q.Gc.minor_words);
  metric "gc.major_collections" (float_of_int q.Gc.major_collections);
  metric "gc.top_heap_mb" (words_mb (float_of_int q.Gc.top_heap_words));
  Gc.full_major ();
  metric "gc.live_mb" (words_mb (float_of_int (Gc.quick_stat ()).Gc.live_words))

(* -- set-up: parse, validation and compile -- *)

(* Set-up runs once, cold, as in pnut; run.py takes the median over the
   processes of a benchmark run. *)
let timed_setup f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let parse text = span "lang.parse" (fun () -> Pnut_lang.Parser.parse_net text)

(* Kernel.of_net, Incidence.place_bounds and Stubborn.create are what the
   simulator and the builders compile before their first event or state;
   they take a net and not a compiled kernel, so they compile it again. *)
let compile ~por net =
  span "core.compile" (fun () ->
      let kernel = Kernel.of_net net in
      ignore (Incidence.place_bounds net : int option array);
      if por then ignore (Stubborn.create kernel : Stubborn.t))

let setup_sim text =
  let net = parse text in
  span "core.validate" (fun () ->
      List.iter
        (fun d -> Format.eprintf "%a@." Validate.pp_diagnostic d)
        (Validate.check net));
  compile ~por:false net;
  net

(* [pnut reach] with --packed auto and --por auto. *)
let setup_reach text =
  let net = parse text in
  let packed, por =
    span "core.validate" (fun () ->
        (Packed.bounds_known net, Stubborn.unsupported net = None))
  in
  compile ~por net;
  (net, packed, por)

(* [pnut reach --timed] with --packed auto. *)
let setup_timed text =
  let net = parse text in
  let packed = span "core.validate" (fun () -> Packed.bounds_known net) in
  compile ~por:false net;
  (net, packed)

(* -- Figure 5: sim | filter | stat -- *)

let filter_places =
  [ "Bus_busy"; "Bus_free"; "pre_fetching"; "fetching"; "storing";
    "Full_I_buffers" ]

let filter_transitions = [ "Issue" ]

let filter_spec () =
  Filter.make_spec ~places:filter_places ~transitions:filter_transitions
    ~vars:true ()

let with_out path f =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* Codec.stream_channel detects text or binary from the first byte. *)
let stream path sink =
  In_channel.with_open_bin path (fun ic -> Codec.stream_channel ic sink)

(* [pnut sim MODEL --seed S --until T --trace OUT --format binary] *)
let sim_stage net ~seed ~until ~out =
  let outcome =
    span "stage.sim" (fun () ->
        with_out out (fun oc ->
            let sink = Trace.tee [ Pnut_trace.Binary.channel_sink oc ] in
            let st = Simulator.create ~prng:(Prng.create seed) ~sink net in
            Simulator.run ~until st))
  in
  Printf.eprintf "run 1 stopped at t=%g (%d events started, %d finished)\n"
    outcome.Simulator.final_clock outcome.Simulator.started
    outcome.Simulator.finished;
  expect (outcome.Simulator.stop = Simulator.Horizon)
    "simulation stopped before the horizon";
  outcome

(* [pnut filter IN --places ... --transitions Issue -o OUT] (text out) *)
let filter_stage ~input ~out =
  span "stage.filter" (fun () ->
      with_out out (fun oc ->
          stream input (Filter.sink (filter_spec ()) (Codec.channel_sink oc))))

(* [pnut stat IN] *)
let stat_stage ~input =
  let report =
    span "stage.stat" (fun () ->
        let sink, get = Stat.sink () in
        stream input sink;
        get ())
  in
  print_string (span "stat.render" (fun () -> Stat.render report));
  report

let check_stat report ~bus_sum ~issue_band:(lo, hi) =
  let sum =
    Stat.utilization report "Bus_busy" +. Stat.utilization report "Bus_free"
  in
  expect (Float.abs (sum -. bus_sum) < 1e-9)
    "Bus_busy + Bus_free averages %.12g, expected %g" sum bus_sum;
  let issue = Stat.throughput report "Issue" in
  expect (issue >= lo && issue <= hi)
    "Issue throughput %.6g outside [%g, %g]" issue lo hi

let counting_sink () =
  let n = ref 0 in
  ({ Trace.null_sink with Trace.on_delta = (fun _ -> incr n) }, n)

let file_bytes path = float_of_int (Unix.stat path).Unix.st_size

(* A layer's cost is the difference of two replays run back to back:
   the stage up to and including the layer, and the same stage with the
   layer's input sent to a null or counting sink.  Each replay runs
   [replay_reps] times and the fastest counts, because the differences
   are small beside run-to-run noise.  [scratch] receives the replayed
   output files. *)
let replay_reps = 3

let fig5_replays net ~seed ~until ~bin ~text ~scratch =
  let simulate sink =
    Simulator.run ~until (Simulator.create ~prng:(Prng.create seed) ~sink net)
  in
  let spec = filter_spec () in
  let events = ref 0 and n_in = ref 0 and n_out = ref 0 in
  for _ = 1 to replay_reps do
    span "replay.sim_null" (fun () ->
        events := (simulate Trace.null_sink).Simulator.started);
    span "replay.sim_binary" (fun () ->
        with_out scratch (fun oc ->
            ignore (simulate (Pnut_trace.Binary.channel_sink oc))));
    let decoded, decoded_n = counting_sink () in
    span "replay.binary_decode" (fun () -> stream bin decoded);
    let kept, kept_n = counting_sink () in
    span "replay.binary_filter" (fun () -> stream bin (Filter.sink spec kept));
    n_in := !decoded_n;
    n_out := !kept_n;
    span "replay.binary_filter_text" (fun () ->
        with_out scratch (fun oc ->
            stream bin (Filter.sink spec (Codec.channel_sink oc))));
    span "replay.text_decode" (fun () -> stream text Trace.null_sink);
    span "replay.text_stat" (fun () ->
        let sink, get = Stat.sink () in
        stream text sink;
        ignore (get () : Stat.report))
  done;
  let fastest name = List.fold_left Float.min infinity (durations name) in
  let diff a b = fastest a -. fastest b in
  let sim_s = fastest "replay.sim_null" in
  metric "sim.run_s" sim_s;
  metric "sim.events" (float_of_int !events);
  metric "sim.events_per_s" (per_second !events sim_s);
  metric "trace.binary_encode_s" (diff "replay.sim_binary" "replay.sim_null");
  metric "trace.binary_decode_s" (fastest "replay.binary_decode");
  metric "trace.binary_bytes" (file_bytes bin);
  metric "trace.filter_s" (diff "replay.binary_filter" "replay.binary_decode");
  metric "trace.filter_kept_ratio"
    (float_of_int !n_out /. float_of_int (max 1 !n_in));
  metric "trace.text_encode_s"
    (diff "replay.binary_filter_text" "replay.binary_filter");
  metric "trace.text_decode_s" (fastest "replay.text_decode");
  metric "trace.text_bytes" (file_bytes text);
  metric "stat.fold_s" (diff "replay.text_stat" "replay.text_decode");
  metric "stat.render_s" (total "stat.render")

(* -- untimed reachability: [pnut reach MODEL --jobs J] -- *)

let reach_path net ~packed ~por ~jobs ~max_states =
  let outcome =
    span "reach.build" (fun () ->
        Graph.build_supervised ~max_states ~jobs ~packed ~por net)
  in
  let g = Supervisor.value outcome in
  span "reach.summary" (fun () -> Format.printf "%a@." Graph.pp_summary g);
  let bytes_per_state =
    match Graph.packed_bytes_per_state g with
    | Some b -> Printf.sprintf "%.1f" b
    | None -> "-"
  in
  (* the CLI's por_reduction: token-enabled firings over recorded edges *)
  let por_reduction =
    span "stubborn.reduction" (fun () ->
        if not por then 1.0
        else begin
          let kernel = Kernel.of_net net in
          let trans = Kernel.transitions kernel in
          let total = ref 0 in
          for i = 0 to Graph.num_states g - 1 do
            let m = Marking.of_array (Graph.state g i).Graph.s_marking in
            Array.iter
              (fun c -> if Kernel.token_enabled c m then incr total)
              trans
          done;
          float_of_int !total /. float_of_int (max 1 (Graph.num_edges g))
        end)
  in
  Printf.eprintf "reach: states=%d edges=%d bytes/state=%s por_reduction=%.1fx\n%!"
    (Graph.num_states g) (Graph.num_edges g) bytes_per_state por_reduction;
  (outcome, g, por_reduction)

(* Decode states in chunks outside the spans, so that a replay span
   covers the library calls and nothing else. *)
let chunk = 4096

let replay_chunks name n decode f =
  let i = ref 0 in
  while !i < n do
    let len = min chunk (n - !i) in
    let batch = Array.init len (fun j -> decode (!i + j)) in
    span name (fun () -> Array.iter f batch);
    i := !i + len
  done

let fresh_store net ~with_extra =
  let codec = Packed.create ~with_extra net in
  Store.create codec ~num_transitions:(Net.num_transitions net)

let reach_replays net g ~packed ~por ~max_states ~por_reduction =
  let n = Graph.num_states g in
  let marking i = (Graph.state g i).Graph.s_marking in
  if por then begin
    let stb = Stubborn.create (Kernel.of_net net) in
    let scratch = Stubborn.scratch stb in
    replay_chunks "stubborn.fired" n
      (fun i -> Marking.of_array (marking i))
      (fun m -> ignore (Stubborn.fired stb scratch m : int array))
  end;
  let store = fresh_store net ~with_extra:false in
  replay_chunks "store.intern" n marking (fun m ->
      ignore (Store.intern store m ~extra:0 ~max_states:max_int));
  let build_s = total "reach.build" in
  metric "reach.build_s" build_s;
  metric "reach.states" (float_of_int n);
  metric "reach.edges" (float_of_int (Graph.num_edges g));
  metric "reach.states_per_s" (per_second n build_s);
  metric "reach.summary_s" (total "reach.summary");
  metric "stubborn.fired_s" (total "stubborn.fired");
  metric "stubborn.reduction" por_reduction;
  metric "store.intern_s" (total "store.intern");
  metric "store.bytes_per_state"
    (Option.value ~default:0.0 (Graph.packed_bytes_per_state g));
  Pnut_exec.Pool.quiesce ();
  ignore
    (span "exec.build_jobs1" (fun () ->
         Graph.build_supervised ~max_states ~jobs:1 ~packed ~por net)
      : Graph.t Supervisor.outcome);
  let jobs1 = total "exec.build_jobs1" in
  metric "exec.build_s_jobs1" jobs1;
  metric "exec.speedup_jobs2" (jobs1 /. build_s)

(* -- timed reachability: [pnut reach MODEL --timed --jobs J] -- *)

let timed_path net ~packed ~jobs ~max_states =
  let outcome =
    span "timed.build" (fun () ->
        Timed.build_supervised ~max_states ~jobs ~packed net)
  in
  let g = Supervisor.value outcome in
  span "timed.summary" (fun () -> Format.printf "%a@." Timed.pp_summary g);
  let bytes_per_state =
    match Timed.packed_bytes_per_state g with
    | Some b -> Printf.sprintf "%.1f" b
    | None -> "-"
  in
  Printf.eprintf "reach: classes=%d edges=%d vectors=%d bytes/state=%s\n%!"
    (Timed.num_states g) (Timed.num_edges g) (Timed.num_vectors g)
    bytes_per_state;
  (outcome, g)

let timed_replays net g ~packed ~max_states =
  let n = Timed.num_states g in
  (* A class is its marking plus an interned (environment, firing
     domain) id; number the ids here, as the builder's side table does. *)
  let ids = Hashtbl.create 1024 in
  let class_key i =
    let s = Timed.state g i in
    let key =
      ( s.Timed.ts_flight, s.Timed.ts_pending, s.Timed.ts_flight_iv,
        s.Timed.ts_pending_iv, s.Timed.ts_env )
    in
    let id =
      match Hashtbl.find_opt ids key with
      | Some id -> id
      | None ->
        let id = Hashtbl.length ids in
        Hashtbl.add ids key id;
        id
    in
    (s.Timed.ts_marking, id)
  in
  let store = fresh_store net ~with_extra:true in
  replay_chunks "store.intern" n class_key (fun (m, extra) ->
      ignore (Store.intern store m ~extra ~max_states:max_int));
  let build_s = total "timed.build" in
  let vectors = Timed.num_vectors g in
  let bytes_per_state =
    Option.value ~default:0.0 (Timed.packed_bytes_per_state g)
  in
  metric "timed.build_s" build_s;
  metric "timed.classes" (float_of_int n);
  metric "timed.vectors" (float_of_int vectors);
  metric "timed.vectors_per_s" (per_second vectors build_s);
  metric "timed.bytes_per_state" bytes_per_state;
  metric "timed.summary_s" (total "timed.summary");
  metric "store.intern_s" (total "store.intern");
  metric "store.bytes_per_state" bytes_per_state;
  Pnut_exec.Pool.quiesce ();
  ignore
    (span "exec.build_jobs1" (fun () ->
         Timed.build_supervised ~max_states ~jobs:1 ~packed net)
      : Timed.t Supervisor.outcome);
  let jobs1 = total "exec.build_jobs1" in
  metric "exec.build_s_jobs1" jobs1;
  metric "exec.speedup_jobs2" (jobs1 /. build_s)

(* -- models -- *)

(* The 9-place token ring: C(tokens + 8, 8) states, every place bound
   known, so a state packs into one word. *)
let ring ~tokens =
  let b = Net.Builder.create "ring9" in
  let places =
    Array.init 9 (fun i ->
        Net.Builder.add_place b (Printf.sprintf "r%d" i)
          ~initial:(if i = 0 then tokens else 0))
  in
  for i = 0 to 8 do
    ignore
      (Net.Builder.add_transition b (Printf.sprintf "rt%d" i)
         ~inputs:[ (places.(i), 1) ]
         ~outputs:[ (places.((i + 1) mod 9), 1) ]
        : Net.transition_id)
  done;
  Net.Builder.build b

(* [pnut model pipeline --memory-cycles C --buffer-words W] *)
let pipeline ~memory_cycles ~buffer_words =
  Pnut_pipeline.Model.full
    { Pnut_pipeline.Config.default with
      Pnut_pipeline.Config.memory_cycles; buffer_words }

(* -- host speed reference -- *)

(* The kinds of work the workloads do, with no pnut code in them:
   hashing into a table larger than the caches, minor-heap allocation,
   and formatting text.  The result is the same on every domain and on
   every run. *)
let calib_load () =
  let n = 1 lsl 18 in
  let key i = (i * 0x9E3779B1) land 0x3FFFFFFF in
  let tbl = Hashtbl.create n in
  for i = 0 to n - 1 do
    Hashtbl.replace tbl (key i) (Some i)
  done;
  let b = Buffer.create 4096 in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    (match Hashtbl.find_opt tbl (key (i land (n - 1))) with
     | Some (Some v) -> acc := !acc + v
     | _ -> ());
    Buffer.clear b;
    Printf.bprintf b "%d Bus_busy %d\n" i (i land 7);
    acc := !acc + Buffer.length b
  done;
  !acc

(* One [calib_load] per domain, all at once, as the reachability builds
   use their workers. *)
let calibrate ~domains =
  let others = List.init (domains - 1) (fun _ -> Domain.spawn calib_load) in
  let mine = calib_load () in
  List.iter
    (fun d ->
      let r = Domain.join d in
      expect (r = mine) "calibration gave %d on one domain and %d on another"
        r mine)
    others

(* The worker domains of every reachability build: pinned, and what
   [--jobs auto] picks on the 2-core machine the workloads were sized on.
   The traced run also builds at one worker. *)
let jobs = 2

(* -- command line -- *)

let usage =
  "pbench (model pipeline|ring | sim | filter | stat | reach | timed | calib) \
   ARGS...\n\
   Run from the repository root through perfbench/run.py; see \
   perfbench/README.md."

let () =
  let fail fmt =
    Printf.ksprintf (fun m -> prerr_endline m; prerr_endline usage; exit 2) fmt
  in
  if Array.length Sys.argv < 2 then fail "missing subcommand";
  let cmd = Sys.argv.(1) in
  let anon = ref [] in
  let str r = Arg.Set_string r and int r = Arg.Set_int r in
  let float r = Arg.Set_float r in
  let seed = ref 1 and until = ref 0.0 and out = ref "" in
  let model = ref "" and bin = ref "" in
  let spans_file = ref "" and max_states = ref 2_000_000 and domains = ref 1 in
  let tokens = ref 17 and memory_cycles = ref 5.0 and buffer_words = ref 6 in
  let bus_sum = ref nan and issue_band = ref "" in
  let want_states = ref (-1) and want_edges = ref (-1) in
  let want_deadlocks = ref (-1) and want_vectors = ref (-1) in
  let want_store = ref "" in
  let specs =
    [ ("--seed", int seed, "N simulator seed");
      ("--until", float until, "T simulation horizon");
      ("-o", str out, "FILE output file");
      ("--spans", str spans_file, "FILE trace the run and write spans to FILE");
      ("--model", str model, "FILE the model, for the Figure 5 replays in stat");
      ("--bin", str bin, "FILE the binary trace, for the replays in stat");
      ("--max-states", int max_states, "N state cap");
      ("--domains", int domains, "N domains of the calibration load");
      ("--tokens", int tokens, "N ring tokens");
      ("--memory-cycles", float memory_cycles, "C pipeline memory cycles");
      ("--buffer-words", int buffer_words, "W pipeline buffer words");
      ("--bus-sum", float bus_sum, "X expected Bus_busy + Bus_free average");
      ("--issue-band", str issue_band, "LO,HI expected Issue throughput band");
      ("--states", int want_states, "N expected states (classes when timed)");
      ("--edges", int want_edges, "N expected edges");
      ("--deadlocks", int want_deadlocks, "N expected deadlocks");
      ("--vectors", int want_vectors, "N expected residual vectors");
      ("--store", str want_store, "packed|boxed expected state store") ]
  in
  (try
     Arg.parse_argv ~current:(ref 1) Sys.argv specs
       (fun a -> anon := a :: !anon) usage
   with Arg.Bad m | Arg.Help m -> fail "%s" m);
  let arg () =
    match !anon with [ a ] -> a | _ -> fail "%s: expected one input file" cmd
  in
  let band () =
    match String.split_on_char ',' !issue_band with
    | [ lo; hi ] -> (
      match (float_of_string_opt lo, float_of_string_opt hi) with
      | Some lo, Some hi -> (lo, hi)
      | _ -> fail "--issue-band: expected LO,HI")
    | _ -> fail "--issue-band: expected LO,HI"
  in
  let expect_store bytes_per_state =
    let store = if bytes_per_state = None then "boxed" else "packed" in
    expect (store = !want_store) "%s store, expected %s" store !want_store
  in
  let cpu0 = cpu_seconds () in
  tracing := !spans_file <> "";
  let replay_start = ref 0.0 in
  (* Ends the path: GC and CPU figures first, then the replays. *)
  let end_path () =
    if !tracing then begin
      metric "exec.cpu_s" (cpu_seconds () -. cpu0);
      replay_start := now ();
      record_gc ();
      metric_of_spans "lang.parse_s" "lang.parse";
      metric_of_spans "core.compile_s" "core.compile"
    end
  in
  let finish fields =
    if !tracing then write_spans !spans_file ~run:(cmd ^ "/" ^ string_of_int !seed);
    let extra = if !tracing then [ ("extra_s", Num (now () -. !replay_start)) ] else [] in
    let per_layer =
      if !tracing then
        [ ("metrics", Obj (List.rev_map (fun (k, v) -> (k, Num v)) !metrics)) ]
      else []
    in
    List.iter
      (fun m -> prerr_endline ("check failed: " ^ m))
      (List.rev !failures);
    print_endline
      ("@@pbench "
      ^ json_string
          (Obj ((("ok", Bool (!failures = [])) :: fields) @ extra @ per_layer)));
    exit (if !failures = [] then 0 else 1)
  in
  match cmd with
  | "model" ->
    let net =
      match arg () with
      | "ring" -> ring ~tokens:!tokens
      | "pipeline" ->
        pipeline ~memory_cycles:!memory_cycles ~buffer_words:!buffer_words
      | m -> fail "unknown model %S" m
    in
    with_out !out (fun oc ->
        output_string oc (Format.asprintf "%a" Net.pp net));
    finish []
  | "sim" ->
    let text = read_file (arg ()) in
    let net, setup_s = timed_setup (fun () -> setup_sim text) in
    ignore (sim_stage net ~seed:!seed ~until:!until ~out:!out : Simulator.outcome);
    end_path ();
    finish [ ("setup_s", Num setup_s) ]
  | "filter" ->
    filter_stage ~input:(arg ()) ~out:!out;
    end_path ();
    finish []
  | "stat" ->
    let input = arg () in
    let report = stat_stage ~input in
    check_stat report ~bus_sum:!bus_sum ~issue_band:(band ());
    end_path ();
    if !tracing then begin
      let net = Pnut_lang.Parser.parse_net (read_file !model) in
      fig5_replays net ~seed:!seed ~until:!until ~bin:!bin ~text:input
        ~scratch:(Filename.concat (Filename.dirname input) "replay.out")
    end;
    finish []
  | "reach" ->
    let text = read_file (arg ()) in
    let (net, packed, por), setup_s = timed_setup (fun () -> setup_reach text) in
    let outcome, g, por_reduction =
      reach_path net ~packed ~por ~jobs ~max_states:!max_states
    in
    let states = Graph.num_states g and edges = Graph.num_edges g in
    let deadlocks = List.length (Graph.deadlocks g) in
    expect (not (Supervisor.degraded outcome)) "build stopped early";
    expect_store (Graph.packed_bytes_per_state g);
    expect (states = !want_states) "%d states, expected %d" states !want_states;
    expect (edges = !want_edges) "%d edges, expected %d" edges !want_edges;
    expect (deadlocks = !want_deadlocks) "%d deadlocks, expected %d" deadlocks
      !want_deadlocks;
    end_path ();
    if !tracing then
      reach_replays net g ~packed ~por ~max_states:!max_states ~por_reduction;
    finish [ ("setup_s", Num setup_s) ]
  | "timed" ->
    let text = read_file (arg ()) in
    let (net, packed), setup_s = timed_setup (fun () -> setup_timed text) in
    let outcome, g = timed_path net ~packed ~jobs ~max_states:!max_states in
    let classes = Timed.num_states g and edges = Timed.num_edges g in
    let vectors = Timed.num_vectors g in
    expect (not (Supervisor.degraded outcome)) "build stopped early";
    expect_store (Timed.packed_bytes_per_state g);
    expect (classes = !want_states) "%d classes, expected %d" classes
      !want_states;
    expect (edges = !want_edges) "%d edges, expected %d" edges !want_edges;
    expect (vectors = !want_vectors) "%d vectors, expected %d" vectors
      !want_vectors;
    end_path ();
    if !tracing then timed_replays net g ~packed ~max_states:!max_states;
    finish [ ("setup_s", Num setup_s) ]
  | "calib" ->
    calibrate ~domains:(max 1 !domains);
    finish []
  | c -> fail "unknown subcommand %S" c
