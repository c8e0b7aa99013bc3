(* End-to-end tests of the pnut command-line driver: each subcommand is
   exercised as a real process, piping files between tools like the
   original P-NUT. *)

let pnut = "../bin/pnut.exe"

let tmp_dir = Filename.get_temp_dir_name ()

let tmp name = Filename.concat tmp_dir ("pnut_cli_" ^ name)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run the binary, capturing stdout; returns (exit code, output). *)
let run args =
  let out_file = tmp "out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> %s"
      (Filename.quote pnut)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out_file)
      (Filename.quote (tmp "err"))
  in
  let code = Sys.command cmd in
  (code, read_file out_file)

let check_run what args =
  let code, out = run args in
  Alcotest.(check int) (what ^ " exit code") 0 code;
  out

let model_file = tmp "pipeline.pn"
let trace_file = tmp "run.trace"

let test_model_emit () =
  let out = check_run "model" [ "model"; "pipeline"; "-o"; model_file ] in
  ignore out;
  let text = read_file model_file in
  Testutil.check_contains "model file" text "net pipeline3";
  Testutil.check_contains "model file" text "transition Start_prefetch"

let test_validate () =
  let out = check_run "validate" [ "validate"; model_file ] in
  Testutil.check_contains "validate" out "no diagnostics"

let test_sim_with_trace_and_stats () =
  let out =
    check_run "sim"
      [ "sim"; model_file; "--until"; "2000"; "--seed"; "42"; "--trace";
        trace_file; "--stats" ]
  in
  Testutil.check_contains "stats printed" out "RUN STATISTICS";
  Testutil.check_contains "stats printed" out "PLACE STATISTICS";
  let trace = read_file trace_file in
  Testutil.check_contains "trace file" trace "%pnut-trace 1";
  Testutil.check_contains "trace file" trace "end 2000"

let test_stat_from_trace () =
  let out = check_run "stat" [ "stat"; trace_file ] in
  Testutil.check_contains "report" out "EVENT STATISTICS";
  let tsv = check_run "stat tsv" [ "stat"; trace_file; "--tsv" ] in
  Testutil.check_contains "tsv" tsv "place\tBus_busy"

let test_filter () =
  let filtered = tmp "filtered.trace" in
  let _ =
    check_run "filter"
      [ "filter"; trace_file; "--places"; "Bus_busy,Bus_free";
        "--transitions"; "Start_prefetch,End_prefetch"; "-o"; filtered ]
  in
  let text = read_file filtered in
  Testutil.check_contains "kept place" text "Bus_busy";
  Alcotest.(check bool) "smaller than original" true
    (String.length text < String.length (read_file trace_file))

let test_piped_pipeline () =
  (* the paper's architecture, literally: simulator | filter | stat as
     three processes over pipes, no intermediate file *)
  let out_file = tmp "pipe.out" in
  let cmd =
    Printf.sprintf
      "%s sim %s --until 500 --seed 7 --trace - | %s filter - --transitions \
       Start_prefetch | %s stat - > %s 2> %s"
      (Filename.quote pnut) (Filename.quote model_file) (Filename.quote pnut)
      (Filename.quote pnut) (Filename.quote out_file)
      (Filename.quote (tmp "err"))
  in
  Alcotest.(check int) "pipeline exit" 0 (Sys.command cmd);
  let out = read_file out_file in
  Testutil.check_contains "stats at the end of the pipe" out "RUN STATISTICS";
  Testutil.check_contains "kept transition" out "Start_prefetch";
  Testutil.check_contains "pseudo transition" out "_filtered"

let test_binary_format () =
  let bin_trace = tmp "run_binary.trace" in
  let _ =
    check_run "sim binary"
      [ "sim"; model_file; "--until"; "2000"; "--seed"; "42"; "--trace";
        bin_trace; "--format"; "binary" ]
  in
  let bytes = read_file bin_trace in
  Alcotest.(check string) "magic" "\x00pnut-bin" (String.sub bytes 0 9);
  Alcotest.(check bool) "much smaller than the text trace" true
    (2 * String.length bytes < String.length (read_file trace_file));
  (* readers auto-detect the format: same run, same report *)
  let from_bin = check_run "stat binary" [ "stat"; bin_trace; "--tsv" ] in
  let from_text = check_run "stat text" [ "stat"; trace_file; "--tsv" ] in
  Alcotest.(check string) "stat agrees across formats" from_text from_bin

let test_binary_pipeline () =
  (* an all-binary pipe: sim and filter write binary, stat auto-detects *)
  let out_file = tmp "binpipe.out" in
  let cmd =
    Printf.sprintf
      "%s sim %s --until 500 --seed 7 --trace - --format binary | %s filter - \
       --transitions Start_prefetch --format binary | %s stat - > %s 2> %s"
      (Filename.quote pnut) (Filename.quote model_file) (Filename.quote pnut)
      (Filename.quote pnut) (Filename.quote out_file)
      (Filename.quote (tmp "err"))
  in
  Alcotest.(check int) "binary pipeline exit" 0 (Sys.command cmd);
  Testutil.check_contains "stats" (read_file out_file) "RUN STATISTICS"

let test_stat_rejects_corrupt_trace () =
  let bad = tmp "corrupt.trace" in
  let oc = open_out bad in
  output_string oc
    "net x\nplace 0 p 0\ntransition 0 t\nbegin\n@ 5 S 0 0\n@ 3 E 0 0\nend 10\n";
  close_out oc;
  let code, _ = run [ "stat"; bad ] in
  Alcotest.(check int) "corrupt trace exit" 2 code;
  Testutil.check_contains "names the regression" (read_file (tmp "err"))
    "went backwards"

(* An id outside the header's tables used to escape as an uncaught
   Invalid_argument (exit 125). *)
let test_out_of_range_id_rejected () =
  let bad = tmp "out_of_range.trace" in
  Out_channel.with_open_bin bad (fun oc ->
      output_string oc
        "net x\nplace 0 p 0\ntransition 0 t\nbegin\n@ 1 S 7 0\n@ 2 E 7 0 ; 5:1\nend 10\n");
  List.iter
    (fun cmd ->
      let code, _ = run [ cmd; bad ] in
      Alcotest.(check int) (cmd ^ " exit") 2 code;
      Testutil.check_contains cmd (read_file (tmp "err")) "transition id 7 out of range")
    [ "stat"; "filter" ]

let test_tracer () =
  let out =
    check_run "tracer"
      [ "tracer"; trace_file; "-s"; "Bus_busy"; "-s"; "pre_fetching";
        "--from"; "0"; "--to"; "100"; "--marker"; "O:20"; "--marker"; "X:80" ]
  in
  Testutil.check_contains "waveform" out "Bus_busy";
  Testutil.check_contains "interval" out "O <-> X : 60"

let test_tracer_csv () =
  let out =
    check_run "tracer csv" [ "tracer"; trace_file; "-s"; "Bus_busy"; "--csv" ]
  in
  Testutil.check_contains "csv header" out "time,Bus_busy";
  Alcotest.(check bool) "many rows" true
    (List.length (String.split_on_char '\n' out) > 10)

let test_check_queries () =
  let out =
    check_run "check"
      [ "check"; trace_file;
        "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]" ]
  in
  Testutil.check_contains "query result" out "holds";
  (* a failing query exits 1 *)
  let code, out2 =
    run [ "check"; trace_file; "exists s in S [ Bus_busy(s) > 5 ]" ]
  in
  Alcotest.(check int) "failing query exit" 1 code;
  Testutil.check_contains "failure reported" out2 "fails"

(* A name that is no place, transition or variable is a usage error
   (exit 2 with the message) in queries and signals alike. *)
let test_unknown_names () =
  List.iter
    (fun (what, args) ->
      let code, out = run args in
      Alcotest.(check int) (what ^ ": exit") 2 code;
      Alcotest.(check string) (what ^ ": no stdout") "" out;
      Testutil.check_contains (what ^ ": message") (read_file (tmp "err"))
        "ghost")
    [
      ("check", [ "check"; trace_file; "forall s in S [ ghost(s) > 0 ]" ]);
      ("tracer", [ "tracer"; trace_file; "-s"; "ghost" ]);
      ("tracer csv", [ "tracer"; trace_file; "-s"; "ghost"; "--csv" ]);
    ]

(* Bad input exits 2 with one message, never as an uncaught exception
   (exit 125): an ill-typed or unknown formula atom or signal, an empty
   time window.  Checks on a capped graph are skipped (exit 3), and a
   formula that does not parse stops reach before it builds. *)
let test_bad_input_exit_codes () =
  let interp = tmp "bad_interp.pn" and interp_trace = tmp "bad_interp.trace" in
  let _ = check_run "interp model" [ "model"; "interpreted"; "-o"; interp ] in
  let _ =
    check_run "interp sim"
      [ "sim"; interp; "--until"; "100"; "--trace"; interp_trace ]
  in
  List.iter
    (fun (what, expected, args, message) ->
      let code, out = run args in
      Alcotest.(check int) (what ^ ": exit") expected code;
      let err = read_file (tmp "err") in
      Testutil.check_contains (what ^ ": message") err message;
      Alcotest.(check bool) (what ^ ": no uncaught exception") false
        (Testutil.contains err "uncaught");
      Alcotest.(check bool) (what ^ ": no check result") false
        (Testutil.contains out "AG(" || Testutil.contains out "holds"))
    [
      ("ctl not boolean", 2, [ "reach"; model_file; "--ctl"; "Bus_busy + 1" ],
       "formula \"Bus_busy + 1\": atom Bus_busy + 1 is not boolean");
      ("ctl unknown name", 2, [ "reach"; model_file; "--ctl"; "ghost == 1" ],
       "formula \"ghost == 1\": unknown identifier ghost");
      ("ill-typed signal", 2, [ "tracer"; trace_file; "-s"; "Bus_busy + true" ],
       "operator + applied to a boolean");
      ("boolean signal", 2, [ "tracer"; interp_trace; "-s"; "store_flag" ],
       "signal \"store_flag\": expected number, got bool");
      ("empty window", 2,
       [ "tracer"; trace_file; "-s"; "Bus_busy"; "--from"; "100"; "--to"; "10" ],
       "Waveform.render: empty time window");
      ("ctl on a capped graph", 3,
       [ "reach"; model_file; "--max-states"; "100"; "--ctl";
         "Bus_free + Bus_busy == 1" ],
       "reach degraded");
      ("query on a capped graph", 3,
       [ "reach"; model_file; "--max-states"; "100"; "--query";
         "forall s in S [ Bus_free(s) + Bus_busy(s) = 1 ]" ],
       "reach degraded");
    ];
  let code, out = run [ "reach"; model_file; "--ctl"; "Bus_busy $ 1" ] in
  Alcotest.(check int) "unparsable formula: exit" 2 code;
  Alcotest.(check string) "unparsable formula: no summary" "" out;
  let err = read_file (tmp "err") in
  Testutil.check_contains "unparsable formula: message" err "column 10";
  Alcotest.(check bool) "unparsable formula: no build" false
    (Testutil.contains err "reach: states")

let test_reach_and_ctl () =
  let out =
    check_run "reach"
      [ "reach"; model_file; "--ctl"; "Bus_free + Bus_busy == 1" ]
  in
  Testutil.check_contains "summary" out "reachability graph";
  Testutil.check_contains "ctl" out "AG(Bus_free + Bus_busy == 1): true";
  (* reachability builds are serial; the worker-count flag is gone *)
  let code, _ = run [ "reach"; model_file; "--jobs"; "2" ] in
  Alcotest.(check bool) "--jobs rejected" true (code <> 0)

let test_reach_query () =
  let out =
    check_run "reach query"
      [ "reach"; model_file; "--query";
        "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]" ]
  in
  Testutil.check_contains "proof result" out "holds";
  let code, _ =
    run [ "reach"; model_file; "--query"; "forall s in S [ Bus_free(s) = 1 ]" ]
  in
  Alcotest.(check int) "refuted query exits 1" 1 code

let test_reach_por () =
  (* the generator model family and the stubborn-set reduction flag *)
  let indep = tmp "indep.pn" in
  let _ = check_run "indep model" [ "model"; "indep6x4"; "-o"; indep ] in
  let text = read_file indep in
  Testutil.check_contains "generator net name" text "net indep6x4";
  let full = check_run "reach full" [ "reach"; indep; "--por"; "off" ] in
  Testutil.check_contains "full states" full "states: 15625";
  Testutil.check_contains "full deadlock" full "deadlocks: 1";
  let reduced = check_run "reach reduced" [ "reach"; indep; "--por"; "on" ] in
  Testutil.check_contains "reduced deadlock" reduced "deadlocks: 1";
  let reduced_states =
    Scanf.sscanf
      (String.concat ""
         (List.filter
            (fun l -> String.length l > 7 && String.sub l 0 7 = "states:")
            (String.split_on_char '\n' reduced)))
      "states: %d" Fun.id
  in
  Alcotest.(check bool) ">= 5x fewer states" true
    (15625 >= 5 * reduced_states);
  (* auto mode turns the reduction on for this plain net *)
  let auto = check_run "reach auto" [ "reach"; indep ] in
  Testutil.check_contains "auto reduces" auto
    (Printf.sprintf "states: %d" reduced_states);
  (* the one-line stderr summary *)
  let _ = check_run "reach stderr" [ "reach"; indep; "--por"; "on" ] in
  let err = read_file (tmp "err") in
  Testutil.check_contains "stderr summary" err "reach: states=";
  Testutil.check_contains "stderr reduction" err "por_reduction=";
  (* explicit --por on cannot serve --ctl, and dies on unsupported nets *)
  let code, _ =
    run [ "reach"; indep; "--por"; "on"; "--ctl"; "P1_s0 <= 1" ]
  in
  Alcotest.(check int) "por+ctl rejected" 2 code;
  let interp = tmp "interp.pn" in
  let _ = check_run "interp model" [ "model"; "interpreted"; "-o"; interp ] in
  let code, _ = run [ "reach"; interp; "--por"; "on" ] in
  Alcotest.(check int) "unsupported net rejected" 2 code;
  let err = read_file (tmp "err") in
  Testutil.check_contains "structured rejection" err "--por off";
  (* the interpreted model draws random numbers in its actions: both
     builders reject it with a specification error, not a crash *)
  List.iter
    (fun extra ->
      let code, _ = run ([ "reach"; interp ] @ extra) in
      let what = String.concat " " ("reach interpreted" :: extra) in
      Alcotest.(check int) (what ^ " exits 2") 2 code;
      let err = read_file (tmp "err") in
      Testutil.check_contains what err "stochastic";
      Alcotest.(check bool) (what ^ ": no uncaught exception") false
        (Testutil.contains err "uncaught exception"))
    [ []; [ "--timed" ] ];
  (* unknown model names still die with the full menu *)
  let code, _ = run [ "model"; "indep0x4" ] in
  Alcotest.(check bool) "bad generator params rejected" true (code <> 0)

let test_timed_reach () =
  (* --timed builds the packed state-class graph *)
  let out =
    check_run "timed reach" [ "reach"; model_file; "--timed" ]
  in
  Testutil.check_contains "class summary" out "timed state-class graph";
  let err = read_file (tmp "err") in
  Testutil.check_contains "class stderr" err "reach: classes="

(* The class graph has no CTL or query checker: asking for one with
   --timed is a usage error before the build, one line naming the
   flag, not a silent summary. *)
let test_timed_reach_rejects_checks () =
  List.iter
    (fun (flag, arg) ->
      let code, out = run [ "reach"; model_file; "--timed"; flag; arg ] in
      Alcotest.(check int) ("--timed " ^ flag ^ " exits 2") 2 code;
      Alcotest.(check string) ("--timed " ^ flag ^ ": no summary") "" out;
      let err = read_file (tmp "err") in
      Alcotest.(check int) ("--timed " ^ flag ^ ": one line") 1
        (List.length (String.split_on_char '\n' (String.trim err)));
      Testutil.check_contains ("--timed " ^ flag ^ " names the flag") err flag)
    [ ("--ctl", "bad $"); ("--ctl", "Bus_free + Bus_busy == 1");
      ("--query", "zzz") ]

(* The representation and engine switches are gone: the packed store is
   the only graph layout and the fast simulator the only engine, so the
   old flags are unknown options (cmdliner's exit 124). *)
let test_removed_flags () =
  List.iter
    (fun args ->
      let code, _ = run args in
      Alcotest.(check int) (String.concat " " args ^ " exits 124") 124 code)
    [ [ "reach"; model_file; "--packed"; "on" ];
      [ "reach"; model_file; "--timed"; "--explicit" ];
      [ "sim"; model_file; "--engine"; "fast" ];
      [ "faults"; model_file ] ];
  let help cmd = check_run (cmd ^ " help") [ cmd; "--help=plain" ] in
  let reach = help "reach" and sim = help "sim" in
  List.iter
    (fun (what, text, flag) ->
      Alcotest.(check bool) (what ^ " does not list " ^ flag) false
        (Testutil.contains text flag))
    [ ("reach help", reach, "--packed"); ("reach help", reach, "--explicit");
      ("sim help", sim, "--engine") ]

(* An unbounded pump capped at 50 states: the packed store starts from a
   guessed field width and widens, so even this net reports a numeric
   footprint.  The stdout summary and exit 3 are pinned from the
   boxed-store days. *)
let test_reach_unbounded_packed () =
  let pump = tmp "pump4.pn" in
  let oc = open_out pump in
  output_string oc
    "net pump\nplace p init 1\nplace q\ntransition t\n  in p\n  out p, q\n";
  close_out oc;
  let code, out = run [ "reach"; pump; "--max-states"; "50" ] in
  Alcotest.(check int) "state cap exits 3" 3 code;
  Alcotest.(check string) "summary"
    "reachability graph of pump\nstates: 50 (truncated)\nedges: 49\n\
     deadlocks: 1\nsafe: false\nreversible: false\ndead transitions: none\n"
    out;
  let err = read_file (tmp "err") in
  match
    Scanf.sscanf err "reach: states=50 edges=49 bytes/state=%f " Fun.id
  with
  | b -> Alcotest.(check bool) "positive footprint" true (b > 0.0)
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
    Alcotest.failf "no numeric bytes/state on stderr: %S" err

(* The reachability dot of the pipeline, pinned by MD5 from the build
   that still defaulted to the boxed layout. *)
let test_dot_reach_digest () =
  let out = check_run "dot reach" [ "dot"; model_file; "--kind"; "reach" ] in
  Alcotest.(check string) "dot digest" "377dd827da403e2c4e19baf8ac425448"
    (Digest.to_hex (Digest.string out))

let test_model_list () =
  let out = check_run "model list" [ "model"; "--list" ] in
  Testutil.check_contains "pipeline row" out "pipeline";
  Testutil.check_contains "generator row" out "indep<N>x<K>";
  Testutil.check_contains "description" out "Figures 1-3"

let test_invariants () =
  let out = check_run "invariants" [ "invariants"; model_file ] in
  Testutil.check_contains "p-invariants" out "Bus_busy + Bus_free";
  Testutil.check_contains "t-invariants header" out "T-invariants:";
  (* the same model with its last four place declarations moved to the
     front: Farkas elimination outgrows its row limit on this order,
     which must be a clean exit 2, not an uncaught exception *)
  let places, rest =
    List.partition
      (String.starts_with ~prefix:"place ")
      (String.split_on_char '\n' (read_file model_file))
  in
  let k = List.length places - 4 in
  let rotated =
    List.filteri (fun i _ -> i >= k) places
    @ List.filteri (fun i _ -> i < k) places
  in
  let reordered = tmp "pipeline_reordered.pn" in
  let oc = open_out reordered in
  output_string oc
    (String.concat "\n" (List.hd rest :: rotated @ List.tl rest));
  close_out oc;
  let code, _ = run [ "invariants"; reordered ] in
  Alcotest.(check int) "row limit exit" 2 code;
  Testutil.check_contains "names the limit" (read_file (tmp "err"))
    "row limit"

let test_anim () =
  let out =
    check_run "anim" [ "anim"; model_file; "--steps"; "3"; "--places";
                       "Bus_free,Bus_busy" ]
  in
  Testutil.check_contains "frames" out "Start_prefetch";
  Testutil.check_contains "separator" out "----";
  (* a stored trace animates too, streaming record-by-record *)
  let out =
    check_run "anim from trace"
      [ "anim"; model_file; "--trace"; trace_file; "--places";
        "Bus_free,Bus_busy" ]
  in
  Testutil.check_contains "trace frames" out "Start_prefetch";
  (* a name that is no place is a usage error, even beside a known one *)
  let code, out =
    run [ "anim"; model_file; "--steps"; "1"; "--places"; "ghost,Bus_busy" ]
  in
  Alcotest.(check int) "unknown place: exit" 2 code;
  Alcotest.(check string) "unknown place: no frames" "" out;
  Testutil.check_contains "unknown place: message" (read_file (tmp "err"))
    "no place named ghost"

let test_analytic () =
  let out =
    check_run "analytic" [ "analytic"; model_file; "--exponentialize";
                           "--max-states"; "5000" ]
  in
  Testutil.check_contains "states" out "tangible states";
  Testutil.check_contains "throughputs" out "Issue"

let test_dot () =
  let out = check_run "dot" [ "dot"; model_file ] in
  Testutil.check_contains "digraph" out "digraph \"pipeline3\"";
  let out2 = check_run "dot reach" [ "dot"; model_file; "--kind"; "reach" ] in
  Testutil.check_contains "reach digraph" out2 "digraph reachability"

let test_dot_budget () =
  (* dot's graph-building kinds honour the shared budget flags: on a
     trip the dot of the partial prefix is still written, then exit 3 *)
  let pump = tmp "pump3.pn" in
  let oc = open_out pump in
  output_string oc
    "net pump\nplace p init 1\nplace q\ntransition t\n  in p\n  out p, q\n";
  close_out oc;
  let code, out =
    run [ "dot"; pump; "--kind"; "reach"; "--wall-limit"; "0.05";
          "--max-states"; "100000000" ]
  in
  Alcotest.(check int) "dot reach degrades with exit 3" 3 code;
  Testutil.check_contains "partial dot written" out "digraph reachability";
  let err = read_file (tmp "err") in
  Testutil.check_contains "reason on stderr" err "wall-clock budget";
  (* coverability accelerates the pump to a finite tree instantly, so
     degrade it through the state cap on a wide bounded net instead *)
  let indep = tmp "indep_dot.pn" in
  let _ = check_run "indep model" [ "model"; "indep6x4"; "-o"; indep ] in
  let code, out =
    run [ "dot"; indep; "--kind"; "coverability"; "--max-states"; "50" ]
  in
  Alcotest.(check int) "dot coverability degrades with exit 3" 3 code;
  Testutil.check_contains "partial coverability dot" out "digraph";
  let code, out =
    run [ "dot"; pump; "--kind"; "reach"; "--max-states"; "50";
          "--wall-limit"; "300" ]
  in
  Alcotest.(check int) "state-capped dot exits 3" 3 code;
  Testutil.check_contains "capped dot still written" out "digraph reachability"

let test_replicate () =
  let out =
    check_run "replicate"
      [ "replicate"; model_file; "--runs"; "3"; "--until"; "1000";
        "--place"; "Bus_busy"; "--throughput"; "Issue" ]
  in
  Testutil.check_contains "place estimate" out "Bus_busy mean tokens";
  Testutil.check_contains "ci format" out "95% CI, 3 runs"

let count_lines_with needle text =
  List.length
    (List.filter
       (fun l -> Testutil.contains l needle)
       (String.split_on_char '\n' text))

let test_replicate_one_sweep () =
  (* every estimate reads the same sweep, so a budget trips once *)
  let code, out =
    run
      [ "replicate"; model_file; "--runs"; "2"; "--until"; "1e12"; "-j"; "1";
        "--wall-limit"; "0.2"; "--place"; "Bus_busy"; "--throughput"; "Issue" ]
  in
  Alcotest.(check int) "budgeted replicate exits 3" 3 code;
  Alcotest.(check int) "one line per estimate" 2 (count_lines_with "no estimate" out);
  Alcotest.(check int) "one degraded line" 1
    (count_lines_with "degraded" (read_file (tmp "err")));
  List.iter
    (fun (what, args) ->
      let code, _ =
        run ([ "replicate"; model_file; "--until"; "100"; "--throughput"; "Issue" ] @ args)
      in
      Alcotest.(check int) what 2 code)
    [ ("one run is an input error", [ "--runs"; "1" ]);
      ("unsupported confidence is an input error", [ "--confidence"; "0.5" ]) ];
  (* the warning counts the workers that run: -j is clamped to --runs *)
  let warnings ~runs ~jobs =
    let _ =
      check_run "replicate"
        [ "replicate"; model_file; "--runs"; string_of_int runs; "--until";
          "100"; "-j"; string_of_int jobs; "--place"; "Bus_busy";
          "--throughput"; "Issue" ]
    in
    count_lines_with "jobs requested" (read_file (tmp "err"))
  in
  let cores = Domain.recommended_domain_count () in
  if cores >= 2 then
    Alcotest.(check int) "two runs under -j 64 do not warn" 0
      (warnings ~runs:2 ~jobs:64);
  if cores < 8 then
    Alcotest.(check int) "one oversubscription warning" 1
      (warnings ~runs:(cores + 1) ~jobs:(cores + 1))

let test_bad_delays () =
  (* a delay evaluating to NaN or below zero is an input error in every
     engine, named in the message *)
  List.iter
    (fun (name, delay, verdict) ->
      let model = tmp (name ^ ".pn") in
      let oc = open_out model in
      Printf.fprintf oc
        "net %s\nvar x = 0.0\nplace p init 1\nplace q\ntransition t\n  \
         in p\n  out q\n  firing expr(%s)\ntransition u\n  in q\n  \
         out p\n  firing 1\n"
        name delay;
      close_out oc;
      List.iter
        (fun args ->
          let what = String.concat " " (name :: args) in
          let code, _ = run (List.hd args :: model :: List.tl args) in
          Alcotest.(check int) (what ^ " exit code") 2 code;
          Testutil.check_contains what (read_file (tmp "err"))
            ("firing time of transition t: " ^ verdict ^ " delay"))
        [ [ "sim"; "--max-events"; "100" ]; [ "sim"; "--until"; "10" ];
          [ "reach"; "--timed" ]; [ "cycle" ] ];
      let cmd =
        Printf.sprintf "printf 'step\\nstep\\nquit\\n' | %s explore %s > %s 2>&1"
          (Filename.quote pnut) (Filename.quote model)
          (Filename.quote (tmp "err"))
      in
      Alcotest.(check int) (name ^ " explore exit code") 2 (Sys.command cmd);
      Testutil.check_contains (name ^ " explore") (read_file (tmp "err"))
        ("firing time of transition t: " ^ verdict ^ " delay"))
    [ ("nan_delay", "x / x", "NaN"); ("neg_delay", "0 - 1", "negative") ]

let test_expression_errors () =
  (* an expression that fails to evaluate names its transition: exit 2
     from the graph builders, an aborted run (exit 1) from every command
     that simulates — never an uncaught exception *)
  let explore model =
    Sys.command
      (Printf.sprintf "printf 'step\\nstep\\nquit\\n' | %s explore %s > %s 2> %s"
         (Filename.quote pnut) (Filename.quote model) (Filename.quote (tmp "out"))
         (Filename.quote (tmp "err")))
  in
  let simulating needle =
    [ ([ "replicate"; "--runs"; "2"; "--until"; "10"; "--place"; "q" ], 1,
       "run 1 aborted: " ^ needle);
      ([ "anim" ], 1, "run 1 aborted: " ^ needle);
      ([ "explore" ], 1, "run 1 aborted: " ^ needle) ]
  in
  List.iter
    (fun (name, decls, clause, cases) ->
      let model = tmp (name ^ ".pn") in
      let oc = open_out model in
      Printf.fprintf oc
        "net %s\n%splace p init 1\nplace q\ntransition t\n  in p\n  \
         out q\n  %s\n"
        name decls clause;
      close_out oc;
      List.iter
        (fun (args, code, needle) ->
          let what = String.concat " " (name :: args) in
          let got =
            if args = [ "explore" ] then explore model
            else fst (run (List.hd args :: model :: List.tl args))
          in
          Alcotest.(check int) (what ^ " exit code") code got;
          Testutil.check_contains what (read_file (tmp "err")) needle)
        cases)
    [ ( "bad_action", "var n = 0\ntable w = [1]\n", "action w[n - 1] = 1",
        [ ([ "sim"; "--until"; "10" ], 1, "action of t failed");
          ([ "reach" ], 2, "action of transition t: Env.table_set");
          ([ "reach"; "--timed" ], 2, "action of transition t");
          ([ "reach"; "--por"; "off" ], 2, "action of transition t");
          ([ "cycle" ], 2, "action of transition t") ]
        @ simulating "action of t failed" );
      ( "bad_predicate", "var b = true\n", "predicate b + 1 > 0",
        [ ([ "sim"; "--until"; "10" ], 1,
           "predicate of t failed at t=0: operator + applied to a boolean");
          ([ "reach" ], 2, "predicate of transition t: operator +");
          ([ "reach"; "--timed" ], 2, "predicate of transition t");
          ([ "cycle" ], 2, "predicate of transition t") ]
        @ simulating "predicate of t failed" );
      ( "bad_delay", "table w = [1]\n", "firing expr(w[3])",
        [ ([ "sim"; "--until"; "10" ], 1,
           "firing time of t failed at t=0: Env.table_get");
          ([ "reach"; "--timed" ], 2, "firing time of transition t: Env.table_get");
          ([ "cycle" ], 2, "firing time of transition t") ]
        @ simulating "firing time of t failed" ) ]

let test_coverability_cli () =
  (* write an unbounded inhibitor-free model by hand *)
  let pump = tmp "pump.pn" in
  let oc = open_out pump in
  output_string oc
    "net pump\nplace p init 1\nplace q\ntransition t\n  in p\n  out p, q\n";
  close_out oc;
  let code, out = run [ "coverability"; pump ] in
  Alcotest.(check int) "unbounded exits 1" 1 code;
  Testutil.check_contains "verdict" out "bounded: false";
  Testutil.check_contains "culprit" out "unbounded places: q";
  (* the pipeline model has inhibitor arcs: outside the Karp-Miller
     fragment, so a specification error (exit 2) naming the feature *)
  let code, _ = run [ "coverability"; model_file ] in
  Alcotest.(check int) "rejection exits 2" 2 code;
  let err = read_file (tmp "err") in
  Testutil.check_contains "rejection names feature" err "inhibitor arcs";
  Testutil.check_contains "rejection names construction" err "Karp-Miller"

let test_budget_degradation () =
  (* an unbounded token generator: only a budget makes these terminate *)
  let pump = tmp "pump2.pn" in
  let oc = open_out pump in
  output_string oc
    "net pump\nplace p init 1\nplace q\ntransition t\n  in p\n  out p, q\n";
  close_out oc;
  (* reach under a wall budget: partial summary on stdout, exit 3 *)
  let code, out =
    run [ "reach"; pump; "--wall-limit"; "0.05"; "--max-states"; "100000000" ]
  in
  Alcotest.(check int) "reach degrades with exit 3" 3 code;
  Testutil.check_contains "partial summary" out "reachability graph";
  let err = read_file (tmp "err") in
  Testutil.check_contains "reason on stderr" err "wall-clock budget";
  Testutil.check_contains "progress on stderr" err "frontier";
  (* sim under a wall budget: partial stats, exit 3 *)
  let code, out =
    run [ "sim"; model_file; "--until"; "1e12"; "--wall-limit"; "0.05";
          "--stats" ]
  in
  Alcotest.(check int) "sim degrades with exit 3" 3 code;
  Testutil.check_contains "partial stats" out "RUN STATISTICS";
  (* a budget generous enough never to trip changes nothing *)
  let code, out =
    run [ "sim"; model_file; "--until"; "2000"; "--seed"; "42"; "--stats";
          "--wall-limit"; "300"; "--heap-limit-mb"; "4096" ]
  in
  Alcotest.(check int) "untripped budget exits 0" 0 code;
  let _, plain =
    run [ "sim"; model_file; "--until"; "2000"; "--seed"; "42"; "--stats" ]
  in
  Alcotest.(check string) "untripped budget output identical" plain out;
  (* analytic: the state cap stays a structured exit-2 rejection *)
  let code, _ = run [ "analytic"; pump; "--max-states"; "50" ] in
  Alcotest.(check int) "analytic cap exits 2" 2 code;
  let err = read_file (tmp "err") in
  Testutil.check_contains "rejection names the cap" err "max_states";
  (* bad budget values are usage errors *)
  let code, _ = run [ "sim"; model_file; "--wall-limit=-1" ] in
  Alcotest.(check int) "negative budget exits 2" 2 code

let test_explore () =
  let script = tmp "explore.in" in
  let oc = open_out script in
  output_string oc "show\nenabled\nfire Start_prefetch\nrun 50\nquit\n";
  close_out oc;
  let out_file = tmp "explore.out" in
  let cmd =
    Printf.sprintf "%s explore %s < %s > %s 2>&1"
      (Filename.quote pnut) (Filename.quote model_file)
      (Filename.quote script) (Filename.quote out_file)
  in
  Alcotest.(check int) "explore exit" 0 (Sys.command cmd);
  let out = read_file out_file in
  Testutil.check_contains "banner" out "exploring pipeline3";
  Testutil.check_contains "fireable" out "fireable: Start_prefetch";
  Testutil.check_contains "manual fire" out "fired Start_prefetch";
  Testutil.check_contains "run" out "ran to t=50"

let test_batch () =
  let out =
    check_run "batch"
      [ "batch"; trace_file; "--warmup"; "200"; "--batches"; "6";
        "--place"; "Bus_busy"; "--throughput"; "Issue" ]
  in
  Testutil.check_contains "place CI" out "Bus_busy mean tokens";
  Testutil.check_contains "throughput CI" out "Issue throughput";
  Testutil.check_contains "runs = batches" out "6 runs"

let test_cycle () =
  (* the prefetch model is deterministic: exact steady-cycle analysis *)
  let prefetch = tmp "prefetch_cycle.pn" in
  let _ = check_run "model prefetch" [ "model"; "prefetch"; "-o"; prefetch ] in
  let out = check_run "cycle" [ "cycle"; prefetch ] in
  Testutil.check_contains "period" out "period:    5";
  Testutil.check_contains "decode throughput" out "0.400000";
  (* actions run in the walk: [a] and [b] toggle x, period 1 + 2 *)
  let toggle = tmp "toggle_cycle.pn" in
  let oc = open_out toggle in
  output_string oc
    "net toggle\nvar x = 0\nplace p init 1\n\
     transition a\n  in p\n  out p\n  firing 1\n  predicate x == 0\n  action x = 1\n\
     transition b\n  in p\n  out p\n  firing 2\n  predicate x == 1\n  action x = 0\n";
  close_out oc;
  let out = check_run "cycle toggle" [ "cycle"; toggle ] in
  Testutil.check_contains "toggle period" out "period:    3";
  Testutil.check_contains "b fires" out "b                                         1     0.333333";
  let write name text =
    let path = tmp name in
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    path
  in
  (* single-server enabling clocks: [a] starts once every 3 *)
  let ring =
    write "ring2_cycle.pn"
      "net ring2\nplace p init 2\nplace q\n\
       transition a\n  in p\n  out q\n  enabling 3\n\
       transition b\n  in q\n  out p\n  enabling 1\n"
  in
  let out = check_run "cycle --marked-graph ring" [ "cycle"; ring; "--marked-graph" ] in
  Testutil.check_contains "RH80 cycle time" out "cycle time: 3";
  let out = check_run "cycle ring" [ "cycle"; ring ] in
  Testutil.check_contains "walker period" out "period:    3";
  let zero =
    write "zero_cycle.pn"
      "net zero\nplace p init 1\nplace q\n\
       transition a\n  in p\n  out q\ntransition b\n  in q\n  out p\n"
  in
  let code, out = run [ "cycle"; zero; "--marked-graph" ] in
  Alcotest.(check int) "zero-time livelock exit code" 1 code;
  Testutil.check_contains "zero-time livelock" out "zero-time livelock";
  (* the walker reports the same livelock instead of walking its bound *)
  let code, out = run [ "cycle"; zero ] in
  Alcotest.(check int) "walker livelock exit code" 1 code;
  Testutil.check_contains "walker livelock" out
    "zero-time livelock: time stops at 0"

let test_sim_checkpoint_resume () =
  (* an interrupted-and-resumed run must replay exactly what the
     uninterrupted run would have done *)
  let full_trace = tmp "full.trace" in
  let resumed_trace = tmp "resumed.trace" in
  let state = tmp "sim.ck" in
  let _ =
    check_run "uninterrupted"
      [ "sim"; model_file; "--until"; "600"; "--seed"; "5"; "--trace";
        full_trace ]
  in
  let _ =
    check_run "first half"
      [ "sim"; model_file; "--until"; "300"; "--seed"; "5"; "--save-state";
        state ]
  in
  Testutil.check_contains "checkpoint file" (read_file state)
    "%pnut-checkpoint 1";
  let _ =
    check_run "resumed"
      [ "sim"; model_file; "--load-state"; state; "--until"; "600"; "--trace";
        resumed_trace ]
  in
  let tail n text =
    let lines = String.split_on_char '\n' (String.trim text) in
    let len = List.length lines in
    List.filteri (fun i _ -> i >= len - n) lines
  in
  Testutil.check_contains "resumed horizon" (read_file resumed_trace) "end 600";
  Alcotest.(check (list string)) "identical trace tail"
    (tail 20 (read_file full_trace))
    (tail 20 (read_file resumed_trace))

(* A horizon before the clock is an input error (exit 2), not a trace
   that runs backwards: a negative horizon, and a resume at t=300 asked
   to stop at t=100.  Neither run reports a horizon. *)
let test_sim_past_horizon () =
  let state = tmp "past.ck" in
  let _ =
    check_run "first half"
      [ "sim"; model_file; "--until"; "300"; "--seed"; "5"; "--save-state";
        state ]
  in
  (* the horizon is refused before --trace creates its file *)
  let trace = tmp "past.trace" in
  List.iter
    (fun (what, args) ->
      if Sys.file_exists trace then Sys.remove trace;
      let code, _ = run args in
      Alcotest.(check int) (what ^ " exit code") 2 code;
      Testutil.check_contains what (read_file (tmp "err")) "is before the clock";
      Alcotest.(check bool) (what ^ ": no trace file") false
        (Sys.file_exists trace))
    [ ("negative horizon",
       [ "sim"; model_file; "--until=-5"; "--trace"; trace ]);
      ("restored past the horizon",
       [ "sim"; model_file; "--load-state"; state; "--until"; "100";
         "--trace"; trace ]) ]

let test_sim_explain_deadlock () =
  let dead = tmp "dead.pn" in
  let oc = open_out dead in
  output_string oc "net deadnet\nplace p\nplace q init 1\ntransition t\n  in p\n  out q\n";
  close_out oc;
  let code, _ =
    run [ "sim"; dead; "--until"; "10"; "--explain-deadlock" ]
  in
  Alcotest.(check int) "dead run still exits 0" 0 code;
  let err = read_file (tmp "err") in
  Testutil.check_contains "explains the blocker" err "t";
  Testutil.check_contains "names the empty place" err "p"

let test_bad_model_error () =
  let bad = tmp "bad.pn" in
  let oc = open_out bad in
  output_string oc "net broken\ntransition t\n  in nowhere\n";
  close_out oc;
  let code, _ = run [ "validate"; bad ] in
  Alcotest.(check int) "parse error exit" 2 code

let test_reach_max_states_zero () =
  (* a zero state cap is a usage error, untimed and timed alike — not
     an internal assertion or an uncaught Invalid_argument *)
  List.iter
    (fun extra ->
      let what = String.concat " " ("reach --max-states 0" :: extra) in
      let code, out =
        run ([ "reach"; model_file; "--max-states"; "0" ] @ extra)
      in
      Alcotest.(check int) (what ^ ": exit") 2 code;
      Alcotest.(check string) (what ^ ": no stdout") "" out;
      Testutil.check_contains (what ^ ": message") (read_file (tmp "err"))
        "--max-states must be positive")
    [ []; [ "--timed" ] ]

(* Every other builder's state cap below 1 is a usage error too, not a
   degraded run that records a state past the cap. *)
let test_max_states_below_one () =
  let pump = tmp "pump_cap.pn" and xpump = tmp "xpump_cap.pn" in
  let write path extra =
    let oc = open_out path in
    output_string oc
      ("net pump\nplace p init 1\nplace q\ntransition t\n  in p\n  out p, q\n"
      ^ extra);
    close_out oc
  in
  write pump "";
  write xpump "  enabling exponential(0.001)\n";
  List.iter
    (fun args ->
      let what = String.concat " " (List.hd args :: List.tl (List.tl args)) in
      let code, out = run args in
      Alcotest.(check int) (what ^ ": exit") 2 code;
      Alcotest.(check string) (what ^ ": no stdout") "" out;
      Testutil.check_contains (what ^ ": message") (read_file (tmp "err"))
        "max_states must be positive")
    [ [ "coverability"; pump; "--max-states=-5" ];
      [ "coverability"; pump; "--max-states=0" ];
      [ "dot"; pump; "--kind"; "coverability"; "--max-states=0" ];
      [ "dot"; pump; "--kind"; "reach"; "--max-states"; "0" ];
      [ "analytic"; xpump; "--max-states=0" ] ]

(* An arc list naming a place twice is one arc of the summed weight:
   [take] needs two tokens of [p], so it never fires from one. *)
let test_repeated_arcs () =
  let odd = tmp "odd.pn" and odd_trace = tmp "odd.trace" in
  let write init =
    let oc = open_out odd in
    Printf.fprintf oc
      "net odd\nplace p init %d\nplace q\ntransition take\n  in p, p\n  \
       out q\n"
      init;
    close_out oc
  in
  let started init =
    write init;
    let _ =
      check_run "sim"
        [ "sim"; odd; "--until"; "100"; "--trace"; odd_trace ]
    in
    check_run "stat" [ "stat"; odd_trace; "--tsv" ]
  in
  Testutil.check_contains "one token: never fires" (started 1)
    "transition\ttake\t0\t0\t";
  let reach = check_run "reach" [ "reach"; odd ] in
  Testutil.check_contains "one-state graph" reach "states: 1\n";
  Testutil.check_contains "two tokens: fires once" (started 2)
    "started\t1\tfinished\t1"

let test_model_is_directory () =
  List.iter
    (fun cmd ->
      let code, _ = run [ cmd; tmp_dir ] in
      Alcotest.(check int) (cmd ^ " DIR: exit") 2 code;
      Testutil.check_contains (cmd ^ " DIR: message") (read_file (tmp "err"))
        "is a directory")
    [ "reach"; "sim" ]

let () =
  if not (Sys.file_exists pnut) then begin
    (* the binary is declared as a dune dependency; this is a safeguard
       for running the test executable by hand from another directory *)
    print_endline "pnut binary not found; skipping CLI tests";
    exit 0
  end;
  Alcotest.run "cli"
    [
      ( "subcommands",
        [
          Alcotest.test_case "model" `Quick test_model_emit;
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "sim" `Quick test_sim_with_trace_and_stats;
          Alcotest.test_case "stat" `Quick test_stat_from_trace;
          Alcotest.test_case "filter" `Quick test_filter;
          Alcotest.test_case "piped pipeline" `Quick test_piped_pipeline;
          Alcotest.test_case "binary format" `Quick test_binary_format;
          Alcotest.test_case "binary pipeline" `Quick test_binary_pipeline;
          Alcotest.test_case "corrupt trace rejected" `Quick
            test_stat_rejects_corrupt_trace;
          Alcotest.test_case "out-of-range id rejected" `Quick
            test_out_of_range_id_rejected;
          Alcotest.test_case "tracer" `Quick test_tracer;
          Alcotest.test_case "tracer csv" `Quick test_tracer_csv;
          Alcotest.test_case "check" `Quick test_check_queries;
          Alcotest.test_case "unknown names" `Quick test_unknown_names;
          Alcotest.test_case "bad input exit codes" `Quick
            test_bad_input_exit_codes;
          Alcotest.test_case "reach" `Quick test_reach_and_ctl;
          Alcotest.test_case "reach query" `Quick test_reach_query;
          Alcotest.test_case "reach por" `Quick test_reach_por;
          Alcotest.test_case "timed reach" `Quick test_timed_reach;
          Alcotest.test_case "removed flags" `Quick test_removed_flags;
          Alcotest.test_case "reach unbounded packed" `Quick
            test_reach_unbounded_packed;
          Alcotest.test_case "dot reach digest" `Quick test_dot_reach_digest;
          Alcotest.test_case "model list" `Quick test_model_list;
          Alcotest.test_case "invariants" `Quick test_invariants;
          Alcotest.test_case "anim" `Quick test_anim;
          Alcotest.test_case "analytic" `Quick test_analytic;
          Alcotest.test_case "dot" `Quick test_dot;
          Alcotest.test_case "dot budget" `Quick test_dot_budget;
          Alcotest.test_case "replicate" `Quick test_replicate;
          Alcotest.test_case "replicate one sweep" `Quick
            test_replicate_one_sweep;
          Alcotest.test_case "bad delays" `Quick test_bad_delays;
          Alcotest.test_case "expression errors" `Quick test_expression_errors;
          Alcotest.test_case "coverability" `Quick test_coverability_cli;
          Alcotest.test_case "budget degradation" `Quick
            test_budget_degradation;
          Alcotest.test_case "explore" `Quick test_explore;
          Alcotest.test_case "batch" `Quick test_batch;
          Alcotest.test_case "cycle" `Quick test_cycle;
          Alcotest.test_case "sim checkpoint" `Quick test_sim_checkpoint_resume;
          Alcotest.test_case "sim past horizon" `Quick test_sim_past_horizon;
          Alcotest.test_case "sim explain deadlock" `Quick
            test_sim_explain_deadlock;
          Alcotest.test_case "bad model" `Quick test_bad_model_error;
          Alcotest.test_case "reach max-states 0" `Quick
            test_reach_max_states_zero;
          Alcotest.test_case "max-states below 1" `Quick
            test_max_states_below_one;
          Alcotest.test_case "model is a directory" `Quick
            test_model_is_directory;
          Alcotest.test_case "repeated arcs" `Quick test_repeated_arcs;
          Alcotest.test_case "timed reach rejects checks" `Quick
            test_timed_reach_rejects_checks;
        ] );
    ]
