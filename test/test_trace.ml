(* Tests for trace representation, codec round-trips, sinks and filtering. *)

module Trace = Pnut_trace.Trace
module Codec = Pnut_trace.Codec
module Binary = Pnut_trace.Binary
module Filter = Pnut_trace.Filter
module Value = Pnut_core.Value

let sample_header () =
  {
    Trace.h_net = "demo";
    h_places = [| "p"; "q"; "r" |];
    h_transitions = [| "t"; "u" |];
    h_initial = [| 2; 0; 1 |];
    h_variables = [ ("n", Value.Int 3); ("x", Value.Float 1.5); ("b", Value.Bool true) ];
  }

let sample_trace () =
  let d1 =
    {
      Trace.d_time = 1.0;
      d_kind = Trace.Fire_start;
      d_transition = 0;
      d_firing = 0;
      d_marking = [ (0, -1) ];
      d_env = [];
    }
  in
  let d2 =
    {
      Trace.d_time = 3.5;
      d_kind = Trace.Fire_end;
      d_transition = 0;
      d_firing = 0;
      d_marking = [ (1, 1) ];
      d_env = [ ("n", Value.Int 2) ];
    }
  in
  let d3 =
    {
      Trace.d_time = 4.0;
      d_kind = Trace.Fire_start;
      d_transition = 1;
      d_firing = 1;
      d_marking = [ (1, -1); (2, -1) ];
      d_env = [];
    }
  in
  Trace.make (sample_header ()) [ d1; d2; d3 ] 10.0

let test_accessors () =
  let tr = sample_trace () in
  Alcotest.(check int) "length" 3 (Trace.length tr);
  Alcotest.(check (float 0.0)) "final time" 10.0 (Trace.final_time tr);
  Alcotest.(check string) "net name" "demo" (Trace.header tr).Trace.h_net

let marking_after tr i = Trace.marking (Testutil.after tr i)

let test_states_reconstruction () =
  let tr = sample_trace () in
  let c = Trace.cursor (Trace.header tr) in
  Alcotest.(check (array int)) "initial" [| 2; 0; 1 |] (Trace.marking c);
  let d = Trace.deltas tr in
  Trace.emit (Trace.step c) d.(0);
  Alcotest.(check (float 0.0)) "time 1" 1.0 d.(0).Trace.d_time;
  Alcotest.(check (array int)) "after d1" [| 1; 0; 1 |] (Trace.marking c);
  Trace.emit (Trace.step c) d.(1);
  Trace.emit (Trace.step c) d.(2);
  Alcotest.(check (array int)) "after d3" [| 1; 0; 0 |] (Trace.marking c);
  Alcotest.(check (array int)) "after agrees" (Trace.marking c)
    (marking_after tr 3)

let test_marking_after_and_state_at () =
  let tr = sample_trace () in
  Alcotest.(check (array int)) "after 0" [| 2; 0; 1 |] (marking_after tr 0);
  Alcotest.(check (array int)) "after 2" [| 1; 1; 1 |] (marking_after tr 2);
  Alcotest.(check (array int)) "state at 2.0" [| 1; 0; 1 |]
    (Testutil.state_at tr 2.0);
  Alcotest.(check (array int)) "state at 3.5" [| 1; 1; 1 |]
    (Testutil.state_at tr 3.5);
  Alcotest.(check (array int)) "state before any delta" [| 2; 0; 1 |]
    (Testutil.state_at tr 0.5);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Testutil.after: index out of range") (fun () ->
      ignore (Testutil.after tr 9))

let env_after tr i = Pnut_core.Env.bindings (Trace.env (Testutil.after tr i))

let test_env_after () =
  let tr = sample_trace () in
  Alcotest.(check bool) "initial n" true
    (List.assoc "n" (env_after tr 0) = Value.Int 3);
  Alcotest.(check bool) "updated n" true
    (List.assoc "n" (env_after tr 2) = Value.Int 2);
  Alcotest.(check bool) "floats kept" true
    (List.assoc "x" (env_after tr 2) = Value.Float 1.5)

let test_in_flight_after () =
  let tr = sample_trace () in
  let in_flight_after i = Trace.in_flight (Testutil.after tr i) in
  Alcotest.(check (array int)) "none initially" [| 0; 0 |] (in_flight_after 0);
  Alcotest.(check (array int)) "t in flight" [| 1; 0 |] (in_flight_after 1);
  Alcotest.(check (array int)) "t done" [| 0; 0 |] (in_flight_after 2);
  Alcotest.(check (array int)) "u in flight" [| 0; 1 |] (in_flight_after 3)

let test_collector_and_replay () =
  let tr = sample_trace () in
  let sink, get = Trace.collector () in
  Trace.replay tr sink;
  let copy = get () in
  Alcotest.(check string) "replay reproduces" (Codec.to_string tr)
    (Codec.to_string copy)

let test_collector_incomplete () =
  let _, get = Trace.collector () in
  Alcotest.check_raises "no header"
    (Invalid_argument "Trace.collector: no header received") (fun () ->
      ignore (get ()))

let test_tee () =
  let tr = sample_trace () in
  let s1, get1 = Trace.collector () in
  let s2, get2 = Trace.collector () in
  Trace.replay tr (Trace.tee [ s1; s2 ]);
  Alcotest.(check string) "both sinks fed" (Codec.to_string (get1 ()))
    (Codec.to_string (get2 ()))

(* -- codec -- *)

let test_codec_roundtrip () =
  let tr = sample_trace () in
  let text = Codec.to_string tr in
  let back = Codec.parse text in
  Alcotest.(check string) "round trip" text (Codec.to_string back)

let test_codec_float_precision () =
  let header = { (sample_header ()) with Trace.h_variables = [] } in
  let d =
    {
      Trace.d_time = 0.1 +. 0.2;  (* not representable exactly *)
      d_kind = Trace.Fire_start;
      d_transition = 0;
      d_firing = 0;
      d_marking = [];
      d_env = [ ("v", Value.Float 1.0e-17) ];
    }
  in
  let tr = Trace.make header [ d ] 1000000.25 in
  let back = Codec.parse (Codec.to_string tr) in
  let d' = (Trace.deltas back).(0) in
  Alcotest.(check (float 0.0)) "time exact" (0.1 +. 0.2) d'.Trace.d_time;
  Alcotest.(check bool) "tiny float exact" true
    (List.assoc "v" d'.Trace.d_env = Value.Float 1.0e-17)

let test_codec_foreign_trace () =
  (* a hand-written trace, as a SIMSCRIPT-style external producer would
     emit (the paper stresses the format is tool-agnostic) *)
  let text =
    String.concat "\n"
      [
        "%pnut-trace 1";
        "net external";
        "place 0 queue 5";
        "transition 0 serve";
        "var load f0.5";
        "begin";
        "@ 2 S 0 0 ; 0:-1";
        "@ 4 E 0 0 ; 0:1 ; load=f0.75";
        "end 10";
      ]
  in
  let tr = Codec.parse text in
  Alcotest.(check int) "deltas" 2 (Trace.length tr);
  Alcotest.(check (array int)) "marking applies" [| 5 |] (marking_after tr 2);
  Alcotest.(check bool) "env parsed" true
    (List.assoc "load" (env_after tr 2) = Value.Float 0.75)

let test_codec_errors () =
  let expect_error text fragment =
    match Codec.parse text with
    | _ -> Alcotest.failf "expected parse error for %S" fragment
    | exception Codec.Parse_error (_, msg) ->
      Testutil.check_contains "message" msg fragment
  in
  expect_error "%pnut-trace 2\nnet x\nbegin\nend 1" "unsupported trace version";
  expect_error "net x\nbegin\n@ 1 Q 0 0\nend 1" "bad event kind";
  expect_error "net x\nbegin\nend 1\njunk" "unexpected body line";
  expect_error "net x\nbegin\n@ 1 S 0\nend 1" "bad delta header";
  expect_error "begin\nend 1" "missing net line";
  expect_error "net x\nbegin" "missing end line";
  expect_error "net x\nplace 1 late 0\nbegin\nend 1" "ids not contiguous"

let test_channel_sink_streams () =
  let tr = sample_trace () in
  let path = Filename.temp_file "pnut_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Trace.replay tr (Codec.channel_sink oc);
      close_out oc;
      let ic = open_in_bin path in
      let written = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "streaming write equals batch write"
        (Codec.to_string tr) written)

let sim_trace () =
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let tr, _ = Pnut_sim.Simulator.trace ~seed:3 ~until:300.0 net in
  tr

(* -- name escaping (regression: the text format used to alias names
   containing its own separators) -- *)

let adversarial_header () =
  {
    Trace.h_net = "net with spaces";
    h_places = [| "a b"; "c;d"; "e:f" |];
    h_transitions = [| "g=h"; "p%q"; "caf\xc3\xa9" |];
    h_initial = [| 2; 0; 1 |];
    h_variables = [ ("v w", Value.Int 3); ("x=y", Value.Float 0.5) ];
  }

let adversarial_trace () =
  let d =
    {
      Trace.d_time = 1.0;
      d_kind = Trace.Fire_end;
      d_transition = 0;
      d_firing = 0;
      d_marking = [ (0, -1); (1, 1) ];
      d_env = [ ("v w", Value.Int 4); ("x=y", Value.Float 1.5) ];
    }
  in
  Trace.make (adversarial_header ()) [ d ] 5.0

let check_header_equal what (a : Trace.header) (b : Trace.header) =
  Alcotest.(check string) (what ^ " net") a.Trace.h_net b.Trace.h_net;
  Alcotest.(check (array string)) (what ^ " places") a.Trace.h_places b.Trace.h_places;
  Alcotest.(check (array string)) (what ^ " transitions") a.Trace.h_transitions
    b.Trace.h_transitions

let test_codec_escapes_names () =
  let tr = adversarial_trace () in
  let back = Codec.parse (Codec.to_string tr) in
  check_header_equal "text" (Trace.header tr) (Trace.header back);
  let d = (Trace.deltas back).(0) in
  Alcotest.(check bool) "env names survive" true
    (List.assoc "v w" d.Trace.d_env = Value.Int 4
    && List.assoc "x=y" d.Trace.d_env = Value.Float 1.5);
  Alcotest.(check bool) "marking survives" true
    (d.Trace.d_marking = [ (0, -1); (1, 1) ])

let test_codec_empty_name_rejected () =
  let header = { (sample_header ()) with Trace.h_net = "" } in
  let tr = Trace.make header [] 1.0 in
  Alcotest.check_raises "empty name"
    (Invalid_argument "Codec: empty names cannot be written to a text trace")
    (fun () -> ignore (Codec.to_string tr))

let test_codec_bad_escape () =
  let expect_error text fragment =
    match Codec.parse text with
    | _ -> Alcotest.failf "expected parse error for %S" fragment
    | exception Codec.Parse_error (_, msg) ->
      Testutil.check_contains "message" msg fragment
  in
  expect_error "net x%ZZ\nbegin\nend 1" "bad escape digit";
  expect_error "net x%2\nbegin\nend 1" "truncated %-escape";
  (* a raw space in a name cannot parse as a well-formed header line *)
  expect_error "net x\nplace 0 my name 0\nbegin\nend 1" "unexpected header line"

(* -- binary codec -- *)

let test_binary_roundtrip () =
  let tr = sample_trace () in
  let bin = Binary.to_string tr in
  Alcotest.(check string) "magic" Binary.magic (String.sub bin 0 9);
  let back = Binary.parse bin in
  Alcotest.(check string) "round trip via text render" (Codec.to_string tr)
    (Codec.to_string back);
  (* non-integral time steps take the raw-double escape path *)
  let header = { (sample_header ()) with Trace.h_variables = [] } in
  let d =
    {
      Trace.d_time = 0.1 +. 0.2;
      d_kind = Trace.Fire_start;
      d_transition = 0;
      d_firing = 0;
      d_marking = [];
      d_env = [ ("v", Value.Float 1.0e-17) ];
    }
  in
  let tr = Trace.make header [ d ] 1000000.25 in
  let back = Binary.parse (Binary.to_string tr) in
  let d' = (Trace.deltas back).(0) in
  Alcotest.(check (float 0.0)) "escape-path time exact" (0.1 +. 0.2)
    d'.Trace.d_time;
  Alcotest.(check bool) "tiny float exact" true
    (List.assoc "v" d'.Trace.d_env = Value.Float 1.0e-17)

let test_binary_adversarial_names () =
  let tr = adversarial_trace () in
  let back = Binary.parse (Binary.to_string tr) in
  check_header_equal "binary" (Trace.header tr) (Trace.header back);
  (* the binary format is length-prefixed, so even an empty name (which
     the text codec must reject) survives *)
  let header = { (sample_header ()) with Trace.h_net = "" } in
  let tr = Trace.make header [] 1.0 in
  Alcotest.(check string) "empty name round-trips" ""
    (Trace.header (Binary.parse (Binary.to_string tr))).Trace.h_net

let test_binary_cross_conversion () =
  let tr = sim_trace () in
  let via_binary = Binary.parse (Binary.to_string tr) in
  Alcotest.(check string) "text(trace) = text(binary round trip)"
    (Codec.to_string tr) (Codec.to_string via_binary);
  Alcotest.(check bool) "binary is much smaller" true
    (2 * String.length (Binary.to_string tr)
    < String.length (Codec.to_string tr))

let test_binary_errors () =
  let expect_error bytes fragment =
    match Binary.parse bytes with
    | _ -> Alcotest.failf "expected binary parse error for %s" fragment
    | exception Binary.Parse_error (_, msg) ->
      Testutil.check_contains "message" msg fragment
  in
  expect_error "not binary at all" "bad magic";
  expect_error (Binary.magic ^ "\x02") "unsupported binary trace version";
  let good = Binary.to_string (sample_trace ()) in
  expect_error (String.sub good 0 (String.length good - 3))
    "unexpected end of binary trace"

let test_auto_detection () =
  let tr = sample_trace () in
  let via tmp contents =
    let oc = open_out_bin tmp in
    output_string oc contents;
    close_out oc;
    let ic = open_in_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Codec.read_channel ic)
  in
  let tmp = Filename.temp_file "pnut_trace" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let from_bin = via tmp (Binary.to_string tr) in
      let from_text = via tmp (Codec.to_string tr) in
      Alcotest.(check string) "binary detected" (Codec.to_string tr)
        (Codec.to_string from_bin);
      Alcotest.(check string) "text detected" (Codec.to_string tr)
        (Codec.to_string from_text))

(* -- pinned bytes: the codecs were rewritten without Printf, and these
   digests were recorded before the rewrite -- *)

let with_temp f =
  let path = Filename.temp_file "pnut_pin" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let simulate_to path sink_of =
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  Out_channel.with_open_bin path (fun oc ->
      let sim = Pnut_sim.Simulator.create ~seed:7 ~sink:(sink_of oc) net in
      ignore (Pnut_sim.Simulator.run ~until:5000.0 sim))

let test_pinned_bytes () =
  let md5 path = Digest.to_hex (Digest.file path) in
  with_temp (fun text ->
      with_temp (fun bin ->
          with_temp (fun filtered ->
              simulate_to text Codec.channel_sink;
              simulate_to bin Binary.channel_sink;
              (* the Figure-5 filter, reading the binary trace back *)
              let spec =
                Filter.make_spec
                  ~places:[ "Bus_busy"; "Bus_free"; "pre_fetching"; "fetching";
                            "storing"; "Full_I_buffers" ]
                  ~transitions:[ "Issue" ] ()
              in
              Out_channel.with_open_bin filtered (fun oc ->
                  In_channel.with_open_bin bin (fun ic ->
                      Codec.stream_channel ic (Filter.sink spec (Codec.channel_sink oc))));
              Alcotest.(check string) "text trace" "1a48c59541bbca104ff90ae378fd4148"
                (md5 text);
              Alcotest.(check string) "binary trace" "b02b9835dcba721241b8b6ea3681f7ff"
                (md5 bin);
              Alcotest.(check string) "filtered text" "521497133d30184f215413c20f5cd68d"
                (md5 filtered);
              let decoded = In_channel.with_open_bin text Codec.read_channel in
              Alcotest.(check string) "text decodes back to its bytes"
                (In_channel.with_open_bin text In_channel.input_all)
                (Codec.to_string decoded))))

(* The streamed Figure-5 path hands every reader, filter and fold one
   reused view: a delta costs no boxed record, marking list or boxed
   float, only its share of the per-stream setup.  The bounds are the
   measured per-delta figures (0.4 and 0.3 words) with headroom; a
   fresh record per delta costs 66 and 46. *)
let stat_words_per_delta = 1.5
let filter_words_per_delta = 1.5

let test_allocation_pin () =
  with_temp (fun text ->
      with_temp (fun bin ->
          with_temp (fun filtered ->
              simulate_to text Codec.channel_sink;
              simulate_to bin Binary.channel_sink;
              let deltas = Trace.length (In_channel.with_open_bin bin Codec.read_channel) in
              let stat_words =
                Testutil.minor_words_of (fun () ->
                    In_channel.with_open_bin text (fun ic ->
                        let sink, get = Pnut_stat.Stat.sink () in
                        Codec.stream_channel ic sink;
                        ignore (get () : Pnut_stat.Stat.report)))
              in
              let spec =
                Filter.make_spec
                  ~places:[ "Bus_busy"; "Bus_free"; "pre_fetching"; "fetching";
                            "storing"; "Full_I_buffers" ]
                  ~transitions:[ "Issue" ] ()
              in
              let filter_words =
                Testutil.minor_words_of (fun () ->
                    Out_channel.with_open_bin filtered (fun oc ->
                        In_channel.with_open_bin bin (fun ic ->
                            Codec.stream_channel ic
                              (Filter.sink spec (Codec.channel_sink oc)))))
              in
              let per words = words /. float_of_int deltas in
              Alcotest.(check bool) "a few thousand deltas" true (deltas > 1000);
              Alcotest.(check bool)
                (Printf.sprintf "text into Stat.sink: %.1f words/delta <= %g"
                   (per stat_words) stat_words_per_delta)
                true (per stat_words <= stat_words_per_delta);
              Alcotest.(check bool)
                (Printf.sprintf "binary through Filter.sink to text: %.1f words/delta <= %g"
                   (per filter_words) filter_words_per_delta)
                true (per filter_words <= filter_words_per_delta))))

(* The float printer before integral floats got their own path. *)
let oracle_float_str f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let test_float_str_cases () =
  List.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "%h" f) (oracle_float_str f)
        (Codec.float_str f))
    [ -0.; 0.; 1e12 -. 1.; -.(1e12 -. 1.); 1e12; -1e12; 0x1p53; 0x1p53 +. 2.;
      Float.nan; Float.infinity; Float.neg_infinity; 0x0.0000000000001p-1022;
      0.1 +. 0.2 ]

let prop_float_str =
  QCheck2.Test.make ~name:"float_str prints what %.12g/%.17g printed" ~count:2000
    QCheck2.Gen.(
      oneof
        [ float; map Int64.float_of_bits int64;
          map float_of_int (int_range (-2_000_000_000_000) 2_000_000_000_000);
          map (fun i -> float_of_int i /. 8.) (int_range (-1_000_000) 1_000_000) ])
    (fun f -> String.equal (oracle_float_str f) (Codec.float_str f))

(* -- decoder grammar -- *)

let one_place_header = "net x\nplace 0 p 1\ntransition 0 t\nbegin\n"

let expect_text_error body fragment =
  match Codec.parse (one_place_header ^ body ^ "\nend 9") with
  | _ -> Alcotest.failf "expected a parse error for %S" body
  | exception Codec.Parse_error (_, msg) -> Testutil.check_contains body msg fragment

let expect_binary_error deltas fragment =
  let header =
    { (sample_header ()) with
      Trace.h_places = [| "p" |]; h_transitions = [| "t" |]; h_initial = [| 1 |] }
  in
  match Binary.parse (Binary.to_string (Trace.make header deltas 9.0)) with
  | _ -> Alcotest.failf "expected a binary parse error: %s" fragment
  | exception Binary.Parse_error (_, msg) -> Testutil.check_contains fragment msg fragment

let delta ?(marking = []) tid =
  { Trace.d_time = 1.0; d_kind = Trace.Fire_start; d_transition = tid; d_firing = 0;
    d_marking = marking; d_env = [] }

let test_integer_grammar () =
  expect_text_error "@ 1 S 0 0 ; 4611686018427387904:1" "integer out of range";
  expect_text_error "@ 1 S 0 0 ; 99999999999999999999:1" "integer out of range";
  expect_text_error "@ 1 S 0 0 ; 0:4611686018427387904" "integer out of range";
  expect_text_error "@ 1 S 0 0 ; 0:-4611686018427387905" "integer out of range";
  expect_text_error "@ 1 S 0 0x10" "expected integer, got 0x10";
  expect_text_error "@ 1 S 0 0 ; 1_0:1" "expected integer, got 1_0";
  expect_text_error "@ 1 S 0 0 ; 0:+1" "expected integer, got +1";
  expect_text_error "@ 1 S 0 -" "expected integer";
  (match Codec.parse "net x\nplace 0 p +1\nbegin\nend 1" with
  | _ -> Alcotest.fail "a '+' sign in a header integer was accepted"
  | exception Codec.Parse_error (_, msg) ->
    Testutil.check_contains "header" msg "expected integer, got +1");
  let tr = Codec.parse (one_place_header ^ "@ 1 S 0 0 ; 0:-4611686018427387904\nend 9") in
  Alcotest.(check (list (pair int int))) "min_int reads" [ (0, min_int) ]
    (Trace.deltas tr).(0).Trace.d_marking

let test_out_of_range_ids () =
  expect_text_error "@ 1 S 7 0" "transition id 7 out of range [0, 1)";
  expect_text_error "@ 1 S -1 0" "transition id -1 out of range [0, 1)";
  expect_text_error "@ 1 S 0 0\n@ 2 E 0 0 ; 5:1" "place id 5 out of range [0, 1)";
  expect_binary_error [ delta 7 ] "transition id 7 out of range [0, 1)";
  expect_binary_error [ delta 0 ~marking:[ (5, 1) ] ] "place id 5 out of range [0, 1)"

(* Spellings the rewritten parser must read exactly as before. *)
let test_parser_parity () =
  let header = "%pnut-trace 1\n" ^ one_place_header in
  let canonical =
    header ^ "@ 1 S 0 0 ; 0:-1\n@ 2 E 0 0\n@ 2.5 E 0 1 ; 0:1 ; v=i-3\nend 9\n"
  in
  let parses_as variant =
    Alcotest.(check string) (String.escaped variant) canonical
      (Codec.to_string (Codec.parse variant))
  in
  parses_as canonical;
  parses_as (String.concat "\r\n" (String.split_on_char '\n' canonical));
  parses_as
    (header ^ "@ 1 S 0 0 ; 0:-1\n@ 2 E 0 0 ;\n@ 2.5 E 0 1 ; 0:1 ; v=i-3 ;\nend 9\n");
  parses_as
    (header
    ^ "@  1   S  0    0   ;   0:-1  \n@ 2  E 0 0\n@   2.5 E  0 1;0:1;  v=i-3\nend   9\n");
  (* the truncated-binary offset, as recorded before the buffered reader *)
  let good = Binary.to_string (sample_trace ()) in
  let cut = String.sub good 0 (String.length good - 3) in
  (match Binary.parse cut with
  | _ -> Alcotest.fail "truncated binary accepted"
  | exception Binary.Parse_error (off, _) -> Alcotest.(check int) "offset" 82 off);
  with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc cut);
      match In_channel.with_open_bin path Codec.read_channel with
      | _ -> Alcotest.fail "truncated binary accepted"
      | exception Binary.Parse_error (off, _) ->
        Alcotest.(check int) "offset after auto-detection" 81 off)

(* -- filter -- *)

let test_filter_identity () =
  let tr = sample_trace () in
  let filtered = Filter.apply Filter.all tr in
  Alcotest.(check string) "identity" (Codec.to_string tr)
    (Codec.to_string filtered)

let test_filter_places_renumbered () =
  let tr = sample_trace () in
  let spec = Filter.make_spec ~places:[ "q" ] ~transitions:[ "t"; "u" ] () in
  let filtered = Filter.apply spec tr in
  let h = Trace.header filtered in
  Alcotest.(check (array string)) "only q" [| "q" |] h.Trace.h_places;
  Alcotest.(check (array int)) "initial renumbered" [| 0 |] h.Trace.h_initial;
  (* marking changes now reference the renumbered place 0 *)
  let d2 = (Trace.deltas filtered).(1) in
  Alcotest.(check bool) "delta remapped" true (d2.Trace.d_marking = [ (0, 1) ])

let test_filter_drops_empty_deltas () =
  let tr = sample_trace () in
  (* keep only place r and transition u: d1/d2 (about t, p, q) vanish
     except d2's... d2 touches q only, so it is dropped entirely *)
  let spec = Filter.make_spec ~places:[ "r" ] ~transitions:[ "u" ] ~vars:false () in
  let filtered = Filter.apply spec tr in
  Alcotest.(check int) "only u's delta remains" 1 (Trace.length filtered)

let test_filter_orphan_attribution () =
  let tr = sample_trace () in
  (* keep place q but drop all transitions: q's changes must survive,
     attributed to the _filtered pseudo-transition *)
  let spec = Filter.make_spec ~places:[ "q" ] ~transitions:[] () in
  let filtered = Filter.apply spec tr in
  let h = Trace.header filtered in
  Alcotest.(check bool) "_filtered present" true
    (Array.exists (fun n -> n = "_filtered") h.Trace.h_transitions);
  Alcotest.(check bool) "q signal exact" true
    (marking_after filtered (Trace.length filtered) = [| 0 |])

let test_filter_preserves_place_signals () =
  let tr = sim_trace () in
  let spec = Filter.make_spec ~places:[ "Bus_busy" ] ~transitions:[] () in
  let filtered = Filter.apply spec tr in
  (* the Bus_busy time series must be identical before and after *)
  let busy_before =
    let h = Trace.header tr in
    let rec find i = if h.Trace.h_places.(i) = "Bus_busy" then i else find (i + 1) in
    find 0
  in
  let samples = [ 0.0; 10.0; 55.5; 100.0; 250.0 ] in
  List.iter
    (fun t ->
      Alcotest.(check int)
        (Printf.sprintf "Bus_busy at %g" t)
        (Testutil.state_at tr t).(busy_before)
        (Testutil.state_at filtered t).(0))
    samples;
  (* and the filtered trace is much smaller *)
  Alcotest.(check bool) "smaller" true
    (String.length (Codec.to_string filtered)
    < String.length (Codec.to_string tr))

let test_filter_balanced_accounting () =
  (* regression: orphaned deltas used to keep their original S/E kinds,
     so [_filtered] could see an E with no matching S and stat reported
     negative concurrency *)
  let tr = sim_trace () in
  let spec = Filter.make_spec ~transitions:[ "Start_memory" ] () in
  let filtered = Filter.apply spec tr in
  let report = Pnut_stat.Stat.of_trace filtered in
  let other = Pnut_stat.Stat.transition report "_filtered" in
  Alcotest.(check bool) "concurrency never negative" true
    (other.Pnut_stat.Stat.ts_min >= 0);
  Alcotest.(check int) "starts balance ends" other.Pnut_stat.Stat.ts_starts
    other.Pnut_stat.Stat.ts_ends;
  (* place signals are still exact *)
  let h = Trace.header tr in
  let bus =
    let rec find i = if h.Trace.h_places.(i) = "Bus_busy" then i else find (i + 1) in
    find 0
  in
  let bus' =
    let h' = Trace.header filtered in
    let rec find i = if h'.Trace.h_places.(i) = "Bus_busy" then i else find (i + 1) in
    find 0
  in
  List.iter
    (fun t ->
      Alcotest.(check int)
        (Printf.sprintf "Bus_busy at %g" t)
        (Testutil.state_at tr t).(bus)
        (Testutil.state_at filtered t).(bus'))
    [ 0.0; 42.0; 133.5; 299.0 ]

let test_filter_streaming_matches_batch () =
  let tr = sim_trace () in
  let spec =
    Filter.make_spec ~places:[ "Bus_busy"; "Bus_free" ]
      ~transitions:[ "Start_prefetch"; "End_prefetch" ] ()
  in
  let sink, get = Trace.collector () in
  Trace.replay tr (Filter.sink spec sink);
  Alcotest.(check string) "streaming = batch"
    (Codec.to_string (Filter.apply spec tr))
    (Codec.to_string (get ()))

(* property: codec round-trips arbitrary well-formed traces *)
let gen_trace =
  QCheck2.Gen.(
    let gen_delta =
      map2
        (fun time bits ->
          {
            Trace.d_time = float_of_int time;
            d_kind = (if bits land 1 = 0 then Trace.Fire_start else Trace.Fire_end);
            d_transition = (bits lsr 1) land 1;
            d_firing = bits lsr 2;
            d_marking = [ (bits mod 3, (bits mod 5) - 2) ];
            d_env = (if bits land 4 = 0 then [] else [ ("v", Value.Int bits) ]);
          })
        (int_range 0 100) (int_range 0 63)
    in
    map (fun deltas ->
        let sorted =
          List.sort (fun a b -> Float.compare a.Trace.d_time b.Trace.d_time) deltas
        in
        Trace.make (sample_header ()) sorted 200.0)
      (list_size (int_range 0 40) gen_delta))

let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"codec round-trips arbitrary traces" ~count:100
    gen_trace (fun tr ->
      let text = Codec.to_string tr in
      String.equal text (Codec.to_string (Codec.parse text)))

(* property: both codecs round-trip traces whose names are built from the
   format's own separators and other adversarial bytes *)
let gen_adversarial_trace =
  QCheck2.Gen.(
    let fragment =
      oneofl
        [ "a"; " "; ";"; ":"; "="; "%"; "%2"; "@"; "#"; "\t"; "caf\xc3\xa9";
          "end"; "place" ]
    in
    let gen_name =
      map (fun parts -> String.concat "" parts)
        (list_size (int_range 1 4) fragment)
    in
    let gen_delta name =
      map2
        (fun time bits ->
          {
            Trace.d_time = float_of_int time /. 4.0;
            d_kind = (if bits land 1 = 0 then Trace.Fire_start else Trace.Fire_end);
            d_transition = bits land 1;
            d_firing = bits lsr 2;
            d_marking = (if bits land 2 = 0 then [] else [ (bits mod 2, (bits mod 5) - 2) ]);
            d_env = (if bits land 4 = 0 then [] else [ (name, Value.Int bits) ]);
          })
        (int_range 0 400) (int_range 0 63)
    in
    gen_name >>= fun vname ->
    map2
      (fun names deltas ->
        let header =
          match names with
          | [ net; p1; p2; t1; t2 ] ->
            {
              Trace.h_net = net;
              h_places = [| p1; p2 |];
              h_transitions = [| t1; t2 |];
              h_initial = [| 1; 0 |];
              h_variables = [ (vname, Value.Int 0) ];
            }
          | _ -> assert false
        in
        let sorted =
          List.sort (fun a b -> Float.compare a.Trace.d_time b.Trace.d_time)
            deltas
        in
        Trace.make header sorted 200.0)
      (list_repeat 5 gen_name)
      (list_size (int_range 0 30) (gen_delta vname)))

let structurally_equal a b =
  Trace.header a = Trace.header b
  && Trace.deltas a = Trace.deltas b
  && Float.equal (Trace.final_time a) (Trace.final_time b)

let prop_codec_adversarial_names =
  QCheck2.Test.make ~name:"text codec round-trips adversarial names" ~count:200
    gen_adversarial_trace (fun tr ->
      structurally_equal tr (Codec.parse (Codec.to_string tr)))

let prop_binary_adversarial_names =
  QCheck2.Test.make ~name:"binary codec round-trips adversarial names"
    ~count:200 gen_adversarial_trace (fun tr ->
      structurally_equal tr (Binary.parse (Binary.to_string tr)))

let prop_cross_conversion =
  QCheck2.Test.make ~name:"text and binary agree on every trace" ~count:200
    gen_adversarial_trace (fun tr ->
      String.equal
        (Codec.to_string (Codec.parse (Codec.to_string tr)))
        (Codec.to_string (Binary.parse (Binary.to_string tr))))

(* property: every decoder, the filter and the collector treat the
   reused view as read-only and keep nothing of it.  The traces repeat
   markings per transition and kind (binary dictionary back-references)
   and carry variable updates, so a consumer that kept or changed a
   shared array would corrupt a later delta. *)
let gen_aliasing_trace =
  QCheck2.Gen.(
    let markings =
      [| []; [ (0, -1) ]; [ (0, -1); (1, 1) ]; [ (1, 2); (2, -1); (0, 1) ] |]
    in
    let values = [| Value.Int 1; Value.Float 0.5; Value.Bool false |] in
    let gen_delta =
      map3
        (fun time bits env_n ->
          {
            Trace.d_time = float_of_int time /. 4.0;
            d_kind = (if bits land 1 = 0 then Trace.Fire_start else Trace.Fire_end);
            d_transition = (bits lsr 1) land 1;
            d_firing = bits lsr 3;
            d_marking = markings.((bits lsr 2) land 3);
            d_env = List.init env_n (fun k -> ([| "n"; "x"; "b" |].(k), values.((bits + k) mod 3)));
          })
        (int_range 0 400) (int_range 0 255) (int_range 0 3)
    in
    map
      (fun deltas ->
        (* every delta twice in a row: same transition, kind and marking *)
        let deltas = List.concat_map (fun d -> [ d; d ]) deltas in
        Trace.make (sample_header ())
          (List.stable_sort (fun a b -> Float.compare a.Trace.d_time b.Trace.d_time) deltas)
          200.0)
      (list_size (int_range 0 30) gen_delta))

let prop_view_not_kept =
  QCheck2.Test.make ~name:"codecs, filter and collector keep no view" ~count:200
    gen_aliasing_trace (fun tr ->
      let spec = Filter.make_spec ~places:[ "p"; "r" ] ~transitions:[ "t" ] () in
      List.for_all
        (fun writer ->
          let path = Filename.temp_file "pnut_alias" ".trace" in
          Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
              let written, get_written = Trace.collector () in
              Out_channel.with_open_bin path (fun oc ->
                  Trace.replay tr (Trace.tee [ written; writer oc ]));
              let decoded, get_decoded = Trace.collector () in
              let filtered, get_filtered = Trace.collector () in
              In_channel.with_open_bin path (fun ic ->
                  Codec.stream_channel ic
                    (Trace.tee [ decoded; Filter.sink spec filtered ]));
              structurally_equal tr (get_written ())
              && structurally_equal tr (get_decoded ())
              && structurally_equal (Filter.apply spec tr) (get_filtered ())))
        [ Codec.channel_sink; Binary.channel_sink ])

(* A header binding a variable twice has no initial state; both readers
   reject it as malformed input. *)
let duplicate_variable_trace () =
  Trace.make
    { (sample_header ()) with
      Trace.h_variables =
        [ ("n", Value.Int 1); ("x", Value.Int 2); ("n", Value.Int 3) ] }
    [] 5.0

let test_codec_duplicate_variable () =
  match Codec.parse (Codec.to_string (duplicate_variable_trace ())) with
  | _ -> Alcotest.fail "duplicate variable accepted"
  | exception Codec.Parse_error (line, msg) ->
    Alcotest.(check string) "message" "duplicate variable n" msg;
    (* the second [var n] line, after the version, net, 3 place and 2
       transition lines and the first two variables *)
    Alcotest.(check int) "line" 10 line

let test_binary_duplicate_variable () =
  match Binary.parse (Binary.to_string (duplicate_variable_trace ())) with
  | _ -> Alcotest.fail "duplicate variable accepted"
  | exception Binary.Parse_error (_, msg) ->
    Alcotest.(check string) "message" "duplicate variable n" msg

let () =
  Alcotest.run "trace"
    [
      ( "core",
        [
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "state reconstruction" `Quick test_states_reconstruction;
          Alcotest.test_case "marking_after/state_at" `Quick
            test_marking_after_and_state_at;
          Alcotest.test_case "env_after" `Quick test_env_after;
          Alcotest.test_case "in_flight_after" `Quick test_in_flight_after;
          Alcotest.test_case "collector" `Quick test_collector_and_replay;
          Alcotest.test_case "collector incomplete" `Quick test_collector_incomplete;
          Alcotest.test_case "tee" `Quick test_tee;
        ] );
      ( "codec",
        [
          Alcotest.test_case "round trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "float precision" `Quick test_codec_float_precision;
          Alcotest.test_case "foreign producer" `Quick test_codec_foreign_trace;
          Alcotest.test_case "errors" `Quick test_codec_errors;
          Alcotest.test_case "streaming writer" `Quick test_channel_sink_streams;
          Alcotest.test_case "name escaping" `Quick test_codec_escapes_names;
          Alcotest.test_case "empty name rejected" `Quick
            test_codec_empty_name_rejected;
          Alcotest.test_case "bad escapes" `Quick test_codec_bad_escape;
          Alcotest.test_case "pinned bytes" `Quick test_pinned_bytes;
          Alcotest.test_case "allocation pin" `Quick test_allocation_pin;
          Alcotest.test_case "float_str cases" `Quick test_float_str_cases;
          Alcotest.test_case "integer grammar" `Quick test_integer_grammar;
          Alcotest.test_case "out-of-range ids" `Quick test_out_of_range_ids;
          Alcotest.test_case "parser parity" `Quick test_parser_parity;
          Alcotest.test_case "duplicate variable" `Quick
            test_codec_duplicate_variable;
        ] );
      ( "binary",
        [
          Alcotest.test_case "round trip" `Quick test_binary_roundtrip;
          Alcotest.test_case "adversarial names" `Quick
            test_binary_adversarial_names;
          Alcotest.test_case "cross conversion" `Quick
            test_binary_cross_conversion;
          Alcotest.test_case "errors" `Quick test_binary_errors;
          Alcotest.test_case "auto-detection" `Quick test_auto_detection;
          Alcotest.test_case "duplicate variable" `Quick
            test_binary_duplicate_variable;
        ] );
      ( "filter",
        [
          Alcotest.test_case "identity" `Quick test_filter_identity;
          Alcotest.test_case "renumbering" `Quick test_filter_places_renumbered;
          Alcotest.test_case "drops empty deltas" `Quick test_filter_drops_empty_deltas;
          Alcotest.test_case "orphan attribution" `Quick test_filter_orphan_attribution;
          Alcotest.test_case "place signals preserved" `Quick
            test_filter_preserves_place_signals;
          Alcotest.test_case "balanced accounting" `Quick
            test_filter_balanced_accounting;
          Alcotest.test_case "streaming matches batch" `Quick
            test_filter_streaming_matches_batch;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_codec_adversarial_names;
          QCheck_alcotest.to_alcotest prop_binary_adversarial_names;
          QCheck_alcotest.to_alcotest prop_cross_conversion;
          QCheck_alcotest.to_alcotest prop_float_str;
          QCheck_alcotest.to_alcotest prop_view_not_kept;
        ] );
    ]
