(* Tests of the telemetry subsystem: span nesting and ordering, metric
   merging across pool domains, exporter validity (the Chrome trace and
   metrics JSON are parsed back), the zero-overhead disabled path, and
   the invariant the whole design rests on — [Detector.analyze] output
   is identical with telemetry on and off. *)

module Obs = Droidracer_obs.Obs
module Par_pool = Droidracer_core.Par_pool
module Detector = Droidracer_core.Detector
module Runtime = Droidracer_appmodel.Runtime
module Synthetic = Droidracer_corpus.Synthetic
module Catalog = Droidracer_corpus.Catalog

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool
let check_string = Alcotest.check Alcotest.string

(* Every test leaves the subsystem disabled and empty, so suites cannot
   leak telemetry into each other. *)
let with_telemetry f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:(fun () ->
    Obs.disable ();
    Obs.reset ())
    f

(* {1 Spans} *)

let test_span_nesting () =
  with_telemetry @@ fun () ->
  let v =
    Obs.with_span "outer" (fun () ->
      Obs.with_span "inner" (fun () -> ());
      Obs.with_span "inner" (fun () -> ());
      17)
  in
  check_int "with_span is transparent" 17 v;
  let snap = Obs.snapshot () in
  let paths = List.map (fun s -> s.Obs.sp_path) snap.Obs.spans in
  check_int "three spans recorded" 3 (List.length paths);
  check_int "two nested instances" 2
    (List.length (List.filter (( = ) [ "outer"; "inner" ]) paths));
  check_int "one root" 1 (List.length (List.filter (( = ) [ "outer" ]) paths));
  let outer =
    List.find (fun s -> s.Obs.sp_path = [ "outer" ]) snap.Obs.spans
  in
  List.iter
    (fun s ->
       if s.Obs.sp_path <> [ "outer" ] then begin
         check_bool "child starts after parent" true
           (s.Obs.sp_start_ns >= outer.Obs.sp_start_ns);
         check_bool "child is contained in parent" true
           (Int64.add s.Obs.sp_start_ns s.Obs.sp_dur_ns
            <= Int64.add outer.Obs.sp_start_ns outer.Obs.sp_dur_ns)
       end)
    snap.Obs.spans;
  (* the snapshot is sorted by start time *)
  let starts = List.map (fun s -> s.Obs.sp_start_ns) snap.Obs.spans in
  check_bool "spans sorted by start" true (List.sort compare starts = starts)

let test_span_args_and_exceptions () =
  with_telemetry @@ fun () ->
  (match
     Obs.with_span "failing" (fun () ->
       Obs.set_span_arg "detail" "boom";
       failwith "expected")
   with
   | () -> Alcotest.fail "exception swallowed"
   | exception Failure msg -> check_string "exception passed through" "expected" msg);
  let snap = Obs.snapshot () in
  match snap.Obs.spans with
  | [ s ] ->
    check_string "span closed despite raise" "failing" s.Obs.sp_name;
    check_string "arg recorded" "boom" (List.assoc "detail" s.Obs.sp_args)
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

let test_disabled_is_noop () =
  Obs.disable ();
  Obs.reset ();
  Obs.with_span "ghost" (fun () -> Obs.add "ghost.counter");
  Obs.observe "ghost.hist" 1.0;
  Obs.set_gauge "ghost.gauge" 1.0;
  let snap = Obs.snapshot () in
  check_int "no spans" 0 (List.length snap.Obs.spans);
  check_int "no counters" 0 (List.length snap.Obs.counters);
  check_int "no gauges" 0 (List.length snap.Obs.gauges);
  check_int "no histograms" 0 (List.length snap.Obs.histograms)

(* {1 Merging across domains} *)

let test_counter_merge_across_domains () =
  with_telemetry @@ fun () ->
  let results =
    Par_pool.parallel_map ~jobs:4
      (fun i ->
         Obs.add "merge.ticks";
         Obs.add ~n:i "merge.weighted";
         Obs.observe "merge.sample" (float_of_int i);
         i)
      (List.init 200 (fun i -> i))
  in
  check_int "map unaffected by instrumentation" 200 (List.length results);
  let snap = Obs.snapshot () in
  let counter name =
    Option.value (List.assoc_opt name snap.Obs.counters) ~default:0
  in
  check_int "per-domain counters sum exactly" 200 (counter "merge.ticks");
  check_int "weighted counter sums exactly" (199 * 200 / 2)
    (counter "merge.weighted");
  match List.assoc_opt "merge.sample" snap.Obs.histograms with
  | None -> Alcotest.fail "histogram lost in merge"
  | Some h ->
    check_int "histogram count" 200 h.Obs.h_count;
    Alcotest.check (Alcotest.float 1e-6) "histogram sum"
      (float_of_int (199 * 200 / 2))
      h.Obs.h_sum;
    Alcotest.check (Alcotest.float 1e-6) "histogram min" 0.0 h.Obs.h_min;
    Alcotest.check (Alcotest.float 1e-6) "histogram max" 199.0 h.Obs.h_max

(* {1 Exporters} *)

let corpus_trace =
  lazy
    (let spec = List.nth Catalog.open_source 0 in
     let b = Synthetic.build spec in
     (Runtime.run ~options:b.Synthetic.b_options b.Synthetic.b_app
        b.Synthetic.b_events)
       .Runtime.observed)

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let json_of_string name s =
  match Json_parse.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s is not valid JSON: %s" name msg

let test_chrome_trace_parses_back () =
  with_telemetry @@ fun () ->
  ignore (Detector.analyze ~jobs:3 (Lazy.force corpus_trace));
  let json = json_of_string "chrome trace" (Obs.chrome_trace_string ()) in
  let events =
    match Option.bind (Json_parse.member "traceEvents" json) Json_parse.to_list with
    | Some evs -> evs
    | None -> Alcotest.fail "no traceEvents array"
  in
  let complete =
    List.filter
      (fun e -> Json_parse.member "ph" e = Some (Json_parse.String "X"))
      events
  in
  check_bool "at least one complete event" true (complete <> []);
  List.iter
    (fun e ->
       List.iter
         (fun field ->
            check_bool (field ^ " present") true
              (Json_parse.member field e <> None))
         [ "name"; "ts"; "dur"; "pid"; "tid" ])
    complete;
  let names =
    List.filter_map
      (fun e -> Option.bind (Json_parse.member "name" e) Json_parse.to_string)
      complete
  in
  List.iter
    (fun phase ->
       check_bool ("span " ^ phase ^ " present") true
         (List.exists (String.equal ("detector." ^ phase)) names))
    Detector.phase_names;
  check_bool "analyze span present" true
    (List.mem "detector.analyze" names);
  (* one track per recorded domain, thread-named *)
  let tids =
    List.sort_uniq compare
      (List.filter_map
         (fun e -> Option.bind (Json_parse.member "tid" e) Json_parse.to_number)
         complete)
  in
  check_bool "at least one domain track" true (tids <> []);
  let thread_names =
    List.filter
      (fun e ->
         Json_parse.member "ph" e = Some (Json_parse.String "M")
         && Json_parse.member "name" e = Some (Json_parse.String "thread_name"))
      events
  in
  check_int "every track has a thread_name metadata event"
    (List.length tids) (List.length thread_names)

let test_metrics_json_parses_back () =
  with_telemetry @@ fun () ->
  ignore (Detector.analyze ~jobs:2 (Lazy.force corpus_trace));
  let json = json_of_string "metrics" (Obs.metrics_json_string ()) in
  (match Option.bind (Json_parse.member "counters" json) (Json_parse.member "hb.passes") with
   | Some (Json_parse.Number n) -> check_bool "hb.passes positive" true (n > 0.0)
   | Some _ | None -> Alcotest.fail "counters.hb.passes missing");
  (match Option.bind (Json_parse.member "domains" json) Json_parse.to_list with
   | Some (_ :: _) -> ()
   | Some [] | None -> Alcotest.fail "no per-domain statistics");
  check_bool "summary names the analyze span" true
    (contains_substring ~needle:"detector.analyze" (Obs.summary_string ()))

(* {1 The JSON codec}

   One printer and one parser serve every artifact, so the round trip
   is checked over arbitrary values rather than per schema: strings
   carry quotes, backslashes, control bytes and bytes >= 0x80. *)

let gen_json =
  let open QCheck2.Gen in
  let text =
    string_size (int_bound 8)
      ~gen:
        (oneof
           [ char_range '\x00' '\x1f'; oneofl [ '"'; '\\'; '/' ]; printable
           ; char_range '\x80' '\xff' ])
  in
  let number =
    oneof
      [ map float_of_int (int_range (-1_000_000) 1_000_000)
      ; map (fun f -> if Float.is_finite f then f else 0.25) float ]
  in
  sized
  @@ fix (fun self n ->
    let leaf =
      oneof
        [ pure Json_parse.Null
        ; map (fun b -> Json_parse.Bool b) bool
        ; map (fun f -> Json_parse.Number f) number
        ; map (fun s -> Json_parse.String s) text ]
    in
    if n <= 0 then leaf
    else
      frequency
        [ (2, leaf)
        ; (1, map (fun l -> Json_parse.Array l) (list_size (int_bound 4) (self (n / 3))))
        ; ( 1
          , map (fun l -> Json_parse.Object l)
              (list_size (int_bound 4) (pair text (self (n / 3)))) ) ])

let prop_roundtrip layout name =
  QCheck2.Test.make ~name ~count:500 ~print:Json_parse.render gen_json (fun v ->
    Json_parse.parse (Json_parse.render ~layout v) = Ok v)

let test_codec_unicode () =
  let str s =
    match Json_parse.parse s with
    | Ok (Json_parse.String v) -> v
    | Ok _ | Error _ -> Alcotest.failf "%s is not a JSON string" s
  in
  check_string "BMP escape decodes to UTF-8" "caf\xc3\xa9" (str {|"caf\u00e9"|});
  check_string "surrogate pair" "\xf0\x9f\x98\x80" (str {|"\ud83d\ude00"|});
  check_string "lone high surrogate" "?x" (str {|"\ud83dx"|});
  check_string "high surrogate, then no low one" "?A" (str {|"\ud83d\u0041"|});
  check_string "lone low surrogate" "?" (str {|"\ude00"|});
  check_bool "bad hex rejected" true (Result.is_error (Json_parse.parse {|"\u00g1"|}))

let test_codec_printer () =
  check_string "escape" {|\"\\\n\r\t\u0001\u001f caf|} (Json_parse.escape "\"\\\n\r\t\x01\x1f caf");
  let doc =
    Json_parse.(
      Object
        [ ("a", int 1); ("b", fixed 3 0.5); ("c", Array [ Object [ ("d", Array [ Null ]) ] ])
        ; ("e", Array []) ])
  in
  check_string "compact" {|{"a":1,"b":0.500,"c":[{"d":[null]}],"e":[]}|} (Json_parse.render doc);
  check_string "indented"
    "{\n  \"a\": 1,\n  \"b\": 0.500,\n  \"c\": [\n    {\"d\": [null]}\n  ],\n  \"e\": []\n}"
    (Json_parse.render ~layout:Indented doc);
  check_string "numbers" "[3,-0,0.1,1e+300,null]"
    (Json_parse.render
       (Array (List.map (fun f -> Json_parse.Number f) [ 3.0; -0.0; 0.1; 1e300; infinity ])));
  let int_of s = Result.to_option (Json_parse.parse s) |> Fun.flip Option.bind Json_parse.to_int in
  check_bool "whole number" true (int_of "42" = Some 42);
  check_bool "fraction refused" true (int_of "1.5" = None);
  check_bool "out of range refused" true (int_of "1e19" = None);
  check_bool "infinity refused" true (int_of "1e999" = None)

(* {1 Histogram quantiles}

   The log-bucketed sketch (8 buckets per octave) guarantees ~9%
   relative error; the checks allow 15% for slack. *)

let test_histogram_quantiles () =
  with_telemetry @@ fun () ->
  for i = 1 to 1000 do
    Obs.observe "q.uniform" (float_of_int i)
  done;
  let snap = Obs.snapshot () in
  match List.assoc_opt "q.uniform" snap.Obs.histograms with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    check_int "count" 1000 h.Obs.h_count;
    Alcotest.check (Alcotest.float 1e-6) "min" 1.0 h.Obs.h_min;
    Alcotest.check (Alcotest.float 1e-6) "max" 1000.0 h.Obs.h_max;
    let within name expected actual =
      check_bool
        (Printf.sprintf "%s ~ %.0f (got %.1f)" name expected actual)
        true
        (Float.abs (actual -. expected) /. expected <= 0.15)
    in
    within "p50" 500.0 h.Obs.h_p50;
    within "p90" 900.0 h.Obs.h_p90;
    within "p99" 990.0 h.Obs.h_p99;
    check_bool "quantiles ordered" true
      (h.Obs.h_p50 <= h.Obs.h_p90
       && h.Obs.h_p90 <= h.Obs.h_p99
       && h.Obs.h_p99 <= h.Obs.h_max);
    check_bool "quantiles bounded below" true (h.Obs.h_min <= h.Obs.h_p50)

let test_quantiles_nonpositive_samples () =
  with_telemetry @@ fun () ->
  List.iter (Obs.observe "q.edge") [ -5.0; 0.0; 3.0 ];
  let snap = Obs.snapshot () in
  match List.assoc_opt "q.edge" snap.Obs.histograms with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    check_int "count" 3 h.Obs.h_count;
    (* non-positive samples fall in the underflow bucket, reported as
       the observed minimum rather than a NaN or a crash *)
    Alcotest.check (Alcotest.float 1e-6) "p50 is the minimum" (-5.0) h.Obs.h_p50;
    check_bool "p99 within range" true
      (h.Obs.h_p99 >= h.Obs.h_min && h.Obs.h_p99 <= h.Obs.h_max)

let test_metrics_schema_v2 () =
  with_telemetry @@ fun () ->
  Obs.observe "q.schema" 4.0;
  Obs.add "q.counter";
  let json = json_of_string "metrics" (Obs.metrics_json_string ()) in
  (match Json_parse.member "schema" json with
   | Some (Json_parse.String s) -> check_string "schema" "droidracer-metrics/2" s
   | Some _ | None -> Alcotest.fail "schema field missing");
  (match Option.bind (Json_parse.member "processes" json) Json_parse.to_list with
   | Some (_ :: _ as ps) ->
     List.iter
       (fun p ->
          check_bool "process has pid" true (Json_parse.member "pid" p <> None);
          check_bool "process has label" true
            (Json_parse.member "label" p <> None))
       ps
   | Some [] | None -> Alcotest.fail "processes array missing");
  match
    Option.bind (Json_parse.member "histograms" json)
      (Json_parse.member "q.schema")
  with
  | None -> Alcotest.fail "histograms.q.schema missing"
  | Some h ->
    (* v2 adds the quantile fields but keeps every v1 field *)
    List.iter
      (fun field ->
         check_bool (field ^ " present") true (Json_parse.member field h <> None))
      [ "count"; "sum"; "min"; "max"; "mean"; "p50"; "p90"; "p99" ]

(* {1 Resource time-series} *)

let test_series_export () =
  with_telemetry @@ fun () ->
  Obs.record_series "t.level" 1.0;
  Obs.record_series "t.level" 2.0;
  Obs.sample_resources ();
  let json = json_of_string "series" (Obs.series_json_string ()) in
  (match Json_parse.member "schema" json with
   | Some (Json_parse.String s) -> check_string "schema" "droidracer-series/1" s
   | Some _ | None -> Alcotest.fail "schema field missing");
  check_bool "sample period reported" true
    (Json_parse.member "sample_period_seconds" json <> None);
  let series =
    match Option.bind (Json_parse.member "series" json) Json_parse.to_list with
    | Some l -> l
    | None -> Alcotest.fail "series array missing"
  in
  let find name =
    List.find_opt
      (fun s ->
         Json_parse.member "name" s = Some (Json_parse.String name))
      series
  in
  (match Option.bind (find "t.level")
           (fun s ->
              Option.bind (Json_parse.member "samples" s) Json_parse.to_list)
   with
   | Some samples ->
     check_int "both samples exported" 2 (List.length samples);
     let ts =
       List.filter_map
         (fun s -> Option.bind (Json_parse.member "t_ns" s) Json_parse.to_number)
         samples
     in
     check_bool "samples sorted by time" true (List.sort compare ts = ts);
     List.iter
       (fun s ->
          List.iter
            (fun field ->
               check_bool (field ^ " present") true
                 (Json_parse.member field s <> None))
            [ "pid"; "t_ns"; "value" ])
       samples
   | None -> Alcotest.fail "t.level series missing");
  check_bool "resource sampler recorded RSS" true (find "proc.rss_kb" <> None);
  check_bool "resource sampler recorded heap words" true
    (find "gc.major_heap_words" <> None);
  (* series also surface as Chrome counter events *)
  let chrome = json_of_string "chrome trace" (Obs.chrome_trace_string ()) in
  let counters =
    match
      Option.bind (Json_parse.member "traceEvents" chrome) Json_parse.to_list
    with
    | Some evs ->
      List.filter
        (fun e -> Json_parse.member "ph" e = Some (Json_parse.String "C"))
        evs
    | None -> Alcotest.fail "no traceEvents array"
  in
  check_bool "counter events present" true (List.length counters >= 3)

(* {1 Cross-process state transport} *)

let test_state_roundtrip () =
  with_telemetry @@ fun () ->
  Obs.add ~n:7 "rt.counter";
  Obs.observe "rt.hist" 2.0;
  Obs.observe "rt.hist" 8.0;
  Obs.with_span "rt.span" (fun () -> ());
  Obs.record_series "rt.series" 42.0;
  let blob = Obs.export_state () in
  Obs.reset ();
  (let snap = Obs.snapshot () in
   check_int "reset really cleared counters" 0 (List.length snap.Obs.counters));
  (match Obs.absorb_state blob with
   | Some pid -> check_int "absorbed state names this process" (Unix.getpid ()) pid
   | None -> Alcotest.fail "round-trip rejected");
  let snap = Obs.snapshot () in
  check_int "counter restored" 7
    (Option.value (List.assoc_opt "rt.counter" snap.Obs.counters) ~default:0);
  (match List.assoc_opt "rt.hist" snap.Obs.histograms with
   | Some h ->
     check_int "histogram count restored" 2 h.Obs.h_count;
     Alcotest.check (Alcotest.float 1e-6) "histogram sum restored" 10.0 h.Obs.h_sum
   | None -> Alcotest.fail "histogram lost in transport");
  check_bool "span restored" true
    (List.exists (fun s -> s.Obs.sp_name = "rt.span") snap.Obs.spans);
  (match List.assoc_opt "rt.series" snap.Obs.series with
   | Some [ s ] ->
     Alcotest.check (Alcotest.float 1e-6) "series value restored" 42.0
       s.Obs.s_value
   | Some l -> Alcotest.failf "expected 1 sample, got %d" (List.length l)
   | None -> Alcotest.fail "series lost in transport");
  (* an absorbed worker contributes its RSS peak as a histogram sample *)
  (match List.assoc_opt "proc.worker_rss_peak_kb" snap.Obs.histograms with
   | Some h ->
     check_int "one worker RSS sample" 1 h.Obs.h_count;
     check_bool "worker RSS positive" true (h.Obs.h_min > 0.0)
   | None -> Alcotest.fail "worker RSS histogram missing")

let test_absorb_rejects_garbage () =
  with_telemetry @@ fun () ->
  check_bool "empty string rejected" true (Obs.absorb_state "" = None);
  check_bool "wrong magic rejected" true
    (Obs.absorb_state "not-a-state-blob" = None);
  check_bool "truncated blob rejected" true
    (Obs.absorb_state "droidracer-obs-state/1\nXY" = None);
  let snap = Obs.snapshot () in
  check_int "nothing absorbed" 0 (List.length snap.Obs.counters)

(* {1 Telemetry transparency} *)

(* The whole subsystem's contract: enabling telemetry must not change a
   single byte of the analysis result. *)
let report_fingerprint report =
  Format.asprintf "%a" Detector.pp_report
    { report with Detector.elapsed_seconds = 0. }

let test_analyze_identical_on_off () =
  Obs.disable ();
  Obs.reset ();
  let trace = Lazy.force corpus_trace in
  let off = Detector.analyze ~jobs:4 trace in
  let on = with_telemetry (fun () -> Detector.analyze ~jobs:4 trace) in
  check_string "report identical with telemetry on vs off"
    (report_fingerprint off) (report_fingerprint on);
  check_string "same phases in the same order"
    (String.concat "," (List.map fst off.Detector.phase_seconds))
    (String.concat "," (List.map fst on.Detector.phase_seconds));
  check_string "phase list matches the documented names"
    (String.concat "," Detector.phase_names)
    (String.concat "," (List.map fst on.Detector.phase_seconds))

let test_phase_seconds_consistent () =
  Obs.disable ();
  Obs.reset ();
  let report = Detector.analyze (Lazy.force corpus_trace) in
  let total =
    List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0
      report.Detector.phase_seconds
  in
  check_bool "phases sum to at most the elapsed wall time" true
    (total <= report.Detector.elapsed_seconds +. 1e-3);
  check_bool "unknown phase reads as zero" true
    (Detector.phase_seconds report "no_such_phase" = 0.0)

(* {1 Reset} *)

let test_reset_clears_all_domains () =
  with_telemetry @@ fun () ->
  ignore
    (Par_pool.parallel_map ~jobs:4
       (fun i ->
          Obs.add "reset.ticks";
          i)
       (List.init 64 (fun i -> i)));
  Obs.reset ();
  let snap = Obs.snapshot () in
  check_int "counters cleared everywhere" 0 (List.length snap.Obs.counters);
  check_int "spans cleared everywhere" 0 (List.length snap.Obs.spans)

let () =
  Alcotest.run "obs"
    [ ( "spans"
      , [ Alcotest.test_case "nesting and ordering" `Quick test_span_nesting
        ; Alcotest.test_case "args and exceptions" `Quick
            test_span_args_and_exceptions
        ; Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop
        ] )
    ; ( "merging"
      , [ Alcotest.test_case "counters and histograms across domains" `Quick
            test_counter_merge_across_domains
        ; Alcotest.test_case "reset clears every domain" `Quick
            test_reset_clears_all_domains
        ] )
    ; ( "quantiles"
      , [ Alcotest.test_case "uniform distribution" `Quick
            test_histogram_quantiles
        ; Alcotest.test_case "non-positive samples" `Quick
            test_quantiles_nonpositive_samples
        ] )
    ; ( "exporters"
      , [ Alcotest.test_case "chrome trace parses back" `Quick
            test_chrome_trace_parses_back
        ; Alcotest.test_case "metrics JSON parses back" `Quick
            test_metrics_json_parses_back
        ; Alcotest.test_case "metrics schema v2" `Quick test_metrics_schema_v2
        ; Alcotest.test_case "series export" `Quick test_series_export
        ] )
    ; ( "codec"
      , [ QCheck_alcotest.to_alcotest (prop_roundtrip Compact "compact round trip")
        ; QCheck_alcotest.to_alcotest
            (prop_roundtrip Indented "indented round trip")
        ; Alcotest.test_case "unicode escapes" `Quick test_codec_unicode
        ; Alcotest.test_case "printer" `Quick test_codec_printer
        ] )
    ; ( "transport"
      , [ Alcotest.test_case "state round-trip" `Quick test_state_roundtrip
        ; Alcotest.test_case "garbage rejected" `Quick
            test_absorb_rejects_garbage
        ] )
    ; ( "transparency"
      , [ Alcotest.test_case "analyze identical with telemetry on/off" `Quick
            test_analyze_identical_on_off
        ; Alcotest.test_case "phase breakdown consistent" `Quick
            test_phase_seconds_consistent
        ] )
    ]
