open Helpers
module Vc = Droidracer_core.Vector_clock
module Epoch = Droidracer_core.Epoch
module Streaming = Droidracer_core.Streaming_engine
module Detector = Droidracer_core.Detector
module Hb = Droidracer_core.Happens_before
module Race = Droidracer_core.Race
module Longtrace = Droidracer_corpus.Longtrace
module Wellformed = Droidracer_trace.Wellformed

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int
let pair_list = Alcotest.(list (pair int int))

let pairs races =
  List.map
    (fun (r : Race.t) -> (r.first.position, r.second.position))
    races

(* The batch engine the differential checks compare against. *)
let worklist_config =
  { Detector.default_config with
    hb = { Detector.default_config.hb with closure = Hb.Worklist }
  }

let worklist_pairs ~jobs t =
  List.map
    (fun { Detector.race; _ } ->
       (race.Race.first.position, race.Race.second.position))
    (Detector.analyze ~config:worklist_config ~jobs t).Detector.all_races

(* {1 Epoch frontiers} *)

(* A clock that knows slot [s] up to time [t], built pointwise. *)
let clock_of assoc =
  List.fold_left (fun vc (s, t) -> Vc.set vc s t) Vc.empty assoc

let test_epoch_fast_path () =
  let t, racing, o1 =
    Epoch.observe ~clock:(clock_of [ (0, 1) ]) ~slot:0 ~time:1 "a" Epoch.bottom
  in
  check_int "first entry races with nothing" 0 (List.length racing);
  check_bool "first observe is not the fast path" true (o1 = Epoch.Stayed);
  (* Same slot again: program order, clock irrelevant (even an empty
     clock must not matter — the lookup is skipped entirely). *)
  let t, racing, o2 = Epoch.observe ~clock:Vc.empty ~slot:0 ~time:2 "b" t in
  check_bool "same-slot overwrite takes the fast path" true (o2 = Epoch.Fast_path);
  check_int "no race on the fast path" 0 (List.length racing);
  check_int "still one entry" 1 (Epoch.cardinal t);
  match Epoch.entries t with
  | [ e ] ->
    check_int "the newer time" 2 e.Epoch.time;
    Alcotest.(check string) "the newer payload" "b" e.Epoch.payload
  | _ -> Alcotest.fail "expected exactly one entry"

let test_epoch_promotion_and_demotion () =
  let t, _, _ =
    Epoch.observe ~clock:(clock_of [ (0, 1) ]) ~slot:0 ~time:1 "w0" Epoch.bottom
  in
  (* Slot 1 has not seen slot 0: unordered, promotes to a read share. *)
  let t, racing, o =
    Epoch.observe ~clock:(clock_of [ (1, 1) ]) ~slot:1 ~time:1 "w1" t
  in
  check_bool "unordered second slot promotes" true (o = Epoch.Promoted);
  Alcotest.(check (list string)) "the racing predecessor" [ "w0" ]
    (List.map (fun e -> e.Epoch.payload) racing);
  check_int "two entries" 2 (Epoch.cardinal t);
  (* A third slot that knows both demotes back to a single epoch. *)
  let t, racing, o =
    Epoch.observe ~clock:(clock_of [ (0, 5); (1, 5); (2, 1) ]) ~slot:2 ~time:1
      "w2" t
  in
  check_bool "dominating observer demotes" true (o = Epoch.Demoted);
  check_int "no race when everything is known" 0 (List.length racing);
  check_int "one entry again" 1 (Epoch.cardinal t)

let test_epoch_prune () =
  let t, _, _ =
    Epoch.observe ~clock:(clock_of [ (0, 1) ]) ~slot:0 ~time:1 "r0" Epoch.bottom
  in
  let t, _, _ = Epoch.observe ~clock:(clock_of [ (1, 1) ]) ~slot:1 ~time:1 "r1" t in
  let t, dropped = Epoch.prune ~clock:(clock_of [ (0, 1) ]) t in
  check_int "only the known entry is dropped" 1 dropped;
  Alcotest.(check (list string)) "the unordered read survives" [ "r1" ]
    (List.map (fun e -> e.Epoch.payload) (Epoch.entries t));
  let t, dropped = Epoch.prune ~clock:(clock_of [ (1, 1) ]) t in
  check_int "then the other" 1 dropped;
  check_int "frontier empty" 0 (Epoch.cardinal t)

(* {1 The figures} *)

(* The stats document is JSON for any label, including a trace path
   with non-ASCII and control bytes. *)
let test_stats_json_label () =
  let label = "caf\xc3\xa9\t.trace" in
  let _, stats = Streaming.detect figure4 in
  match
    Json_parse.parse
      (Streaming.stats_json_string ~label ~elapsed_seconds:0.5 ~peak_rss_kb:1 stats)
  with
  | Ok json ->
    check_bool "label read back" true
      (Option.bind (Json_parse.member "label" json) Json_parse.to_string = Some label)
  | Error msg -> Alcotest.failf "stats document is not JSON: %s" msg

let test_figures () =
  let races3, _ = Streaming.detect figure3 in
  check_int "figure 3: no races" 0 (List.length races3);
  let races4, stats = Streaming.detect figure4 in
  (* The batch engines report (12,21) and (16,21); the frontier keeps
     only the last ordered representative of the reads — 16 subsumes 12
     — so streaming reports the (16,21) pair, still flagging position
     21 as racy (the coverage contract). *)
  Alcotest.check pair_list "figure 4 via the frontier"
    [ (fig 16, fig 21) ]
    (pairs races4);
  ignore stats;
  (* Consecutive accesses from one task segment hit the O(1) epoch
     overwrite; a concurrent reader still sees the race. *)
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; write 0 (loc "x")
      ; write 0 (loc "x")
      ; write 0 (loc "x")
      ; read 1 (loc "x")
      ]
  in
  let races, stats = Streaming.detect t in
  check_int "same-segment rewrites take the fast path" 2
    stats.Streaming.fast_path;
  Alcotest.check pair_list "the last write races with the read"
    [ (4, 5) ] (pairs races)

(* {1 GC} *)

let exercise_config = { Streaming.completed_window = 2; gc_interval = 16 }

let test_gc_retired_tasks () =
  (* Many sequential tasks on one looper: every task is FIFO-ordered
     after the previous, so no races; a window of 2 forces constant
     folding and the sweep retires every finished task's slot. *)
  let events = ref [ looponq 1; attachq 1; threadinit 1; threadinit 0 ] in
  for i = 0 to 39 do
    let p = task ~instance:i "seq" in
    events :=
      end_task 1 p :: write 1 (loc "x") :: begin_task 1 p :: post 0 p 1
      :: !events
  done;
  let t = trace (List.rev !events) in
  let races, stats = Streaming.detect ~config:exercise_config t in
  check_int "sequential tasks never race" 0 (List.length races);
  check_bool "tasks were folded out of the window" true
    (stats.Streaming.folded_tasks > 0);
  check_bool "sweeps ran" true (stats.Streaming.gc_sweeps > 1);
  check_bool "slots were retired" true
    (stats.Streaming.slots_retired > stats.Streaming.live_slots);
  (* 40 tasks × (task slot + idle slot) + thread segments: without GC
     every one stays resident; with it only the window and frontier
     survive. *)
  check_bool "live slots bounded by the window, not the task count" true
    (stats.Streaming.live_slots < 20)

(* {1 Chains} *)

let test_fifo_chain () =
  (* 40 tasks posted in order to one looper, then run: FIFO orders each
     after the one before, so every begin after the first already holds
     its predecessor's end and continues its slot. *)
  let tasks = List.init 40 (fun i -> task ~instance:i "seq") in
  let t =
    trace
      ([ threadinit 0; threadinit 1; attachq 1; looponq 1 ]
       @ List.map (fun p -> post 0 p 1) tasks
       @ List.concat_map
           (fun p -> [ begin_task 1 p; write 1 (loc "x"); end_task 1 p ])
           tasks)
  in
  List.iter
    (fun config ->
       let races, stats = Streaming.detect ~config t in
       check_int "sequential tasks never race" 0 (List.length races);
       check_int "every task after the first continues the chain" 39
         stats.Streaming.chained_tasks)
    [ Streaming.default_config; exercise_config ]

let test_nopre_on_chain () =
  (* T1 and T2 run in order on looper 1 (FIFO) and so share a slot.
     T1 forks thread 2, which posts T3: the post knows T1's begin, not
     T2's, so NOPRE orders T1 before T3 and nothing orders T2 before
     T3.  Probing the shared slot for any time at all would mistake
     knowing T1 for knowing T2 and lose the (T2, T3) race. *)
  let t1 = task "t1" and t2 = task "t2" and t3 = task "t3" in
  let x = loc "x" in
  let t =
    trace
      [ threadinit 0; threadinit 1; attachq 1; looponq 1
      ; post 0 t1 1; post 0 t2 1
      ; begin_task 1 t1; fork 1 2; end_task 1 t1
      ; begin_task 1 t2; write 1 x; end_task 1 t2
      ; threadinit 2; post 2 t3 1
      ; begin_task 1 t3; write 1 x; end_task 1 t3
      ]
  in
  let races, stats = Streaming.detect t in
  Alcotest.check pair_list "T2 and T3 race" [ (10, 15) ] (pairs races);
  check_int "T2 continued T1's slot, T3 took a fresh one" 1
    stats.Streaming.chained_tasks;
  Alcotest.check pair_list "the worklist engine's race set"
    (worklist_pairs ~jobs:1 t) (pairs races)

let test_gc_invisible_to_races () =
  (* Slot purging must be invisible; only window folding may (soundly)
     lose races.  Same trace, GC off vs. aggressive interval. *)
  for seed = 0 to 9 do
    let t =
      Trace.remove_cancelled (Random_trace.generate ~seed ~size:120 ())
    in
    let no_gc, _ =
      Streaming.detect
        ~config:{ Streaming.completed_window = max_int; gc_interval = 0 }
        t
    in
    let gc, _ =
      Streaming.detect
        ~config:{ Streaming.completed_window = max_int; gc_interval = 1 }
        t
    in
    Alcotest.check pair_list
      (Printf.sprintf "sweeps do not change the race set (seed %d)" seed)
      (pairs no_gc) (pairs gc)
  done

let test_window_folding_is_sound () =
  for seed = 10 to 19 do
    let t =
      Trace.remove_cancelled (Random_trace.generate ~seed ~size:120 ())
    in
    let full, _ =
      Streaming.detect
        ~config:{ Streaming.completed_window = max_int; gc_interval = 0 }
        t
    in
    let folded, _ = Streaming.detect ~config:exercise_config t in
    List.iter
      (fun p ->
         check_bool
           (Printf.sprintf "folding only adds orderings (seed %d)" seed)
           true
           (List.mem p (pairs full)))
      (pairs folded)
  done

(* {1 The long-trace regression: peak state is O(live entities)} *)

let run_long_trace events =
  let path = Filename.temp_file "droidracer_long" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       let config =
         { Longtrace.default_config with locations = 64; fork_every = 50 }
       in
       let emitted = Longtrace.write ~config ~events path in
       check_int "the requested length" events emitted;
       (match Wellformed.check_file path with
        | Ok _ -> ()
        | Error f -> Alcotest.fail (Wellformed.failure_message f));
       match Streaming.detect_file path with
       | Error e ->
         Alcotest.fail (Droidracer_trace.Trace_io.read_error_message e)
       | Ok (races, stats) ->
         check_int "every event streamed" events stats.Streaming.events;
         check_bool "the shared locations race" true (List.length races > 0);
         stats)

let test_fold_channel_bounded_state () =
  let short = run_long_trace 20_000 in
  let long = run_long_trace 60_000 in
  (* Chains and idle segments keep taking slots as the trace grows... *)
  check_bool
    (Printf.sprintf "slots are allocated in O(trace): %d -> %d"
       short.Streaming.slots_allocated long.Streaming.slots_allocated)
    true
    (long.Streaming.slots_allocated * 2 >= short.Streaming.slots_allocated * 5);
  (* ...while live state, loopers × (window + frontier share) + pending,
     stays independent of the slots allocated over the run. *)
  check_bool
    (Printf.sprintf "peak live slots stay flat: %d -> %d"
       short.Streaming.peak_live_slots long.Streaming.peak_live_slots)
    true
    (long.Streaming.peak_live_slots <= 2 * short.Streaming.peak_live_slots
     && long.Streaming.peak_live_slots < 1_000);
  (* The real bound: peak resident state plateaus once the completed
     windows fill (~2k events here), so tripling the trace must not
     grow it materially — the batch engines would triple. *)
  check_bool
    (Printf.sprintf "peak resident clock entries plateau: %d -> %d"
       short.Streaming.peak_clock_entries long.Streaming.peak_clock_entries)
    true
    (long.Streaming.peak_clock_entries
     < (short.Streaming.peak_clock_entries * 3 / 2) + 1_000)

(* {1 The lock-merge regime, pinned}

   With locked tasks and 32 planted races, lock merges spread every
   live slot into every clock: the regime the random traces (120
   events) never reach.  A slot per task made that about 1,900 live
   slots; chains bring it to about 20.  The digests cover the pair lists in the
   engine's output order; a change to the clock representation or to
   the begin-time join must reproduce them and the structural counts
   exactly. *)

let lock_merge_regime seed =
  let path = Filename.temp_file "droidracer_lockmerge" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       let config = { Longtrace.default_config with planted = 32; seed } in
       check_int "the requested length" 30_000
         (Longtrace.write_binary ~config ~events:30_000 path);
       match Streaming.detect_file path with
       | Error e ->
         Alcotest.fail (Droidracer_trace.Trace_io.read_error_message e)
       | Ok (races, stats) ->
         let digest =
           Digest.to_hex
             (Digest.string
                (String.concat ";"
                   (List.map
                      (fun (r : Race.t) ->
                         Printf.sprintf "%d,%d" r.first.position
                           r.second.position)
                      races)))
         in
         (List.length races, digest, stats))

let test_lock_merge_regime_pinned () =
  let n, digest, stats = lock_merge_regime 1 in
  check_int "seed 1: pairs" 378 n;
  Alcotest.(check string) "seed 1: pair digest"
    "93819d06370601829dd1757770483f45" digest;
  check_int "peak live slots" 23 stats.Streaming.peak_live_slots;
  check_int "peak clock entries" 4_026 stats.Streaming.peak_clock_entries;
  check_int "promotions" 290 stats.Streaming.promotions;
  check_int "folded tasks" 3_818 stats.Streaming.folded_tasks;
  check_int "gc sweeps" 8 stats.Streaming.gc_sweeps;
  let n, digest, _ = lock_merge_regime 2 in
  check_int "seed 2: pairs" 368 n;
  Alcotest.(check string) "seed 2: pair digest"
    "434a4fc2b68fbe47d8dec508842e20bc" digest

let test_longtrace_prefixes_admissible () =
  List.iter
    (fun events ->
       let collected = ref [] in
       let _n =
         Longtrace.generate ~events (fun e -> collected := e :: !collected)
       in
       match Wellformed.check_events (List.rev !collected) with
       | Ok _ -> ()
       | Error e ->
         Alcotest.fail
           (Printf.sprintf "prefix of %d events rejected: %s" events
              (Wellformed.error_message e)))
    [ 1; 7; 50; 333; 2_000 ]

(* {1 Differential properties against the batch engines} *)

let gen = QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 150))

let prop_subset_of_worklist =
  QCheck2.Test.make
    ~name:"streaming races are a subset of the worklist engine's (jobs 1 and 4)"
    ~count:60 gen
    (fun (seed, size) ->
       let t =
         Trace.remove_cancelled (Random_trace.generate ~seed ~size ())
       in
       let streaming = pairs (fst (Streaming.detect t)) in
       let w1 = worklist_pairs ~jobs:1 t in
       let w4 = worklist_pairs ~jobs:4 t in
       w1 = w4 && List.for_all (fun p -> List.mem p w1) streaming)

let second_positions_by_location races_with_locations =
  List.sort_uniq compare races_with_locations

let prop_coverage_on_lock_free =
  QCheck2.Test.make
    ~name:
      "on lock-free traces streaming flags the same racy (location, second) \
       set as the worklist engine"
    ~count:60 gen
    (fun (seed, size) ->
       let t = Random_trace.generate ~seed ~size () in
       let lock_free =
         List.for_all
           (fun (e : Trace.event) ->
              match e.op with
              | Operation.Acquire _ | Operation.Release _ -> false
              | _ -> true)
           (Trace.events t)
       in
       QCheck2.assume lock_free;
       let t = Trace.remove_cancelled t in
       let seconds races =
         second_positions_by_location
           (List.map
              (fun (r : Race.t) ->
                 ( Ident.Location.to_string r.second.location
                 , r.second.position ))
              races)
       in
       let streaming = seconds (fst (Streaming.detect t)) in
       let batch =
         seconds
           (List.map
              (fun { Detector.race; _ } -> race)
              (Detector.analyze ~config:worklist_config t).Detector.all_races)
       in
       streaming = batch)

let prop_detector_dispatch_matches_engine =
  QCheck2.Test.make
    ~name:"Detector.analyze with the streaming engine returns the engine's races"
    ~count:30 gen
    (fun (seed, size) ->
       let t = Random_trace.generate ~seed ~size () in
       let config =
         { Detector.default_config with
           hb = { Detector.default_config.hb with closure = Hb.Streaming }
         }
       in
       let report = Detector.analyze ~config t in
       let direct = pairs (fst (Streaming.detect (Trace.remove_cancelled t))) in
       List.map
         (fun { Detector.race; _ } ->
            (race.Race.first.position, race.Race.second.position))
         report.Detector.all_races
       = direct
       && List.map fst report.Detector.phase_seconds
          = Detector.streaming_phase_names)

let prop_deterministic =
  QCheck2.Test.make ~name:"streaming detection is deterministic" ~count:30 gen
    (fun (seed, size) ->
       let t =
         Trace.remove_cancelled (Random_trace.generate ~seed ~size ())
       in
       let r1, s1 = Streaming.detect t in
       let r2, s2 = Streaming.detect t in
       pairs r1 = pairs r2 && s1 = s2)

let () =
  Alcotest.run "streaming"
    [ ( "epoch"
      , [ Alcotest.test_case "same-slot fast path" `Quick test_epoch_fast_path
        ; Alcotest.test_case "promotion and demotion" `Quick
            test_epoch_promotion_and_demotion
        ; Alcotest.test_case "prune" `Quick test_epoch_prune
        ] )
    ; ( "engine"
      , [ Alcotest.test_case "figures" `Quick test_figures
        ; Alcotest.test_case "retired-task GC" `Quick test_gc_retired_tasks
        ; Alcotest.test_case "FIFO tasks share one chain" `Quick test_fifo_chain
        ; Alcotest.test_case "NOPRE probes the task, not the chain" `Quick
            test_nopre_on_chain
        ; Alcotest.test_case "GC invisible to races" `Quick
            test_gc_invisible_to_races
        ; Alcotest.test_case "window folding sound" `Quick
            test_window_folding_is_sound
        ; Alcotest.test_case "stats JSON for any label" `Quick
            test_stats_json_label
        ] )
    ; ( "long-trace"
      , [ Alcotest.test_case "generator prefixes admissible" `Quick
            test_longtrace_prefixes_admissible
        ; Alcotest.test_case "fold_channel bounded state" `Slow
            test_fold_channel_bounded_state
        ; Alcotest.test_case "lock-merge regime pinned" `Slow
            test_lock_merge_regime_pinned
        ] )
    ; ( "differential"
      , [ QCheck_alcotest.to_alcotest prop_subset_of_worklist
        ; QCheck_alcotest.to_alcotest prop_coverage_on_lock_free
        ; QCheck_alcotest.to_alcotest prop_detector_dispatch_matches_engine
        ; QCheck_alcotest.to_alcotest prop_deterministic
        ] )
    ]
