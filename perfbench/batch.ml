open! Import

(* The trace file → race report workloads.

   Untraced, a pass sends every input file through the user-facing
   path — {!Supervisor.run_file}, as [droidracer analyze] does, or
   {!Streaming_engine.detect_file} for the long trace — and only the
   pass and each file are timed.

   Traced, passes alternate between that untraced pass and a traced
   one, which re-enacts the same path through each layer's public
   functions (load, validate, filter cancelled posts, then graph,
   closure, detection and classification, or one streaming pass) with
   a span around every call.  The traced pass must find exactly the
   races the untraced pass found. *)

type engine =
  | Dense
  | Stream

let config = function
  | Dense -> Detector.default_config
  | Stream ->
    { Detector.default_config with
      hb = { Detector.default_config.Detector.hb with closure = Happens_before.Streaming }
    }

(* An input with its oracle tables. *)
type app =
  { a : Inputs.app
  ; plant_of : (string, string) Hashtbl.t
  ; total : int  (* distinct races over all categories *)
  ; dense : (int * int, unit) Hashtbl.t
  }

let prepare (a : Inputs.app) =
  let plant_of = Hashtbl.create 64 in
  List.iter (fun (l, c) -> Hashtbl.replace plant_of l c) a.Inputs.plants;
  let dense = Hashtbl.create 1024 in
  List.iter (fun p -> Hashtbl.replace dense p ()) a.Inputs.dense_pairs;
  { a; plant_of; total = List.fold_left (fun n (_, k) -> n + k) 0 a.Inputs.targets; dense }

let sorted_counts l = List.sort compare l

let show_counts l =
  String.concat "," (List.map (fun (c, n) -> Printf.sprintf "%s=%d" c n) l)

(* {1 Oracles on the untraced path} *)

let check_report ~engine app outcome =
  let name = app.a.Inputs.name in
  match outcome with
  | Supervisor.File_failed f ->
    Some
      (Printf.sprintf "%s: %s: %s" name
         (Supervisor.reason_label f.Supervisor.f_reason)
         (Supervisor.reason_detail f.Supervisor.f_reason))
  | Supervisor.File_completed r ->
    if r.Supervisor.fr_events <> app.a.Inputs.events then
      Some
        (Printf.sprintf "%s: read %d events, set-up wrote %d" name
           r.Supervisor.fr_events app.a.Inputs.events)
    else begin
      match
        List.find_opt
          (fun l -> not (Hashtbl.mem app.plant_of l))
          r.Supervisor.fr_locations
      with
      | Some l -> Some (Printf.sprintf "%s: racy location %s is not planted" name l)
      | None ->
        (match engine with
         | Stream -> None
         | Dense ->
           (* Each reported location counted under its plant's
              category must reproduce the Table 3 row exactly. *)
           let by_plant =
             List.map
               (fun (category, _) ->
                  ( category
                  , List.length
                      (List.filter
                         (fun l -> String.equal (Hashtbl.find app.plant_of l) category)
                         r.Supervisor.fr_locations) ))
               app.a.Inputs.targets
           in
           if r.Supervisor.fr_distinct <> app.total
              || sorted_counts by_plant <> sorted_counts app.a.Inputs.targets
           then
             Some
               (Printf.sprintf "%s: %d distinct races (%s), Table 3 wants %d (%s)"
                  name r.Supervisor.fr_distinct (show_counts by_plant) app.total
                  (show_counts app.a.Inputs.targets))
           else None)
    end

(* {1 The traced re-enactment} *)

type replica =
  { pairs : (int * int) list  (* sorted *)
  ; locations : string list  (* sorted, de-duplicated *)
  ; races : int
  ; distinct : int
  ; by_category : (string * int) list
  ; events : int  (* analysed: after cancelled posts are removed *)
  ; nodes : int
  ; word_ors : int
  ; hb_passes : int
  ; hb_alloc : float
  ; stream : (Streaming_engine.stats * float) option  (* with words allocated *)
  }

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let with_alloc f =
  let before = allocated () in
  let v = f () in
  (v, allocated () -. before)

let ok_or_fail = function Ok v -> v | Error msg -> failwith msg

(* One streaming pass over the events [iteri] enumerates. *)
let feed_all iteri =
  let t = Streaming_engine.create () in
  iteri (fun i e -> Streaming_engine.feed t ~position:i e);
  Streaming_engine.finish t

(* Detector's definition: one race per location and category. *)
let dedup_distinct classified =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun c ->
       let key =
         ( Ident.Location.to_string (Race.location c.Detector.race)
         , Classify.category_name c.Detector.category )
       in
       if Hashtbl.mem seen key then false
       else begin
         Hashtbl.add seen key ();
         true
       end)
    classified

let replica ~engine (a : Inputs.app) =
  Spans.with_span ~op:a.Inputs.name "supervisor.run_file" @@ fun () ->
  let trace = ok_or_fail (Spans.with_span "trace.decode" (fun () -> Trace_io.load a.Inputs.path)) in
  (match Spans.with_span "wellformed.check" (fun () -> Wellformed.check trace) with
   | Ok _ -> ()
   | Error e -> failwith (Wellformed.error_message e));
  let trace =
    Spans.with_span "trace.remove_cancelled" (fun () -> Trace.remove_cancelled trace)
  in
  let races, hb, (nodes, word_ors, hb_passes, hb_alloc), stream =
    match engine with
    | Dense ->
      let graph =
        Spans.with_span "graph.build" (fun () -> Graph.build ~coalesce:true trace)
      in
      let hb, alloc =
        Spans.with_span "happens_before.compute" (fun () ->
          with_alloc (fun () ->
            Happens_before.compute ~config:Detector.default_config.Detector.hb
              ~jobs:1 graph))
      in
      let races =
        Spans.with_span "race.detect" (fun () ->
          Race.detect ~jobs:1 trace ~hb:(Happens_before.hb hb))
      in
      ( races
      , Some hb
      , ( Graph.node_count graph
        , Happens_before.word_ors hb
        , Happens_before.passes hb
        , alloc )
      , None )
    | Stream ->
      let (races, stats), alloc =
        Spans.with_span "streaming.feed" (fun () ->
          with_alloc (fun () -> feed_all (fun f -> Trace.iteri f trace)))
      in
      (races, None, (0, 0, 0, 0.0), Some (stats, alloc))
  in
  (* Without a relation, co-enabled races degrade as in Detector. *)
  let hb_or_eq =
    match hb with Some hb -> Happens_before.hb_or_eq hb | None -> fun _ _ -> true
  in
  let classified =
    Spans.with_span "classify.classify" (fun () ->
      List.map
        (fun race ->
           { Detector.race; category = Classify.classify trace ~hb_or_eq race })
        races)
  in
  let distinct = dedup_distinct classified in
  (* The rest of the report [Detector.analyze] assembles. *)
  ignore (Spans.with_span "trace.stats" (fun () -> Trace.stats trace));
  Option.iter
    (fun hb ->
       ignore
         (Spans.with_span "happens_before.edge_count" (fun () ->
            Happens_before.edge_count hb)))
    hb;
  { pairs = Inputs.pairs races
  ; locations =
      List.sort_uniq String.compare
        (List.map (fun r -> Ident.Location.to_string (Race.location r)) races)
  ; races = List.length races
  ; distinct = List.length distinct
  ; by_category =
      List.map
        (fun (c, n) -> (Classify.category_name c, n))
        (Detector.count_by_category distinct)
  ; events = Trace.length trace
  ; nodes
  ; word_ors
  ; hb_passes
  ; hb_alloc
  ; stream
  }

(* The memory accesses of an input's analysed trace, counted outside
   any timed pass. *)
let accesses (a : Inputs.app) =
  let trace = ok_or_fail (Trace_io.load a.Inputs.path) in
  List.length (Race.accesses (Trace.remove_cancelled trace))

(* The traced pass must agree with the untraced one on the same file,
   and meet the oracle only the traced pass can check: real
   per-category counts (dense), pair containment (streaming). *)
let check_replica ~engine app (r : replica) (untraced : Supervisor.file_report option) =
  let name = app.a.Inputs.name in
  match untraced with
  | None -> Some (Printf.sprintf "%s: no untraced report to compare" name)
  | Some u ->
    if r.races <> u.Supervisor.fr_races
       || r.distinct <> u.Supervisor.fr_distinct
       || r.locations <> u.Supervisor.fr_locations
    then
      Some
        (Printf.sprintf
           "%s: traced run found %d races (%d distinct), untraced %d (%d)" name
           r.races r.distinct u.Supervisor.fr_races u.Supervisor.fr_distinct)
    else begin
      match engine with
      | Dense ->
        if sorted_counts r.by_category <> sorted_counts app.a.Inputs.targets then
          Some
            (Printf.sprintf "%s: categories %s, Table 3 wants %s" name
               (show_counts r.by_category) (show_counts app.a.Inputs.targets))
        else None
      | Stream ->
        (match List.find_opt (fun p -> not (Hashtbl.mem app.dense p)) r.pairs with
         | Some (i, j) ->
           Some
             (Printf.sprintf "%s: streaming race (%d,%d) is not a dense race" name i j)
         | None -> None)
    end

(* {1 Driving passes} *)

(* Run [pass i] for i = 0, 1, ... until [seconds] have gone by and at
   least [min_passes] have run. *)
let repeat ~seconds ?(min_passes = 1) pass =
  let start = now () in
  let rec go i acc =
    if i >= min_passes && now () -. start >= seconds then List.rev acc
    else go (i + 1) (pass i :: acc)
  in
  go 0 []

(* After one untimed warm-up pass, alternate untraced and traced
   passes in the order U T T U U T T U ..., so that neither kind runs
   earlier on average while the heap is still growing (the traced ones
   are numbered for the span store); returns the untraced pass walls,
   the traced pass numbers and the traced pass walls. *)
let alternate ~seconds ~untraced ~traced =
  ignore (untraced ());
  let passes =
    repeat ~seconds ~min_passes:2 (fun i ->
      if i mod 4 = 0 || i mod 4 = 3 then (false, i, untraced ())
      else begin
        Spans.set_pass i;
        (true, i, traced ())
      end)
  in
  let walls t = List.filter_map (fun (tr, _, w) -> if tr = t then Some w else None) passes in
  ( walls false
  , List.filter_map (fun (tr, i, _) -> if tr then Some i else None) passes
  , walls true )

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let mib_of_kb kb = float_of_int kb /. 1024.0

(* The end-to-end metrics of a batch workload, from [passes]: each
   pass's wall time and its per-file times, in input order.  A pass is
   summarised by the median time of each file over the passes, so a
   burst of interference during one file of one pass moves nothing. *)
let end_to_end out ~names ~events ~passes =
  let walls = List.map fst passes in
  let latencies = List.concat_map snd passes in
  let files = List.length names in
  let per_file =
    List.init files (fun i -> Stats.median (List.map (fun (_, ts) -> List.nth ts i) passes))
  in
  List.iter2 (fun name t -> Outcome.note out "%-18s median %.4fs" name t) names per_file;
  let pass = Stats.sum per_file in
  Outcome.metric out "events_per_s" "events/s" (float_of_int events /. pass);
  Outcome.metric out "req_per_s" "req/s" (float_of_int files /. pass);
  Outcome.metric out "latency_p50_s" "s" (Stats.median latencies);
  Outcome.metric out "latency_p90_s" "s" (Stats.quantile latencies 0.9);
  Outcome.metric out "peak_rss_mib" "MiB" (mib_of_kb (Obs.peak_rss_kb ()));
  Outcome.note out "%d passes (%s); latency over %d samples (%d beyond p90)"
    (List.length walls)
    (String.concat " " (List.map (Printf.sprintf "%.3fs") walls))
    (List.length latencies) (Stats.beyond latencies 0.9)

let layer_times out table ~passes =
  List.iter
    (fun (metric, span) ->
       Outcome.metric out metric "s" (Spans.median_self table ~passes span))
    [ ("trace.decode_s", "trace.decode")
    ; ("wellformed.check_s", "wellformed.check")
    ; ("trace.remove_cancelled_s", "trace.remove_cancelled")
    ; ("graph.build_s", "graph.build")
    ; ("happens_before.compute_s", "happens_before.compute")
    ; ("race.detect_s", "race.detect")
    ; ("classify.classify_s", "classify.classify")
    ; ("trace.stats_s", "trace.stats")
    ; ("happens_before.edge_count_s", "happens_before.edge_count")
    ; ("streaming.feed_s", "streaming.feed")
    ; ("supervisor.self_s", "supervisor.run_file")
    ]

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Counters of the layers, from one traced pass's replicas ([accesses]
   is the pass's access count, taken outside the timed passes). *)
let layer_counts out table ~passes ~file_events ~accesses replicas =
  let sum f = List.fold_left (fun n r -> n + f r) 0 replicas in
  let sumf f = List.fold_left (fun n r -> n +. f r) 0.0 replicas in
  let median name = Spans.median_self table ~passes name in
  let fi = float_of_int in
  let analysed = sum (fun r -> r.events) in
  Outcome.metric out "trace.decode_events_per_s" "events/s"
    (ratio (fi file_events) (median "trace.decode"));
  let dense = List.exists (fun r -> r.stream = None) replicas in
  Outcome.metric out "graph.nodes_per_event" "nodes/event"
    (ratio (fi (sum (fun r -> r.nodes))) (fi analysed));
  Outcome.metric out "happens_before.word_ors" "count" (fi (sum (fun r -> r.word_ors)));
  Outcome.metric out "happens_before.passes" "count" (fi (sum (fun r -> r.hb_passes)));
  Outcome.metric out "happens_before.alloc_words" "words" (sumf (fun r -> r.hb_alloc));
  Outcome.metric out "race.accesses" "count" (if dense then fi accesses else 0.0);
  Outcome.metric out "race.races" "count"
    (if dense then fi (sum (fun r -> r.races)) else 0.0);
  let streamed = List.filter_map (fun r -> r.stream) replicas in
  let ssum f = List.fold_left (fun n (s, _) -> n + f s) 0 streamed in
  let smax f = List.fold_left (fun n (s, _) -> max n (f s)) 0 streamed in
  let fed = ssum (fun s -> s.Streaming_engine.events) in
  let per_access n = if streamed = [] then 0.0 else ratio (fi n) (fi accesses) in
  Outcome.metric out "streaming.events_per_s" "events/s"
    (ratio (fi fed) (median "streaming.feed"));
  Outcome.metric out "streaming.alloc_words_per_event" "words/event"
    (ratio (List.fold_left (fun n (_, a) -> n +. a) 0.0 streamed) (fi fed));
  Outcome.metric out "streaming.peak_live_slots" "count"
    (fi (smax (fun s -> s.Streaming_engine.peak_live_slots)));
  Outcome.metric out "streaming.peak_clock_entries" "count"
    (fi (smax (fun s -> s.Streaming_engine.peak_clock_entries)));
  Outcome.metric out "streaming.fast_path_ratio" "ratio"
    (per_access (ssum (fun s -> s.Streaming_engine.fast_path)));
  Outcome.metric out "streaming.comparisons_per_access" "ratio"
    (per_access (ssum (fun s -> s.Streaming_engine.comparisons)));
  Outcome.metric out "streaming.promotions" "count"
    (fi (ssum (fun s -> s.Streaming_engine.promotions)));
  Outcome.metric out "streaming.folded_tasks" "count"
    (fi (ssum (fun s -> s.Streaming_engine.folded_tasks)));
  Outcome.metric out "streaming.gc_sweeps" "count"
    (fi (ssum (fun s -> s.Streaming_engine.gc_sweeps)))

(* How much the spans cost, and whether they account for the pass:
   the layer spans' self times (everything but the pass loop itself)
   against the untraced pass's wall time. *)
let overhead out table ~traced ~untraced_walls ~traced_walls =
  let untraced = Stats.median untraced_walls in
  let overhead = Stats.median traced_walls /. untraced -. 1.0 in
  let layers =
    Stats.median
      (List.map
         (fun p ->
            Hashtbl.fold
              (fun (pass, name) self acc ->
                 if pass = p && name <> "pass" then acc +. self else acc)
              table 0.0)
         traced)
  in
  Outcome.metric out "bench.tracing_overhead_frac" "fraction" overhead;
  let show walls = String.concat " " (List.map (Printf.sprintf "%.3fs") walls) in
  Outcome.note out "untraced passes %s; traced passes %s" (show untraced_walls)
    (show traced_walls);
  Outcome.note out
    "layer self times sum to %.3fs = %.3f x the untraced pass (%.3fs); tracing overhead %+.3f"
    layers (layers /. untraced) untraced overhead

(* {1 Catalog workloads} *)

let catalog ~engine ~seconds ~traced (inputs : Inputs.t) out =
  let apps = List.map prepare inputs.Inputs.apps in
  let config = config engine in
  let events = List.fold_left (fun n app -> n + app.a.Inputs.events) 0 apps in
  let latest = Hashtbl.create 16 in
  let untraced_pass () =
    let rows, wall =
      timed (fun () ->
        List.map
          (fun app ->
             let outcome, dt =
               timed (fun () -> Supervisor.run_file ~jobs:1 ~config app.a.Inputs.path)
             in
             (app, outcome, dt))
          apps)
    in
    List.iter
      (fun (app, outcome, _) ->
         Outcome.attempt out;
         Outcome.check out (check_report ~engine app outcome);
         match outcome with
         | Supervisor.File_completed r -> Hashtbl.replace latest app.a.Inputs.name r
         | Supervisor.File_failed _ -> Hashtbl.remove latest app.a.Inputs.name)
      rows;
    (wall, List.map (fun (_, _, dt) -> dt) rows)
  in
  if not traced then begin
    let passes = repeat ~seconds (fun _ -> untraced_pass ()) in
    end_to_end out ~names:(List.map (fun app -> app.a.Inputs.name) apps) ~events ~passes
  end
  else begin
    let accesses = List.fold_left (fun n app -> n + accesses app.a) 0 apps in
    let last = ref [] in
    let traced_pass () =
      let replicas, wall =
        timed (fun () ->
          Spans.with_span ~op:"pass" "pass" (fun () ->
            List.map
              (fun app ->
                 (app, try Ok (replica ~engine app.a) with e -> Error (Printexc.to_string e)))
              apps))
      in
      List.iter
        (fun (app, r) ->
           Outcome.attempt out;
           Outcome.check out
             (match r with
              | Error msg -> Some (Printf.sprintf "%s: traced pass: %s" app.a.Inputs.name msg)
              | Ok r ->
                check_replica ~engine app r (Hashtbl.find_opt latest app.a.Inputs.name)))
        replicas;
      last := List.filter_map (fun (_, r) -> Result.to_option r) replicas;
      wall
    in
    let untraced_walls, traced, traced_walls =
      alternate ~seconds ~untraced:(fun () -> fst (untraced_pass ())) ~traced:traced_pass
    in
    let table = Spans.self_times () in
    layer_times out table ~passes:traced;
    layer_counts out table ~passes:traced ~file_events:events ~accesses !last;
    overhead out table ~traced ~untraced_walls ~traced_walls
  end

(* {1 The long trace} *)

let long_races path =
  match Streaming_engine.detect_file path with
  | Ok (races, _) -> Ok races
  | Error e -> Error (Trace_io.read_error_message e)

let check_recall (l : Inputs.long) races =
  let found = Hashtbl.create 64 in
  List.iter
    (fun r -> Hashtbl.replace found (Ident.Location.to_string (Race.location r)) ())
    races;
  match List.filter (fun l -> not (Hashtbl.mem found l)) l.Inputs.l_planted with
  | [] -> None
  | missed ->
    Some
      (Printf.sprintf "long trace: %d of %d planted races missed (first %s)"
         (List.length missed) (List.length l.Inputs.l_planted) (List.hd missed))

let long_replica (l : Inputs.long) =
  Spans.with_span ~op:(Filename.basename l.Inputs.l_path) "streaming.detect_file"
  @@ fun () ->
  let events =
    Spans.with_span "trace.decode" (fun () ->
      Trace_io.fold_events l.Inputs.l_path ~init:[] ~f:(fun acc ~line:_ e -> e :: acc))
    |> Result.map_error Trace_io.read_error_message
    |> ok_or_fail |> List.rev |> Array.of_list
  in
  let (races, stats), alloc =
    Spans.with_span "streaming.feed" (fun () ->
      with_alloc (fun () -> feed_all (fun f -> Array.iteri f events)))
  in
  { pairs = Inputs.pairs races
  ; locations = []
  ; races = List.length races
  ; distinct = 0
  ; by_category = []
  ; events = Array.length events
  ; nodes = 0
  ; word_ors = 0
  ; hb_passes = 0
  ; hb_alloc = 0.0
  ; stream = Some (stats, alloc)
  }

let long ~seconds ~traced (inputs : Inputs.t) out =
  let l = Option.get inputs.Inputs.long in
  let latest = ref [] in
  let untraced_pass () =
    let races, wall = timed (fun () -> long_races l.Inputs.l_path) in
    Outcome.attempt out;
    (match races with
     | Error msg -> Outcome.check out (Some ("long trace: " ^ msg))
     | Ok races ->
       latest := Inputs.pairs races;
       Outcome.check out (check_recall l races));
    wall
  in
  if not traced then begin
    let walls = repeat ~seconds (fun _ -> untraced_pass ()) in
    end_to_end out ~names:[ "longtrace" ] ~events:l.Inputs.l_events
      ~passes:(List.map (fun w -> (w, [ w ])) walls)
  end
  else begin
    let accesses =
      match
        Trace_io.fold_events l.Inputs.l_path ~init:0 ~f:(fun n ~line:_ e ->
          match e.Trace.op with Operation.Read _ | Operation.Write _ -> n + 1 | _ -> n)
      with
      | Ok n -> n
      | Error e -> failwith (Trace_io.read_error_message e)
    in
    let last = ref [] in
    let traced_pass () =
      let r, wall =
        timed (fun () -> Spans.with_span ~op:"pass" "pass" (fun () -> long_replica l))
      in
      Outcome.attempt out;
      Outcome.check out
        (if r.pairs <> !latest then
           Some
             (Printf.sprintf "long trace: traced run found %d races, untraced %d"
                r.races (List.length !latest))
         else None);
      last := [ r ];
      wall
    in
    let untraced_walls, traced, traced_walls =
      alternate ~seconds ~untraced:untraced_pass ~traced:traced_pass
    in
    let table = Spans.self_times () in
    layer_times out table ~passes:traced;
    layer_counts out table ~passes:traced ~file_events:l.Inputs.l_events ~accesses !last;
    overhead out table ~traced ~untraced_walls ~traced_walls
  end
