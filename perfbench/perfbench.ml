open! Import

(* perfbench: the repository's benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Sets up the workload's inputs (at least three times, reporting the
   median as [setup_s]), measures for S seconds, checks every answer against the
   generators' ground truth, and prints one line per metric followed by
   a final JSON line:

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   With [--trace 0] the metrics are the end-to-end ones, measured with
   no spans recorded; with [--trace 1] they are the per-layer ones, and
   the spans are written to .perfbench-out/ when the run ends.  The
   workloads and metrics are documented in README.md beside this
   file. *)

let end_to_end =
  [ ("events_per_s", "events/s")
  ; ("req_per_s", "req/s")
  ; ("latency_p50_s", "s")
  ; ("latency_p90_s", "s")
  ; ("peak_rss_mib", "MiB")
  ; ("setup_s", "s")
  ]

let per_layer =
  [ ("trace.decode_s", "s")
  ; ("trace.decode_events_per_s", "events/s")
  ; ("wellformed.check_s", "s")
  ; ("trace.remove_cancelled_s", "s")
  ; ("graph.build_s", "s")
  ; ("graph.nodes_per_event", "nodes/event")
  ; ("happens_before.compute_s", "s")
  ; ("happens_before.word_ors", "count")
  ; ("happens_before.passes", "count")
  ; ("happens_before.alloc_words", "words")
  ; ("race.detect_s", "s")
  ; ("race.accesses", "count")
  ; ("race.races", "count")
  ; ("classify.classify_s", "s")
  ; ("trace.stats_s", "s")
  ; ("happens_before.edge_count_s", "s")
  ; ("supervisor.self_s", "s")
  ; ("streaming.feed_s", "s")
  ; ("streaming.events_per_s", "events/s")
  ; ("streaming.alloc_words_per_event", "words/event")
  ; ("streaming.peak_live_slots", "count")
  ; ("streaming.peak_clock_entries", "count")
  ; ("streaming.fast_path_ratio", "ratio")
  ; ("streaming.comparisons_per_access", "ratio")
  ; ("streaming.promotions", "count")
  ; ("streaming.folded_tasks", "count")
  ; ("streaming.gc_sweeps", "count")
  ; ("service.admit_s_p50", "s")
  ; ("service.queue_s_p50", "s")
  ; ("service.queue_s_p90", "s")
  ; ("service.engine_s_p50", "s")
  ; ("service.overhead_s_p50", "s")
  ; ("service.retries", "count")
  ; ("service.degraded_frac", "fraction")
  ; ("bench.tracing_overhead_frac", "fraction")
  ]

let workloads = [ "catalog-dense"; "catalog-stream"; "longtrace-stream"; "daemon-small" ]

let setup_repeats = 3
let setup_window = 2.0

(* {1 Arguments} *)

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";
  prerr_endline ("workloads: " ^ String.concat ", " workloads);
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace
    when List.mem !workload workloads && seconds > 0.0 ->
    (!workload, seed, seconds, trace)
  | _ -> usage ()

(* {1 The work directory}

   Everything a run writes lives under the current directory: inputs,
   the daemon's socket, spool and journal in .perfbench-work/<pid>
   (removed at exit), spans in .perfbench-out/. *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

(* The running droidracerd: its pid and state directory. *)
let daemon = ref None

let stop_daemon () =
  match !daemon with
  | None -> Ok ()
  | Some (pid, _) ->
    daemon := None;
    Daemon.stop pid

(* {1 Set-up} *)

(* One set-up: generate and encode the inputs (in a forked child), and
   for the daemon workload start droidracerd until it reports ready.
   Returns the inputs and the set-up seconds. *)
let setup ~workload ~dir ~seed ~traced ~rep =
  match workload with
  | "catalog-dense" | "catalog-stream" ->
    let dense_pairs = workload = "catalog-stream" && traced && rep >= setup_repeats in
    let inputs =
      Inputs.in_child ~dir (fun () -> Inputs.catalog ~dir ~dense_pairs Catalog.all)
    in
    (inputs, inputs.Inputs.generate_s)
  | "longtrace-stream" ->
    let inputs = Inputs.in_child ~dir (fun () -> Inputs.longtrace ~dir ~seed) in
    (inputs, inputs.Inputs.generate_s)
  | _ ->
    let inputs =
      Inputs.in_child ~dir (fun () ->
        Inputs.catalog ~dir ~dense_pairs:false (Inputs.small_specs ()))
    in
    let daemon_dir = Filename.concat dir (Printf.sprintf "daemon%d" rep) in
    mkdir_p daemon_dir;
    let t0 = now () in
    daemon := Some (Daemon.start ~dir:daemon_dir, daemon_dir);
    let started = now () -. t0 in
    (inputs, inputs.Inputs.generate_s +. started)

(* {1 Output} *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else Printf.sprintf "%.17g" Float.max_float

let print_result ~catalogue (out : Outcome.t) =
  let value name =
    match List.find_opt (fun m -> m.Outcome.name = name) out.Outcome.metrics with
    | Some m -> m.Outcome.value
    | None -> 0.0
  in
  List.iter (fun n -> Printf.printf "note: %s\n" n) (List.rev out.Outcome.notes);
  List.iter (fun c -> Printf.printf "FAILED: %s\n" c) (List.rev out.Outcome.complaints);
  List.iter
    (fun (name, unit_) -> Printf.printf "%-34s %16.6f %s\n" name (value name) unit_)
    catalogue;
  Printf.printf "%-34s %16.6f fraction (%d failed of %d attempted)\n" "error_rate"
    (Batch.ratio (float_of_int out.Outcome.failed) (float_of_int out.Outcome.attempted))
    out.Outcome.failed out.Outcome.attempted;
  let metrics =
    List.map
      (fun (name, unit_) ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Spans.json_string name)
           (json_number (value name)) (Spans.json_string unit_))
      catalogue
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (out.Outcome.failed = 0 && out.Outcome.attempted > 0)
    (max 1 out.Outcome.attempted) out.Outcome.failed
    (String.concat ", " metrics)

(* {1 Main} *)

(* Set up at least [setup_repeats] times, and until [setup_window]
   seconds have gone by, so a cheap set-up's median rests on many
   samples; the last set-up's inputs (and daemon) are the ones used. *)
let run ~workload ~seed ~seconds ~traced ~dir =
  let out = Outcome.create () in
  let started = now () in
  let rec set_up rep acc =
    let inputs, dt = setup ~workload ~dir ~seed ~traced ~rep in
    if rep < setup_repeats || now () -. started < setup_window then begin
      (match stop_daemon () with Ok () -> () | Error e -> Outcome.fail out e);
      set_up (rep + 1) (dt :: acc)
    end
    else (inputs, dt :: acc)
  in
  let inputs, times = set_up 1 [] in
  let setup_s = Stats.median times in
  Outcome.note out "set-up: median %.4fs of %d (%.4fs to %.4fs)" setup_s
    (List.length times) (List.fold_left Float.min Float.infinity times)
    (List.fold_left Float.max 0.0 times);
  if not traced then Outcome.metric out "setup_s" "s" setup_s;
  (match workload with
   | "catalog-dense" -> Batch.catalog ~engine:Batch.Dense ~seconds ~traced inputs out
   | "catalog-stream" -> Batch.catalog ~engine:Batch.Stream ~seconds ~traced inputs out
   | "longtrace-stream" -> Batch.long ~seconds ~traced inputs out
   | _ ->
     (match !daemon with
      | Some (pid, dir) -> Daemon.run ~dir ~pid ~seed ~seconds ~traced inputs out
      | None -> Outcome.fail out "droidracerd is not running"));
  (match stop_daemon () with Ok () -> () | Error e -> Outcome.fail out e);
  out

let () =
  let workload, seed, seconds, traced = parse_args () in
  let main = Unix.getpid () in
  let dir = Filename.concat ".perfbench-work" (string_of_int main) in
  mkdir_p dir;
  at_exit (fun () ->
    (* Forked children leave with [_exit]; this guards against one
       that does not. *)
    if Unix.getpid () = main then begin
      ignore (stop_daemon ());
      rm_rf dir;
      try Sys.rmdir ".perfbench-work" with Sys_error _ -> ()
    end);
  (* A run stopped from outside still stops droidracerd. *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\n%!" workload seed
    seconds (if traced then 1 else 0);
  match run ~workload ~seed ~seconds ~traced ~dir with
  | out ->
    if traced then begin
      mkdir_p ".perfbench-out";
      Spans.write
        (Printf.sprintf ".perfbench-out/spans-%s-seed%d.json" workload seed)
        ~meta:[ ("workload", workload); ("seed", string_of_int seed) ]
    end;
    print_result ~catalogue:(if traced then per_layer else end_to_end) out
  | exception e ->
    Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
    exit 1
