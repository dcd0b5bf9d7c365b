open! Import

(* The request → response workload: droidracerd with its default
   configuration (two workers, journal on, spool in the run's work
   directory), driven by a closed loop — one process, one thread,
   [nproc] connections, each sending its next request only once the
   previous one has been answered, as [droidracer submit] callers do.
   Requests carry the eight smallest catalog traces, in an order drawn
   from the seed, with [engine=auto]; every latency is taken from the
   send of the request frame to the terminal response.

   Traced, the first half of the run repeats the untraced loop and the
   second half splits each request into its durable-accept ack
   ([wait=false]) and a second frame that attaches to the result; the
   response's queue and engine seconds split the rest.  The layer
   calls inside a request are then timed by re-enacting the
   requests' analyses in the harness ({!Batch.replica}). *)

let endpoint dir = Wire.Unix_socket (Filename.concat dir "d.sock")

(* {1 Daemon lifecycle} *)

let health_ready endpoint =
  match Client.once endpoint Wire.Health with
  | Ok json -> Json_parse.member "ready" json = Some (Json_parse.Bool true)
  | Error _ -> false

(* Fork droidracerd and wait until it reports ready. *)
let start ~dir =
  let spool = Filename.concat dir "spool" in
  let config =
    { (Server.default_config (endpoint dir)) with
      Server.spool_dir = spool
    ; journal_path = Some (Filename.concat spool "journal.bin")
    }
  in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try
       let log =
         Unix.openfile (Filename.concat dir "daemon.log")
           [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
       in
       Unix.dup2 log Unix.stderr;
       Unix.close log
     with Unix.Unix_error _ -> ());
    (match Server.run config with
     | () -> Unix._exit 0
     | exception _ -> Unix._exit 2)
  | pid ->
    let deadline = now () +. 30.0 in
    let rec wait () =
      if health_ready (endpoint dir) then ()
      else if now () > deadline then failwith "droidracerd never became ready"
      else begin
        Unix.sleepf 0.002;
        wait ()
      end
    in
    (try wait ()
     with e ->
       (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
       ignore (Unix.waitpid [] pid);
       raise e);
    pid

let proc_lines path =
  try In_channel.with_open_text path In_channel.input_all with Sys_error _ -> ""

let workers pid =
  proc_lines (Printf.sprintf "/proc/%d/task/%d/children" pid pid)
  |> String.split_on_char ' '
  |> List.filter_map int_of_string_opt

let vm_hwm_kb pid =
  proc_lines (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
    if String.starts_with ~prefix:"VmHWM:" line then
      Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id
    else None)
  |> Option.value ~default:0

(* A process has ended once it is gone or a zombie. *)
let ended pid =
  match proc_lines (Printf.sprintf "/proc/%d/stat" pid) with
  | "" -> true
  | stat ->
    (match String.rindex_opt stat ')' with
     | Some i when i + 2 < String.length stat -> stat.[i + 2] = 'Z'
     | _ -> true)

(* SIGTERM the daemon (it drains and reaps its workers), wait for it,
   and make sure no worker outlives it.  [Error] on an unclean stop. *)
let stop pid =
  let fleet = workers pid in
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec reap () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  let status = reap () in
  let deadline = now () +. 10.0 in
  let rec linger () =
    match List.filter (fun w -> not (ended w)) fleet with
    | [] -> Ok ()
    | alive when now () > deadline ->
      List.iter (fun w -> try Unix.kill w Sys.sigkill with Unix.Unix_error _ -> ()) alive;
      Error (Printf.sprintf "%d worker(s) outlived droidracerd" (List.length alive))
    | _ ->
      Unix.sleepf 0.01;
      linger ()
  in
  match (status, linger ()) with
  | Unix.WEXITED 0, r -> r
  | _, Error e -> Error e
  | _, Ok () -> Error "droidracerd did not exit cleanly on SIGTERM"

(* {1 The closed loop} *)

type request =
  { id : string
  ; app : Batch.app
  ; bytes : string
  ; sent : float
  ; root : int  (* span id, when traced *)
  ; mutable acked : float  (* traced: the durable-accept ack *)
  }

type sample =
  { latency : float  (* infinity when refused *)
  ; queue : float
  ; engine : float
  ; admit : float  (* traced only *)
  ; events : int
  ; completed : bool
  ; degraded : bool
  }

(* The oracle on one response. *)
let check_response (req : request) json =
  let name = req.app.Batch.a.Inputs.name in
  let num key = Option.value (Wire.response_num key json) ~default:(-1.0) in
  let str key = Option.value (Wire.response_str key json) ~default:"" in
  match Wire.response_status json with
  | "completed" ->
    let locations =
      Option.value
        (Option.bind (Json_parse.member "locations" json) Json_parse.to_list)
        ~default:[]
      |> List.filter_map Json_parse.to_string
    in
    if int_of_float (num "events") <> req.app.Batch.a.Inputs.events then
      Some (Printf.sprintf "%s: %s: %.0f events" req.id name (num "events"))
    else if int_of_float (num "distinct_races") <> req.app.Batch.total then
      Some
        (Printf.sprintf "%s: %s: %.0f distinct races, Table 3 wants %d (engine %s)"
           req.id name (num "distinct_races") req.app.Batch.total (str "engine"))
    else begin
      match List.find_opt (fun l -> not (Hashtbl.mem req.app.Batch.plant_of l)) locations with
      | Some l -> Some (Printf.sprintf "%s: %s: racy location %s is not planted" req.id name l)
      | None -> None
    end
  | status ->
    Some (Printf.sprintf "%s: %s: status %s %s" req.id name status (str "reason"))

type loop =
  { endpoint : Wire.endpoint
  ; apps : (Batch.app * string) array  (* with the encoded trace *)
  ; rng : Random.State.t
  ; tag : string
  ; mutable order : int list  (* the rest of the current seeded round *)
  ; mutable issued : int
  ; mutable retries : int
  }

let next_app loop =
  (match loop.order with
   | [] ->
     let n = Array.length loop.apps in
     let a = Array.init n Fun.id in
     for i = n - 1 downto 1 do
       let j = Random.State.int loop.rng (i + 1) in
       let t = a.(i) in
       a.(i) <- a.(j);
       a.(j) <- t
     done;
     loop.order <- Array.to_list a
   | _ :: _ -> ());
  match loop.order with
  | i :: rest ->
    loop.order <- rest;
    loop.apps.(i)
  | [] -> assert false

let analyze ~id ~wait ~bytes =
  Wire.Analyze
    { a_id = id
    ; a_engine = "auto"
    ; a_timeout = None
    ; a_sleep = 0.0
    ; a_trace_bytes = String.length bytes
    ; a_wait = wait
    }

let send fd request ~bytes =
  Proc_pool.write_frame fd (Bytes.of_string (Wire.request_json request));
  if bytes <> "" then Proc_pool.write_frame fd (Bytes.unsafe_of_string bytes)

(* Run the closed loop: every connection keeps one request in flight
   until [more ()] turns false; returns one sample per request. *)
let closed_loop loop ~connections ~traced ~more ~on_sample =
  let conns =
    List.init connections (fun _ ->
      match Client.connect loop.endpoint with
      | Ok c -> c
      | Error e -> failwith ("connect: " ^ e))
  in
  let inflight = Hashtbl.create 8 in
  let issue (c : Client.t) =
    let app, bytes = next_app loop in
    loop.issued <- loop.issued + 1;
    let id = Printf.sprintf "%s-%d" loop.tag loop.issued in
    let root = if traced then Spans.reserve () else 0 in
    let req = { id; app; bytes; sent = now (); root; acked = 0.0 } in
    send c.Client.fd (analyze ~id ~wait:(not traced) ~bytes) ~bytes;
    Hashtbl.replace inflight c.Client.fd (c, req)
  in
  let finish (c : Client.t) req json =
    let t = now () in
    let num key = Option.value (Wire.response_num key json) ~default:0.0 in
    let status = Wire.response_status json in
    if status = "overloaded" || status = "draining" then loop.retries <- loop.retries + 1;
    if traced then begin
      let op = req.id in
      ignore (Spans.add ~parent:req.root ~op ~t0:req.sent ~t1:req.acked "service.admit");
      ignore (Spans.add ~parent:req.root ~op ~t0:req.acked ~t1:t "service.result");
      ignore (Spans.add ~id:req.root ~op ~t0:req.sent ~t1:t "service.request")
    end;
    let completed = status = "completed" in
    on_sample req json
      { latency = (if completed then t -. req.sent else Float.infinity)
      ; queue = num "queue_seconds"
      ; engine = num "elapsed_seconds"
      ; admit = req.acked -. req.sent
      ; events = (if completed then int_of_float (num "events") else 0)
      ; completed
      ; degraded =
          Wire.engine_rank (Option.value (Wire.response_str "engine" json) ~default:"auto")
          > Wire.engine_rank "auto"
      };
    Hashtbl.remove inflight c.Client.fd;
    if more () then issue c
  in
  let receive fd =
    let c, req = Hashtbl.find inflight fd in
    match Proc_pool.read_frame fd with
    | None -> failwith "droidracerd closed the connection"
    | Some frame ->
      (match Wire.parse_response (Bytes.to_string frame) with
       | Error e -> failwith e
       | Ok json ->
         if traced && req.acked = 0.0 then begin
           req.acked <- now ();
           if Wire.response_status json = "accepted" then
             send fd (analyze ~id:req.id ~wait:true ~bytes:"") ~bytes:""
           else finish c req json
         end
         else finish c req json)
  in
  List.iter (fun c -> if more () then issue c) conns;
  while Hashtbl.length inflight > 0 do
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) inflight [] in
    match Unix.select fds [] [] 60.0 with
    | [], _, _ -> failwith "no response from droidracerd in 60s"
    | readable, _, _ -> List.iter receive readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.iter Client.close conns

(* {1 The workload} *)

let connections () = max 1 (Domain.recommended_domain_count ())

(* Requests until [seconds] have gone by, then drain; returns the
   samples and the window's wall time. *)
let window loop ~traced ~seconds out =
  let samples = ref [] in
  let start = now () in
  closed_loop loop ~connections:(connections ()) ~traced
    ~more:(fun () -> now () -. start < seconds)
    ~on_sample:(fun req json sample ->
      Outcome.attempt out;
      Outcome.check out (check_response req json);
      samples := sample :: !samples);
  (List.rev !samples, now () -. start)

let run ~dir ~pid ~seed ~seconds ~traced (inputs : Inputs.t) out =
  let apps =
    Array.of_list
      (List.map
         (fun a -> (Batch.prepare a, In_channel.with_open_bin a.Inputs.path In_channel.input_all))
         inputs.Inputs.apps)
  in
  let loop =
    { endpoint = endpoint dir
    ; apps
    ; rng = Random.State.make [| seed |]
    ; tag = Printf.sprintf "pb%d" seed
    ; order = []
    ; issued = 0
    ; retries = 0
    }
  in
  (* Warm-up, untimed: one request per trace. *)
  let warm = ref 0 in
  closed_loop loop ~connections:(connections ()) ~traced:false
    ~more:(fun () -> incr warm; !warm <= Array.length apps)
    ~on_sample:(fun req json _ ->
      Outcome.attempt out;
      Outcome.check out (check_response req json));
  let completed samples = List.filter (fun s -> s.completed) samples in
  let rate samples wall = float_of_int (List.length (completed samples)) /. wall in
  if not traced then begin
    let samples, wall = window loop ~traced:false ~seconds out in
    let latencies = List.map (fun s -> s.latency) samples in
    let events = List.fold_left (fun n s -> n + s.events) 0 samples in
    Outcome.metric out "events_per_s" "events/s" (float_of_int events /. wall);
    Outcome.metric out "req_per_s" "req/s" (rate samples wall);
    Outcome.metric out "latency_p50_s" "s" (Stats.median latencies);
    Outcome.metric out "latency_p90_s" "s" (Stats.quantile latencies 0.9);
    let fleet = pid :: workers pid in
    Outcome.metric out "peak_rss_mib" "MiB"
      (Batch.mib_of_kb (List.fold_left (fun m p -> max m (vm_hwm_kb p)) 0 fleet));
    Outcome.note out
      "%d requests on %d connections in %.3fs; latency over %d samples (%d beyond p90)"
      (List.length samples) (connections ()) wall (List.length latencies)
      (Stats.beyond latencies 0.9)
  end
  else begin
    (* Plain and split windows alternate, a quarter of the run each. *)
    Spans.set_pass 1;
    let windows =
      List.map
        (fun traced -> (traced, window loop ~traced ~seconds:(seconds /. 4.0) out))
        [ false; true; false; true ]
    in
    let pick traced =
      let ws = List.filter (fun (t, _) -> t = traced) windows in
      ( List.concat_map (fun (_, (samples, _)) -> samples) ws
      , List.fold_left (fun acc (_, (_, wall)) -> acc +. wall) 0.0 ws )
    in
    let plain, plain_wall = pick false in
    let split, split_wall = pick true in
    let done_ = completed split in
    let p q f = Stats.quantile (List.map f done_) q in
    Outcome.metric out "service.admit_s_p50" "s" (p 0.5 (fun s -> s.admit));
    Outcome.metric out "service.queue_s_p50" "s" (p 0.5 (fun s -> s.queue));
    Outcome.metric out "service.queue_s_p90" "s" (p 0.9 (fun s -> s.queue));
    Outcome.metric out "service.engine_s_p50" "s" (p 0.5 (fun s -> s.engine));
    Outcome.metric out "service.overhead_s_p50" "s"
      (p 0.5 (fun s -> s.latency -. s.queue -. s.engine));
    Outcome.metric out "service.retries" "count" (float_of_int loop.retries);
    Outcome.metric out "service.degraded_frac" "fraction"
      (Batch.ratio
         (float_of_int (List.length (List.filter (fun s -> s.degraded) done_)))
         (float_of_int (List.length done_)));
    Outcome.metric out "bench.tracing_overhead_frac" "fraction"
      (rate plain plain_wall /. rate split split_wall -. 1.0);
    let queued = List.map (fun s -> s.queue) done_ in
    Outcome.note out "split requests: %d samples (%d beyond the queue p90)"
      (List.length done_) (Stats.beyond queued 0.9);
    (* The layers inside a request, by re-enacting the analyses the
       workers ran: three passes over the eight traces. *)
    let passes = [ 2; 3; 4 ] in
    let last = ref [] in
    List.iter
      (fun i ->
         Spans.set_pass i;
         last :=
           Spans.with_span ~op:"pass" "pass" (fun () ->
             Array.to_list
               (Array.map (fun (app, _) -> Batch.replica ~engine:Batch.Dense app.Batch.a) apps)))
      passes;
    List.iter2
      (fun (app, _) r ->
         Outcome.attempt out;
         Outcome.check out
           (if r.Batch.distinct <> app.Batch.total then
              Some
                (Printf.sprintf "%s: re-enactment found %d distinct races, Table 3 wants %d"
                   app.Batch.a.Inputs.name r.Batch.distinct app.Batch.total)
            else None))
      (Array.to_list apps) !last;
    let accesses = Array.fold_left (fun n (app, _) -> n + Batch.accesses app.Batch.a) 0 apps in
    let table = Spans.self_times () in
    Batch.layer_times out table ~passes;
    Batch.layer_counts out table ~passes
      ~file_events:(Array.fold_left (fun n (app, _) -> n + app.Batch.a.Inputs.events) 0 apps)
      ~accesses !last
  end
