open! Import
module Thread_id = Ident.Thread_id
module Task_id = Ident.Task_id
module Lock_id = Ident.Lock_id
module Location = Ident.Location
module Vc = Vector_clock
module Task_tbl = Hashtbl.Make (Task_id)
module Lock_tbl = Hashtbl.Make (Lock_id)
module Location_tbl = Hashtbl.Make (Location)

type config =
  { completed_window : int
  ; gc_interval : int
  }

let default_config = { completed_window = 64; gc_interval = 4096 }

type stats =
  { events : int
  ; slots_allocated : int
  ; live_slots : int
  ; peak_live_slots : int
  ; slots_retired : int
  ; resident_clock_entries : int
  ; peak_clock_entries : int
  ; fast_path : int
  ; promotions : int
  ; demotions : int
  ; comparisons : int
  ; folded_tasks : int
  ; chained_tasks : int
  ; gc_sweeps : int
  ; races : int
  }

(* The post of a task, remembered until its [begin] consumes it.  The
   epoch (p_slot, p_time) stands in for the whole post clock in the
   FIFO premise: in this transition system, knowing an event's epoch is
   equivalent to dominating the event's entire clock (knowledge only
   propagates by merging full clocks), so the O(slots) [Vc.leq] of
   {!Clock_engine} collapses to one O(log) lookup — which is what lets
   retired slots be purged from resident clocks. *)
type pending_post =
  { p_clock : Vc.t
  ; p_slot : int
  ; p_time : int
  ; p_flavour : Operation.post_flavour
  }

(* A completed task, remembered (up to the window) for the FIFO and
   NOPRE checks at later [begin]s on the same thread.  Several records
   may share [c_slot] when tasks continued their thread's chain; their
   time ranges on it are disjoint and increasing. *)
type completed =
  { c_slot : int
  ; c_begin_time : int
        (** the slot's time at the task's [begin]: a clock holding at
            least this much of [c_slot] knows the task has begun
            (NOPRE) — [>= 1] would also accept an earlier task of the
            same chain *)
  ; c_post_slot : int
  ; c_post_time : int
  ; c_end_clock : Vc.t
  ; c_end_time : int
        (** [Vc.get c_end_clock c_slot] — the task's final local time.
            Every event ticks the executing slot, and only a later task
            whose begin clock already dominates [c_end_clock] may tick
            the slot again, so this time is {e unique} to [c_end_clock]
            among all clocks ever exported: a clock holding the slot at
            [c_end_time] or later necessarily descends from
            [c_end_clock] and so already dominates it.  That turns the
            per-record merge decision at [begin] into an O(log) epoch
            probe. *)
  ; c_flavour : Operation.post_flavour
  }

type thread_ctx =
  { mutable slot : int
  ; mutable clock : Vc.t
  ; mutable in_task : Task_id.t option
  ; mutable current_post : pending_post option
  ; mutable loop_clock : Vc.t option
  ; mutable begin_time : int  (** the running task's [c_begin_time] *)
  ; mutable chain : int
        (** the slot of the last task run on this thread, -1 before the
            first [end] *)
  ; mutable chain_time : int
        (** [chain]'s time at that task's [end]: the slot's latest
            time, produced by that event alone *)
  ; mutable completed : completed list  (** newest first, ≤ window *)
  ; mutable completed_len : int
  ; mutable folded_ends : Vc.t
        (** join of the end clocks of every completed task evicted from
            the window; merged into every later [begin] — an
            over-approximation of FIFO/NOPRE, so it only ever {e adds}
            orderings (loses races, never invents them) *)
  }

type loc_state =
  { mutable writes : Race.access Epoch.t
  ; mutable reads : Race.access Epoch.t
  }

type t =
  { cfg : config
  ; mutable next_slot : int
  ; threads : (int, thread_ctx) Hashtbl.t
  ; fork_clocks : (int, Vc.t) Hashtbl.t
  ; exit_clocks : (int, Vc.t) Hashtbl.t
  ; attach_clocks : (int, Vc.t) Hashtbl.t
  ; lock_clocks : Vc.t Lock_tbl.t
  ; enable_clocks : Vc.t Task_tbl.t
  ; posts : pending_post Task_tbl.t
  ; locations : loc_state Location_tbl.t
  ; mutable races : Race.t list
  ; mutable events : int
  ; mutable fast_path : int
  ; mutable promotions : int
  ; mutable demotions : int
  ; mutable comparisons : int
  ; mutable folded_tasks : int
  ; mutable chained_tasks : int
  ; mutable gc_sweeps : int
  ; mutable live_slots : int
  ; mutable peak_live_slots : int
  ; mutable resident_clock_entries : int
  ; mutable peak_clock_entries : int
  }

let create ?(config = default_config) () =
  { cfg = config
  ; next_slot = 0
  ; threads = Hashtbl.create 16
  ; fork_clocks = Hashtbl.create 8
  ; exit_clocks = Hashtbl.create 8
  ; attach_clocks = Hashtbl.create 8
  ; lock_clocks = Lock_tbl.create 8
  ; enable_clocks = Task_tbl.create 16
  ; posts = Task_tbl.create 64
  ; locations = Location_tbl.create 64
  ; races = []
  ; events = 0
  ; fast_path = 0
  ; promotions = 0
  ; demotions = 0
  ; comparisons = 0
  ; folded_tasks = 0
  ; chained_tasks = 0
  ; gc_sweeps = 0
  ; live_slots = 0
  ; peak_live_slots = 0
  ; resident_clock_entries = 0
  ; peak_clock_entries = 0
  }

let fresh_slot t =
  let s = t.next_slot in
  t.next_slot <- s + 1;
  s

let ctx t tid =
  match Hashtbl.find_opt t.threads (Thread_id.to_int tid) with
  | Some c -> c
  | None ->
    let c =
      { slot = fresh_slot t
      ; clock = Vc.empty
      ; in_task = None
      ; current_post = None
      ; loop_clock = None
      ; begin_time = 0
      ; chain = -1
      ; chain_time = 0
      ; completed = []
      ; completed_len = 0
      ; folded_ends = Vc.empty
      }
    in
    Hashtbl.add t.threads (Thread_id.to_int tid) c;
    c

(* {2 Retired-slot garbage collection}

   A slot can appear as the {e subject} of a future [Vc.get] only while
   something still holds it as a comparison key: a frontier entry, a
   completed-window record (its own slot for NOPRE, its post epoch for
   FIFO), a pending post's epoch, or a live context's current slot or
   chain (probed by the chain rule at the next [begin]).
   Once none do, the slot is retired: its entries in resident clocks
   are pure payload that no comparison will ever read, so dropping them
   cannot change any future answer — the sweep is invisible to the
   race set, it only bounds memory. *)

(* The live slots as a byte per allocated slot, with their count:
   membership is one load, where the sweep asks it of every entry of
   every resident clock. *)
let live_slots t =
  let live = Bytes.make t.next_slot '\000' in
  let count = ref 0 in
  let add s =
    if Bytes.get live s = '\000' then begin
      Bytes.set live s '\001';
      incr count
    end
  in
  Hashtbl.iter
    (fun _ c ->
       add c.slot;
       if c.chain >= 0 then add c.chain;
       List.iter
         (fun comp ->
            add comp.c_slot;
            add comp.c_post_slot)
         c.completed)
    t.threads;
  Task_tbl.iter (fun _ (p : pending_post) -> add p.p_slot) t.posts;
  Location_tbl.iter
    (fun _ l ->
       Epoch.fold (fun e () -> add e.Epoch.slot) l.writes ();
       Epoch.fold (fun e () -> add e.Epoch.slot) l.reads ())
    t.locations;
  (live, !count)

let sweep t =
  let live, live_count = live_slots t in
  let keep s = Bytes.get live s <> '\000' in
  let resident = ref 0 in
  let purge vc =
    let vc = Vc.retain keep vc in
    resident := !resident + Vc.cardinal vc;
    vc
  in
  let purge_opt = Option.map purge in
  let purge_tbl tbl = Hashtbl.filter_map_inplace (fun _ vc -> Some (purge vc)) tbl in
  Hashtbl.iter
    (fun _ c ->
       c.clock <- purge c.clock;
       c.loop_clock <- purge_opt c.loop_clock;
       c.folded_ends <- purge c.folded_ends;
       c.completed <-
         List.map (fun comp -> { comp with c_end_clock = purge comp.c_end_clock })
           c.completed)
    t.threads;
  purge_tbl t.fork_clocks;
  purge_tbl t.exit_clocks;
  purge_tbl t.attach_clocks;
  Lock_tbl.filter_map_inplace (fun _ vc -> Some (purge vc)) t.lock_clocks;
  Task_tbl.filter_map_inplace (fun _ vc -> Some (purge vc)) t.enable_clocks;
  Task_tbl.filter_map_inplace
    (fun _ (p : pending_post) -> Some { p with p_clock = purge p.p_clock })
    t.posts;
  t.gc_sweeps <- t.gc_sweeps + 1;
  t.live_slots <- live_count;
  t.peak_live_slots <- max t.peak_live_slots t.live_slots;
  t.resident_clock_entries <- !resident;
  t.peak_clock_entries <- max t.peak_clock_entries !resident;
  if Obs.enabled () then begin
    Obs.add "streaming.gc_sweeps";
    Obs.set_gauge "streaming.live_slots" (float_of_int t.live_slots);
    Obs.set_gauge "streaming.retired_slots"
      (float_of_int (t.next_slot - t.live_slots));
    Obs.set_gauge "streaming.resident_clock_entries" (float_of_int !resident);
    (* The memory frontier over time: every sweep appends a live-slot
       watermark sample, and the rate-limited resource sampler rides
       along so RSS and heap series line up with it. *)
    Obs.record_series "streaming.live_slots" (float_of_int t.live_slots);
    Obs.record_series "streaming.resident_clock_entries"
      (float_of_int !resident);
    Obs.maybe_sample ()
  end

let loc_state t location =
  match Location_tbl.find_opt t.locations location with
  | Some l -> l
  | None ->
    let l = { writes = Epoch.bottom; reads = Epoch.bottom } in
    Location_tbl.add t.locations location l;
    l

let count_outcome t = function
  | Epoch.Fast_path -> t.fast_path <- t.fast_path + 1
  | Epoch.Promoted -> t.promotions <- t.promotions + 1
  | Epoch.Demoted -> t.demotions <- t.demotions + 1
  | Epoch.Stayed -> ()

let report t (access : Race.access) (prev : Race.access Epoch.entry list) =
  List.iter
    (fun (e : Race.access Epoch.entry) ->
       t.races <- { Race.first = e.Epoch.payload; second = access } :: t.races)
    prev

let record_access t c position location is_write tid =
  let access =
    { Race.position; location; is_write; thread = tid; task = c.in_task }
  in
  let l = loc_state t location in
  let time = Vc.get c.clock c.slot in
  if is_write then begin
    t.comparisons <-
      t.comparisons + Epoch.cardinal l.writes + Epoch.cardinal l.reads;
    let writes, racing_writes, outcome =
      Epoch.observe ~clock:c.clock ~slot:c.slot ~time access l.writes
    in
    l.writes <- writes;
    count_outcome t outcome;
    report t access racing_writes;
    report t access (Epoch.unknown ~clock:c.clock l.reads);
    (* Reads this write is ordered after are subsumed by it: any later
       access unordered with such a read is also unordered with this
       write, which both future reads and writes check. *)
    let reads, _dropped = Epoch.prune ~clock:c.clock l.reads in
    l.reads <- reads
  end
  else begin
    t.comparisons <- t.comparisons + Epoch.cardinal l.writes;
    report t access (Epoch.unknown ~clock:c.clock l.writes);
    (* A read must not disturb the write frontier: a write it is
       ordered after may still race with a later read that does not
       know this one. *)
    let reads, _racing_reads, outcome =
      Epoch.observe ~clock:c.clock ~slot:c.slot ~time access l.reads
    in
    l.reads <- reads;
    count_outcome t outcome
  end

let feed t ~position (e : Trace.event) =
  t.events <- t.events + 1;
  let c = ctx t e.thread in
  (* Every operation advances the executing context's local time. *)
  c.clock <- Vc.tick c.clock c.slot;
  (match e.op with
   | Operation.Thread_init ->
     let id = Thread_id.to_int e.thread in
     (match Hashtbl.find_opt t.fork_clocks id with
      | Some vc ->
        c.clock <- Vc.merge c.clock vc;
        (* One threadinit per thread: the fork clock is consumed. *)
        Hashtbl.remove t.fork_clocks id
      | None -> ())
   | Operation.Thread_exit ->
     let id = Thread_id.to_int e.thread in
     Hashtbl.replace t.exit_clocks id c.clock;
     (* Nothing runs on an exited thread; its queue clock (needed by
        later posts to it) lives in [attach_clocks].  Dropping the
        context releases its completed window and clocks. *)
     Hashtbl.remove t.threads id
   | Operation.Fork t' ->
     Hashtbl.replace t.fork_clocks (Thread_id.to_int t') c.clock
   | Operation.Join t' ->
     (match Hashtbl.find_opt t.exit_clocks (Thread_id.to_int t') with
      | Some vc -> c.clock <- Vc.merge c.clock vc
      | None -> ())
   | Operation.Attach_queue ->
     Hashtbl.replace t.attach_clocks (Thread_id.to_int e.thread) c.clock
   | Operation.Loop_on_queue -> c.loop_clock <- Some c.clock
   | Operation.Post { task; target; flavour } ->
     (* ENABLE-*: the post happens after the task's enable (one post
        per task: the enable clock is consumed). *)
     (match Task_tbl.find_opt t.enable_clocks task with
      | Some vc ->
        c.clock <- Vc.merge c.clock vc;
        Task_tbl.remove t.enable_clocks task
      | None -> ());
     (* ATTACH-Q-MT: a cross-thread post happens after the target's
        attachQ. *)
     if not (Thread_id.equal e.thread target) then
       (match Hashtbl.find_opt t.attach_clocks (Thread_id.to_int target) with
        | Some vc -> c.clock <- Vc.merge c.clock vc
        | None -> ());
     Task_tbl.replace t.posts task
       { p_clock = c.clock
       ; p_slot = c.slot
       ; p_time = Vc.get c.clock c.slot
       ; p_flavour = flavour
       }
   | Operation.Begin_task p ->
     let base =
       match c.loop_clock with
       | Some vc -> vc
       | None -> Vc.empty
     in
     (* The join runs base ⊔ post, then the qualifying window ends
        newest first, then [folded_ends]: the newest end usually
        dominates everything older, so most merges return an argument
        unchanged.  Which ends qualify depends only on the post clock,
        so the order does not change the join. *)
     let clock =
       match Task_tbl.find_opt t.posts p with
       | Some post ->
         (* Unique renaming: one begin per task, the post is consumed. *)
         Task_tbl.remove t.posts p;
         let clock = ref (Vc.merge base post.p_clock) in
         (* FIFO and NOPRE against the windowed completed tasks of this
            thread; evicted ones were folded into [folded_ends]. *)
         List.iter
           (fun comp ->
              (* Newest-first: once the newest qualifying record is
                 merged, every older record it transitively ordered
                 after (the common sequential-looper case) is already
                 dominated, and the epoch probe skips its merge. *)
              if Vc.get !clock comp.c_slot < comp.c_end_time then begin
                let fifo =
                  Clock_engine.fifo_flavours_ok comp.c_flavour post.p_flavour
                  && Vc.get post.p_clock comp.c_post_slot >= comp.c_post_time
                in
                let nopre () =
                  Vc.get post.p_clock comp.c_slot >= comp.c_begin_time
                in
                if fifo || nopre () then
                  clock := Vc.merge !clock comp.c_end_clock
              end)
           c.completed;
         c.current_post <- Some post;
         !clock
       | None ->
         c.current_post <- None;
         base
     in
     let clock = Vc.merge clock c.folded_ends in
     (* The chain rule: time [chain_time] on [chain] is produced only by
        the previous task's [end], so a begin clock that holds it
        already dominates that task's end clock.  The new task then
        continues the slot instead of taking a fresh one: its times on
        it follow the previous task's, every later [Vc.get v s >= t]
        probe answers as it would with a fresh slot, and on a looper
        whose tasks FIFO or NOPRE order one after another the clocks
        carry one entry per chain instead of one per task. *)
     let slot =
       if c.chain >= 0 && Vc.get clock c.chain >= c.chain_time then begin
         t.chained_tasks <- t.chained_tasks + 1;
         c.chain
       end
       else fresh_slot t
     in
     c.slot <- slot;
     c.clock <- Vc.tick clock slot;
     c.begin_time <- Vc.get c.clock slot;
     c.in_task <- Some p
   | Operation.End_task _ ->
     let end_time = Vc.get c.clock c.slot in
     (match c.current_post with
      | Some post ->
        let comp =
          { c_slot = c.slot
          ; c_begin_time = c.begin_time
          ; c_post_slot = post.p_slot
          ; c_post_time = post.p_time
          ; c_end_clock = c.clock
          ; c_end_time = end_time
          ; c_flavour = post.p_flavour
          }
        in
        c.completed <- comp :: c.completed;
        c.completed_len <- c.completed_len + 1;
        if c.completed_len > t.cfg.completed_window then begin
          (* Evict the oldest record into the fold: every later begin
             merges [folded_ends], which over-approximates the FIFO and
             NOPRE conclusions the evicted record could have supplied —
             more orderings, never fewer, so streaming races remain a
             subset of the batch engines'. *)
          let rec split acc = function
            | [] -> (List.rev acc, None)
            | [ oldest ] -> (List.rev acc, Some oldest)
            | comp :: rest -> split (comp :: acc) rest
          in
          let kept, evicted = split [] c.completed in
          (match evicted with
           | Some oldest ->
             c.folded_ends <- Vc.merge c.folded_ends oldest.c_end_clock;
             c.completed <- kept;
             c.completed_len <- c.completed_len - 1;
             t.folded_tasks <- t.folded_tasks + 1
           | None -> ())
        end
      | None -> ());
     (* Every task moves the chain, with or without a record: a task
        that continued the chain has ticked it past the old
        [chain_time], which must not be reused. *)
     c.chain <- c.slot;
     c.chain_time <- end_time;
     c.current_post <- None;
     c.in_task <- None;
     (* The idle looper segment: only the pre-loop knowledge of the
        thread survives — two tasks on one thread are unordered unless
        FIFO or NOPRE re-orders them at the next begin. *)
     c.slot <- fresh_slot t;
     c.clock <-
       (match c.loop_clock with
        | Some vc -> vc
        | None -> Vc.empty)
   | Operation.Acquire l ->
     (match Lock_tbl.find_opt t.lock_clocks l with
      | Some vc -> c.clock <- Vc.merge c.clock vc
      | None -> ())
   | Operation.Release l ->
     let merged =
       match Lock_tbl.find_opt t.lock_clocks l with
       | Some vc -> Vc.merge vc c.clock
       | None -> c.clock
     in
     Lock_tbl.replace t.lock_clocks l merged
   | Operation.Enable p -> Task_tbl.replace t.enable_clocks p c.clock
   | Operation.Cancel _ -> ()
   | Operation.Read m -> record_access t c position m false e.thread
   | Operation.Write m -> record_access t c position m true e.thread);
  if t.cfg.gc_interval > 0 && t.events mod t.cfg.gc_interval = 0 then sweep t

let races t =
  List.sort
    (fun (r1 : Race.t) r2 ->
       match Int.compare r1.first.position r2.first.position with
       | 0 -> Int.compare r1.second.position r2.second.position
       | c -> c)
    t.races

let stats t =
  sweep t;
  (* The engine-driven sweep above measured; do not let it count as GC
     pressure twice in the gauges, only in the record below. *)
  { events = t.events
  ; slots_allocated = t.next_slot
  ; live_slots = t.live_slots
  ; peak_live_slots = t.peak_live_slots
  ; slots_retired = t.next_slot - t.live_slots
  ; resident_clock_entries = t.resident_clock_entries
  ; peak_clock_entries = t.peak_clock_entries
  ; fast_path = t.fast_path
  ; promotions = t.promotions
  ; demotions = t.demotions
  ; comparisons = t.comparisons
  ; folded_tasks = t.folded_tasks
  ; chained_tasks = t.chained_tasks
  ; gc_sweeps = t.gc_sweeps
  ; races = List.length t.races
  }

let finish t =
  let stats = stats t in
  if Obs.enabled () then begin
    Obs.add ~n:stats.events "streaming.events";
    Obs.add ~n:stats.races "streaming.races";
    Obs.add ~n:stats.fast_path "streaming.epoch_fast_path";
    Obs.add ~n:stats.promotions "streaming.epoch_promotions";
    Obs.add ~n:stats.demotions "streaming.epoch_demotions";
    Obs.add ~n:stats.folded_tasks "streaming.folded_tasks";
    Obs.add ~n:stats.chained_tasks "streaming.chained_tasks";
    Obs.set_gauge "streaming.peak_live_slots"
      (float_of_int stats.peak_live_slots);
    Obs.set_gauge "streaming.peak_clock_entries"
      (float_of_int stats.peak_clock_entries)
  end;
  (races t, stats)

let detect ?config trace =
  let t = create ?config () in
  Trace.iteri (fun i e -> feed t ~position:i e) trace;
  finish t

let detect_channel ?config ic =
  let t = create ?config () in
  match
    Trace_io.fold_channel ic ~init:0 ~f:(fun pos ~line:_ e ->
      feed t ~position:pos e;
      pos + 1)
  with
  | Ok _ -> Ok (finish t)
  | Error e -> Error e

let detect_file ?config path =
  let t = create ?config () in
  match
    Trace_io.fold_events path ~init:0 ~f:(fun pos ~line:_ e ->
      feed t ~position:pos e;
      pos + 1)
  with
  | Ok _ -> Ok (finish t)
  | Error e -> Error e

let stats_json_string ?(label = "streaming") ~elapsed_seconds ~peak_rss_kb
    (s : stats) =
  let open Json_parse in
  let events_per_sec =
    if elapsed_seconds > 0.0 then float_of_int s.events /. elapsed_seconds else 0.0
  in
  render ~layout:Indented
    (Object
       [ ("schema", String "droidracer-streaming/1"); ("label", String label)
       ; ("events", int s.events); ("elapsed_seconds", fixed 6 elapsed_seconds)
       ; ("events_per_sec", fixed 1 events_per_sec); ("races", int s.races)
       ; ("slots_allocated", int s.slots_allocated); ("peak_live_slots", int s.peak_live_slots)
       ; ("slots_retired", int s.slots_retired)
       ; ("peak_clock_entries", int s.peak_clock_entries)
       ; ("epoch_fast_path", int s.fast_path); ("promotions", int s.promotions)
       ; ("demotions", int s.demotions); ("folded_tasks", int s.folded_tasks)
       ; ("chained_tasks", int s.chained_tasks); ("gc_sweeps", int s.gc_sweeps)
       ; ("peak_rss_kb", int peak_rss_kb) ])
  ^ "\n"
