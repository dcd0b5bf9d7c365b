open! Import

(** Bounded-memory streaming race detection.

    A single forward pass that consumes events as they arrive — from an
    in-memory trace, a channel, or a file via {!Trace_io.fold_channel}
    — and never materialises the trace.  The transition system is
    {!Clock_engine}'s (sparse vector clocks; fork/join, post→begin,
    enable→post, attachQ→post, loopOnQ→begin, FIFO, NOPRE and
    unconditional lock merges), with four changes that bound resident
    memory by the number of {e live} entities instead of the event
    count:

    - clocks are {e chain}-indexed, not task-indexed: a task whose
      begin clock already holds the end of its thread's previous task
      continues that task's slot (the chains of totally ordered event
      actions of EventRacer, built on the fly), so a looper whose
      tasks FIFO or NOPRE order one after another costs one slot, not
      one per task.  Slot times stay unique to one event, so every
      epoch probe answers as it would with a slot per task;
    - per-location access history is an adaptive {!Epoch} frontier
      (last-write / last-read epochs, vector fallback on read shares)
      instead of the full access list;
    - the FIFO premise compares post {e epochs} instead of whole
      clocks, so no comparison ever scans a clock — which is what makes
      slot retirement sound;
    - incremental GC: consumed synchronization clocks are dropped at
      their single use, completed tasks beyond a window are folded into
      one per-thread clock, exited threads release their contexts, and
      a periodic sweep purges retired slots from every resident clock.

    {2 Correctness contract}

    Every mechanism above moves in one direction only: folding and the
    unconditional lock merge {e add} orderings (losing races), frontier
    and slot GC drop only state that provably cannot change a future
    answer, and chains change no answer at all.  Hence
    (property-tested, jobs ∈ {1, 4}):

    - {e soundness of reports}: every race this engine reports is also
      reported by the worklist (and dense) batch engine;
    - {e coverage on lock-free traces}: for every location, the set of
      trace positions this engine reports as the {e second} access of a
      race equals the batch engine's — each racy access is flagged when
      it happens, though the racing {e partner} may be a later,
      subsuming access rather than every historical one (the frontier
      keeps pairwise-unordered representatives, not the full history).

    On traces with locks both engines inherit {!Clock_engine}'s
    documented over-approximation and under-report relative to the
    graph relation. *)

type config =
  { completed_window : int
        (** completed-task records kept per thread for exact FIFO/NOPRE
            before folding (default 64) *)
  ; gc_interval : int
        (** events between retired-slot sweeps; 0 disables sweeping
            (default 4096) *)
  }

val default_config : config

type stats =
  { events : int
  ; slots_allocated : int
        (** clock slots handed out over the run: one per chain started
            (a task that could not continue its thread's chain) and one
            per thread segment outside any task *)
  ; live_slots : int  (** slots still referenced at the end *)
  ; peak_live_slots : int  (** max live slots seen at any sweep *)
  ; slots_retired : int  (** allocated minus live *)
  ; resident_clock_entries : int
        (** total entries across all resident clocks after the final
            sweep *)
  ; peak_clock_entries : int  (** max resident entries at any sweep *)
  ; fast_path : int  (** same-slot O(1) epoch overwrites *)
  ; promotions : int  (** epoch → vector (read share) *)
  ; demotions : int  (** vector → epoch *)
  ; comparisons : int  (** frontier entries examined by access checks *)
  ; folded_tasks : int  (** completed records evicted into the fold *)
  ; chained_tasks : int
        (** [begin]s that continued their thread's chain slot instead of
            taking a fresh one *)
  ; gc_sweeps : int
  ; races : int
  }

(** {1 Incremental feeding} *)

type t

val create : ?config:config -> unit -> t

val feed : t -> position:int -> Trace.event -> unit
(** Consumes the next event.  [position] is the 0-based index the
    event would have in the materialised trace; reported races carry
    these positions. *)

val races : t -> Race.t list
(** Races seen so far, in lexicographic position order. *)

val stats : t -> stats
(** Runs a sweep (so the gauges are current) and reports. *)

val finish : t -> Race.t list * stats
(** Final sweep, [Obs] counter flush, and results. *)

(** {1 Whole-input drivers} *)

val detect : ?config:config -> Trace.t -> Race.t list * stats
(** In-memory trace; positions are trace indices.  Unlike
    {!Detector.analyze} this does {e not} filter cancelled posts —
    feed it a {!Trace.remove_cancelled}'d trace to compare positions
    with the batch engines. *)

val detect_channel :
  ?config:config -> In_channel.t ->
  (Race.t list * stats, Trace_io.read_error) result

val detect_file :
  ?config:config -> string -> (Race.t list * stats, Trace_io.read_error) result
(** Streams the named file; memory stays proportional to live entities
    whatever the event count. *)

(** {1 Reporting} *)

val stats_json_string :
  ?label:string -> elapsed_seconds:float -> peak_rss_kb:int -> stats -> string
(** Schema [droidracer-streaming/1]: throughput (events, elapsed,
    events/sec), the race count, and the memory profile (peak live
    slots, retired slots, peak resident clock entries, peak RSS —
    callers read the latter from {!Obs.peak_rss_kb}).

    When telemetry is enabled, every GC sweep also appends
    [streaming.live_slots] and [streaming.resident_clock_entries]
    samples to the {!Obs} time-series store, so the engine's memory
    frontier is observable over time, not just as a final gauge. *)
