open! Import
module Thread_id = Ident.Thread_id
module Task_id = Ident.Task_id
module Lock_id = Ident.Lock_id
module Location = Ident.Location
module Vc = Vector_clock

type stats =
  { slots : int
  ; comparisons : int
  }

(* A completed task on some thread, remembered for FIFO/NOPRE checks at
   later [begin]s on the same thread. *)
type completed =
  { c_slot : int
  ; c_post_clock : Vc.t
  ; c_end_clock : Vc.t
  ; c_flavour : Operation.post_flavour
  }

type thread_ctx =
  { mutable slot : int  (** current clock slot *)
  ; mutable clock : Vc.t
  ; mutable in_task : Task_id.t option
  ; mutable loop_clock : Vc.t option  (** clock at [loopOnQ] *)
  ; mutable attach_clock : Vc.t option
  ; mutable completed : completed list
  }

type pending_post =
  { p_clock : Vc.t  (** clock of the post operation *)
  ; p_flavour : Operation.post_flavour
  }

type access_record =
  { a_slot : int
  ; a_time : int
  ; a_access : Race.access
  }

let fifo_flavours_ok f1 f2 =
  match (f1 : Operation.post_flavour), (f2 : Operation.post_flavour) with
  | Immediate, (Immediate | Delayed _) -> true
  | Delayed d1, Delayed d2 -> d1 <= d2
  | Delayed _, Immediate -> false
  | Front, (Immediate | Delayed _ | Front) -> false
  | (Immediate | Delayed _), Front -> false

let detect trace =
  let next_slot = ref 0 in
  let fresh_slot () =
    let s = !next_slot in
    incr next_slot;
    s
  in
  let threads : (int, thread_ctx) Hashtbl.t = Hashtbl.create 16 in
  let ctx tid =
    match Hashtbl.find_opt threads (Thread_id.to_int tid) with
    | Some c -> c
    | None ->
      let c =
        { slot = fresh_slot ()
        ; clock = Vc.empty
        ; in_task = None
        ; loop_clock = None
        ; attach_clock = None
        ; completed = []
        }
      in
      Hashtbl.add threads (Thread_id.to_int tid) c;
      c
  in
  (* Clocks published at synchronization sources. *)
  let fork_clocks : (int, Vc.t) Hashtbl.t = Hashtbl.create 8 in
  let exit_clocks : (int, Vc.t) Hashtbl.t = Hashtbl.create 8 in
  let lock_clocks : (string, Vc.t) Hashtbl.t = Hashtbl.create 8 in
  let enable_clocks : (string, Vc.t) Hashtbl.t = Hashtbl.create 16 in
  let posts : (string, pending_post) Hashtbl.t = Hashtbl.create 64 in
  (* Task slots, for the NOPRE lookup. *)
  let task_slots : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let history : (string, access_record list ref) Hashtbl.t = Hashtbl.create 64 in
  let races = ref [] in
  let comparisons = ref 0 in
  let record_access c i location is_write tid =
    let access =
      { Race.position = i
      ; location
      ; is_write
      ; thread = tid
      ; task = c.in_task
      }
    in
    let key = Location.to_string location in
    let prev =
      match Hashtbl.find_opt history key with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.add history key l;
        l
    in
    List.iter
      (fun r ->
         if r.a_access.Race.is_write || is_write then begin
           incr comparisons;
           if Vc.get c.clock r.a_slot < r.a_time then
             races := { Race.first = r.a_access; second = access } :: !races
         end)
      !prev;
    prev :=
      { a_slot = c.slot; a_time = Vc.get c.clock c.slot; a_access = access }
      :: !prev
  in
  Trace.iteri
    (fun i (e : Trace.event) ->
       let c = ctx e.thread in
       (* After [loopOnQ], an operation outside any task is ordered only
          after the pre-loop prefix (NO-Q-PO stops at the loop, and
          ASYNC-PO needs a task), so each such operation gets a fresh
          slot whose clock starts from the loop clock. *)
       (match c.loop_clock, c.in_task with
        | Some vc, None ->
          c.slot <- fresh_slot ();
          c.clock <- vc
        | _ -> ());
       (* Every operation advances the executing context's local time. *)
       c.clock <- Vc.tick c.clock c.slot;
       match e.op with
       | Operation.Thread_init ->
         (match Hashtbl.find_opt fork_clocks (Thread_id.to_int e.thread) with
          | Some vc -> c.clock <- Vc.merge c.clock vc
          | None -> ())
       | Operation.Thread_exit ->
         Hashtbl.replace exit_clocks (Thread_id.to_int e.thread) c.clock
       | Operation.Fork t' ->
         Hashtbl.replace fork_clocks (Thread_id.to_int t') c.clock
       | Operation.Join t' ->
         (match Hashtbl.find_opt exit_clocks (Thread_id.to_int t') with
          | Some vc -> c.clock <- Vc.merge c.clock vc
          | None -> ())
       | Operation.Attach_queue -> c.attach_clock <- Some c.clock
       | Operation.Loop_on_queue -> c.loop_clock <- Some c.clock
       | Operation.Post { task; target; flavour } ->
         (* ENABLE-*: the post happens after the task's enable. *)
         (match Hashtbl.find_opt enable_clocks (Task_id.to_string task) with
          | Some vc -> c.clock <- Vc.merge c.clock vc
          | None -> ());
         (* ATTACH-Q-MT: a cross-thread post happens after the target's
            attachQ. *)
         if not (Thread_id.equal e.thread target) then
           (match (ctx target).attach_clock with
            | Some vc -> c.clock <- Vc.merge c.clock vc
            | None -> ());
         Hashtbl.replace posts (Task_id.to_string task)
           { p_clock = c.clock; p_flavour = flavour }
       | Operation.Begin_task p ->
         let slot = fresh_slot () in
         Hashtbl.replace task_slots (Task_id.to_string p) slot;
         let base =
           match c.loop_clock with
           | Some vc -> vc
           | None -> Vc.empty
         in
         let clock = ref base in
         (match Hashtbl.find_opt posts (Task_id.to_string p) with
          | Some post ->
            clock := Vc.merge !clock post.p_clock;
            (* FIFO and NOPRE against every completed task of this
               thread. *)
            List.iter
              (fun comp ->
                 let fifo =
                   fifo_flavours_ok comp.c_flavour post.p_flavour
                   && Vc.leq comp.c_post_clock post.p_clock
                 in
                 let nopre () = Vc.get post.p_clock comp.c_slot >= 1 in
                 if fifo || nopre () then
                   clock := Vc.merge !clock comp.c_end_clock)
              c.completed
          | None -> ());
         c.slot <- slot;
         c.clock <- Vc.tick !clock slot;
         c.in_task <- Some p
       | Operation.End_task p ->
         (match Hashtbl.find_opt posts (Task_id.to_string p) with
          | Some post ->
            c.completed <-
              { c_slot = c.slot
              ; c_post_clock = post.p_clock
              ; c_end_clock = c.clock
              ; c_flavour = post.p_flavour
              }
              :: c.completed
          | None -> ());
         c.in_task <- None;
         (* The idle looper segment: only the pre-loop knowledge of the
            thread survives — two tasks on one thread are unordered
            unless FIFO or NOPRE re-orders them at the next begin, and
            likewise a later [threadexit] is ordered only after the
            thread's pre-loop operations. *)
         c.slot <- fresh_slot ();
         c.clock <-
           (match c.loop_clock with
            | Some vc -> vc
            | None -> Vc.empty)
       | Operation.Acquire l ->
         (match Hashtbl.find_opt lock_clocks (Lock_id.to_string l) with
          | Some vc -> c.clock <- Vc.merge c.clock vc
          | None -> ())
       | Operation.Release l ->
         let merged =
           match Hashtbl.find_opt lock_clocks (Lock_id.to_string l) with
           | Some vc -> Vc.merge vc c.clock
           | None -> c.clock
         in
         Hashtbl.replace lock_clocks (Lock_id.to_string l) merged
       | Operation.Enable p ->
         Hashtbl.replace enable_clocks (Task_id.to_string p) c.clock
       | Operation.Cancel _ -> ()
       | Operation.Read m -> record_access c i m false e.thread
       | Operation.Write m -> record_access c i m true e.thread)
    trace;
  let races =
    List.sort
      (fun (r1 : Race.t) r2 ->
         match Int.compare r1.first.position r2.first.position with
         | 0 -> Int.compare r1.second.position r2.second.position
         | c -> c)
      !races
  in
  (races, { slots = !next_slot; comparisons = !comparisons })
