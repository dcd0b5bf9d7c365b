(* What one workload run reports: operations attempted and failed (an
   operation is one trace file through the path, or one request), the
   first oracle complaints, the metrics, and human-readable notes. *)

type metric =
  { name : string
  ; value : float
  ; unit_ : string
  }

type t =
  { mutable attempted : int
  ; mutable failed : int
  ; mutable complaints : string list  (* newest first, at most 20 *)
  ; mutable metrics : metric list  (* newest first *)
  ; mutable notes : string list  (* newest first *)
  }

let create () =
  { attempted = 0; failed = 0; complaints = []; metrics = []; notes = [] }

let attempt t = t.attempted <- t.attempted + 1

(* Count one failed operation; [None] is a pass. *)
let check t = function
  | None -> ()
  | Some complaint ->
    t.failed <- t.failed + 1;
    if List.length t.complaints < 20 then
      t.complaints <- complaint :: t.complaints

(* A failure of the run as a whole (not of one operation). *)
let fail t complaint =
  attempt t;
  check t (Some complaint)

let metric t name unit_ value =
  t.metrics <- { name; value; unit_ } :: t.metrics

let note t fmt = Printf.ksprintf (fun s -> t.notes <- s :: t.notes) fmt
