open! Import

(* The traced run's span store.  A span is one call into a layer, timed
   from the harness's own code: name, start, end, the span that caused
   it, the operation (trace file or request id) it belongs to, and the
   measurement pass it ran in.  Spans are held in memory and written
   out once, when the run ends. *)

type span =
  { id : int
  ; name : string
  ; op : string
  ; parent : int  (* 0: a root *)
  ; pass : int
  ; t0 : float
  ; t1 : float
  }

let recorded : span list ref = ref []
let last_id = ref 0
let open_spans : (int * string) list ref = ref []  (* id, op; innermost first *)
let current_pass = ref 0

let reserve () =
  incr last_id;
  !last_id

let set_pass n = current_pass := n

(* Record a span whose times were taken by the caller — for work that
   interleaves, like requests in flight on several connections. *)
let add ?id ?(parent = 0) ~op ~t0 ~t1 name =
  let id = match id with Some id -> id | None -> reserve () in
  recorded :=
    { id; name; op; parent; pass = !current_pass; t0; t1 } :: !recorded;
  id

(* [with_span name f] times [f ()] as a child of the innermost open
   span, inheriting its operation unless [op] names a new one. *)
let with_span ?op name f =
  let id = reserve () in
  let parent, inherited =
    match !open_spans with (p, o) :: _ -> (p, o) | [] -> (0, "")
  in
  let op = Option.value op ~default:inherited in
  open_spans := (id, op) :: !open_spans;
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = now () in
      open_spans := List.tl !open_spans;
      ignore (add ~id ~parent ~op ~t0 ~t1 name))
    f

(* A span's self time is its duration minus the part its children
   cover.  Summed per (pass, name). *)
let self_times () =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
       if s.parent <> 0 then
         Hashtbl.replace children s.parent
           (Option.value (Hashtbl.find_opt children s.parent) ~default:0.0
            +. (s.t1 -. s.t0)))
    !recorded;
  let table = Hashtbl.create 64 in
  List.iter
    (fun s ->
       let self =
         s.t1 -. s.t0
         -. Option.value (Hashtbl.find_opt children s.id) ~default:0.0
       in
       let key = (s.pass, s.name) in
       Hashtbl.replace table key
         (Option.value (Hashtbl.find_opt table key) ~default:0.0 +. self))
    !recorded;
  table

(* Per layer name, the median over [passes] of that pass's summed self
   time in [table] (0 for a layer the passes never entered). *)
let median_self table ~passes name =
  Stats.median
    (List.map
       (fun p -> Option.value (Hashtbl.find_opt table (p, name)) ~default:0.0)
       passes)

let json_string s = "\"" ^ Wire.json_escape s ^ "\""

let write path ~meta =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
       output_string oc "{\"schema\":\"perfbench-spans/1\"";
       List.iter
         (fun (k, v) -> Printf.fprintf oc ",%s:%s" (json_string k) (json_string v))
         meta;
       output_string oc ",\"spans\":[";
       List.iteri
         (fun i s ->
            Printf.fprintf oc
              "%s\n{\"id\":%d,\"name\":%s,\"op\":%s,\"parent\":%d,\"pass\":%d,\"start_s\":%.9f,\"end_s\":%.9f}"
              (if i = 0 then "" else ",")
              s.id (json_string s.name) (json_string s.op) s.parent s.pass s.t0 s.t1)
         (List.rev !recorded);
       output_string oc "\n]}\n")
