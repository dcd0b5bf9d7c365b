open! Import

(* Set-up: generate and encode a workload's inputs, and record the
   ground truth its oracles check answers against.  The ground truth
   comes from the generators — the catalog specs' Table 3 targets and
   planted races, the long-trace generator's planted locations — never
   from the engine under test.  The one exception is [dense_pairs]:
   the race pairs of the dense engine, recorded only for the streaming
   workload's traced run, where the dense engine is the reference and
   not the engine measured.

   Set-up runs in a forked child, so the generators' memory never
   counts towards the measuring process's peak resident set. *)

type app =
  { name : string
  ; path : string  (* the encoded trace file *)
  ; events : int
  ; targets : (string * int) list
        (* category -> distinct races, the spec's Table 3 reports *)
  ; plants : (string * string) list
        (* racy location -> category of the plant that owns it *)
  ; dense_pairs : (int * int) list  (* sorted; [] unless requested *)
  }

type long =
  { l_path : string
  ; l_events : int
  ; l_planted : string list  (* locations the generator made racy *)
  }

type t =
  { apps : app list
  ; long : long option
  ; generate_s : float  (* generate and encode, timed in the child *)
  }

let long_events = 30_000

(* [planted mod loopers <> 0], so every plant is a detectable race. *)
let long_config ~seed =
  { Longtrace.default_config with planted = 32; seed = seed land 0x3fff_ffff }

(* The daemon workload's requests: the eight smallest catalog apps. *)
let small_specs () =
  List.stable_sort
    (fun a b -> compare a.Synthetic.s_trace_length b.Synthetic.s_trace_length)
    Catalog.all
  |> List.filteri (fun i _ -> i < 8)

let targets spec =
  let open Synthetic in
  List.map
    (fun (category, (reports, _true_positives)) ->
       (Classify.category_name category, reports))
    [ (Classify.Multithreaded, spec.s_multithreaded)
    ; (Classify.Cross_posted, spec.s_cross_posted)
    ; (Classify.Co_enabled, spec.s_co_enabled)
    ; (Classify.Delayed_race, spec.s_delayed)
    ; (Classify.Unknown, spec.s_unknown)
    ]

let plants built =
  List.concat_map
    (fun plant ->
       List.filter_map
         (fun location ->
            (* Through the generator's own lookup, as a check that the
               plant list and [plant_of_location] agree. *)
            Option.map
              (fun p ->
                 ( Ident.Location.to_string location
                 , Classify.category_name p.Synthetic.p_category ))
              (Synthetic.plant_of_location built location))
         plant.Synthetic.p_locations)
    built.Synthetic.b_plants

let pairs races =
  List.sort_uniq compare
    (List.map (fun r -> (r.Race.first.Race.position, r.Race.second.Race.position)) races)

let file_name i name =
  Printf.sprintf "%02d-%s.drt" i
    (String.map
       (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9') as c -> c | _ -> '_')
       name)

let catalog ~dir ~dense_pairs specs =
  let t0 = now () in
  let generated =
    List.mapi
      (fun i spec ->
         let built = Synthetic.build spec in
         let run =
           Runtime.run ~options:built.Synthetic.b_options built.Synthetic.b_app
             built.Synthetic.b_events
         in
         let path = Filename.concat dir (file_name i spec.Synthetic.s_name) in
         Binfmt.save path run.Runtime.observed;
         (spec, built, run.Runtime.observed, path))
      specs
  in
  let generate_s = now () -. t0 in
  let apps =
    List.map
      (fun (spec, built, observed, path) ->
         { name = spec.Synthetic.s_name
         ; path
         ; events = Trace.length observed
         ; targets = targets spec
         ; plants = plants built
         ; dense_pairs =
             (if dense_pairs then
                pairs
                  (List.map
                     (fun c -> c.Detector.race)
                     (Detector.analyze observed).Detector.all_races)
              else [])
         })
      generated
  in
  { apps; long = None; generate_s }

let longtrace ~dir ~seed =
  let config = long_config ~seed in
  let path = Filename.concat dir "longtrace.drt" in
  let t0 = now () in
  let n = Longtrace.write_binary ~config ~events:long_events path in
  { apps = []
  ; long =
      Some
        { l_path = path
        ; l_events = n
        ; l_planted = Longtrace.planted_locations config
        }
  ; generate_s = now () -. t0
  }

(* Run [f] in a forked child and return its (marshalled) result. *)
let in_child ~dir f =
  let out = Filename.concat dir "setup.result" in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let result =
      match f () with
      | v -> Ok v
      | exception e -> Error (Printexc.to_string e)
    in
    (try
       Out_channel.with_open_bin out (fun oc -> Marshal.to_channel oc result [])
     with _ -> ());
    Unix._exit 0
  | pid ->
    let rec reap () =
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> failwith "set-up child died"
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    in
    reap ();
    let result : (t, string) result =
      In_channel.with_open_bin out Marshal.from_channel
    in
    Sys.remove out;
    (match result with Ok v -> v | Error msg -> failwith ("set-up: " ^ msg))
