(* Aliases for the library modules the benchmark drives; opened by
   every file of the harness. *)

module Ident = Droidracer_trace.Ident
module Operation = Droidracer_trace.Operation
module Trace = Droidracer_trace.Trace
module Trace_io = Droidracer_trace.Trace_io
module Binfmt = Droidracer_trace.Binfmt
module Wellformed = Droidracer_trace.Wellformed
module Graph = Droidracer_core.Graph
module Happens_before = Droidracer_core.Happens_before
module Race = Droidracer_core.Race
module Classify = Droidracer_core.Classify
module Detector = Droidracer_core.Detector
module Streaming_engine = Droidracer_core.Streaming_engine
module Runtime = Droidracer_appmodel.Runtime
module Catalog = Droidracer_corpus.Catalog
module Synthetic = Droidracer_corpus.Synthetic
module Longtrace = Droidracer_corpus.Longtrace
module Supervisor = Droidracer_report.Supervisor
module Proc_pool = Droidracer_report.Proc_pool
module Server = Droidracer_service.Server
module Client = Droidracer_service.Client
module Wire = Droidracer_service.Wire
module Obs = Droidracer_obs.Obs

(* Monotonic seconds; every duration the harness reports uses it. *)
let now () = Int64.to_float (Obs.now_ns ()) *. 1e-9
