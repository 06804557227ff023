(* Command-line flags and run plumbing shared by every hc_* binary.

   Each option below is declared once, so a flag means the same thing on
   every tool that takes it: the same name, default convention,
   validation and side effects. The groups:

     workload    -b/--benchmark, --length, -s/--scheme, --cache-dir, and
                 the saved-trace loader behind every -f/--file
     engine      -j/--jobs (a positive count; 0 or less is a usage error)
     obs         --obs, --span-log, --prom-out and the finish step
     telemetry   --trace-out, --metrics-interval, --interval-out,
                 --trace-buffer, --metrics-out: the per-run probe and the
                 Chrome-trace / interval-CSV / metrics-JSON writers
     listing     --all *)

module Registry = Hc_obs.Registry
module Span = Hc_obs.Span
module Log = Hc_obs.Log
module Prom = Hc_obs.Prom
module Probe = Hc_obs.Probe
module Sample = Hc_obs.Sample
module Chrome_trace = Hc_obs.Chrome_trace
module Metrics = Hc_sim__Metrics
module Profile = Hc_trace__Profile
module Trace_io = Hc_trace__Trace_io
module Codec = Hc_trace__Codec
module Telemetry = Hc_core.Telemetry

open Cmdliner

(* ---- workload ---- *)

let benchmark =
  Arg.(
    value & opt string "gcc"
    & info [ "b"; "benchmark" ] ~docv:"NAME"
        ~doc:"SPEC Int 2000 benchmark personality.")

(* unknown names exit 1 with the known-name list *)
let profile_of name =
  try Profile.find_spec_int name
  with Not_found ->
    Printf.eprintf "unknown benchmark %S; known: %s\n" name
      (String.concat ", " Profile.spec_int_names);
    exit 1

(* a saved trace that does not load is a usage error (exit 1 with the
   reason), not a crash *)
let load_trace ~tool path =
  let fail msg =
    prerr_endline (tool ^ ": " ^ msg);
    exit 1
  in
  try Trace_io.load path with
  | Sys_error msg -> fail msg
  | Failure msg -> fail (path ^ ": " ^ msg)
  | Codec.Corrupt reason -> fail (path ^ ": corrupt binary trace: " ^ reason)

let length ~default =
  Arg.(
    value & opt int default
    & info [ "length" ] ~docv:"UOPS"
        ~doc:"Trace length in uops (per benchmark when several run).")

let scheme =
  Arg.(
    value & opt string "+IR"
    & info [ "s"; "scheme" ] ~docv:"SCHEME"
        ~doc:
          "Steering scheme (baseline, 8_8_8, +BR, +LR, +CR, +CP, +IR, \
           +IR(nodest), or ics05 for the section-4 comparator).")

let cache_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Artifact-cache root: traces (and a campaign's finished run \
           metrics) reload from their cache entries when present and are \
           published there after a cold run (default: $(b,HC_CACHE_DIR) \
           or $(b,_hc_cache); the value $(b,none) disables caching).")

(* ---- engine ---- *)

let jobs =
  let pos_int =
    let parse s =
      match int_of_string_opt s with
      | Some n when n > 0 -> Ok n
      | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
    in
    Arg.conv ~docv:"N" (parse, Format.pp_print_int)
  in
  Arg.(
    value
    & opt (some pos_int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Simulations to run concurrently (default: $(b,HC_JOBS) or the \
           recommended domain count). Results are bit-identical at any \
           setting.")

(* ---- observability ---- *)

type obs = {
  print_stages : bool;
  span_log : string option;
  prom_out : string option;
}

(* Evaluating the term turns the ambient metrics registry and stage-span
   collector on when any of the three flags asks for observability; with
   all three unset nothing is enabled and the untraced hot path runs. *)
let obs =
  let setup print_stages span_log prom_out =
    if print_stages || span_log <> None || prom_out <> None then begin
      ignore (Registry.enable ());
      ignore (Span.enable ())
    end;
    { print_stages; span_log; prom_out }
  in
  let print_stages =
    Arg.(
      value & flag
      & info [ "obs" ]
          ~doc:
            "Enable the process-wide observability layer (metrics registry \
             + stage-span collector) and print the per-stage aggregate to \
             stderr on exit. Off, the untraced hot path is bit-identical.")
  in
  let span_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "span-log" ] ~docv:"FILE"
          ~doc:
            "Write every recorded stage span as JSONL (one strict-JSON \
             object per line) to $(docv); implies observability on.")
  in
  let prom_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom-out" ] ~docv:"FILE"
          ~doc:
            "Write the final metrics-registry scrape as Prometheus text \
             exposition to $(docv); implies observability on.")
  in
  Term.(const setup $ print_stages $ span_log $ prom_out)

let spans () = match Span.ambient () with Some c -> Span.spans c | None -> []

(* --obs prints the per-stage aggregate (count, total/max wall, minor
   allocation) to stderr; the two paths get their files *)
let finish_obs o =
  if o.print_stages then begin
    prerr_endline "-- stage spans --";
    List.iter
      (fun (st : Span.stage_stats) ->
        Printf.eprintf
          "%-16s %5dx  %8.1f ms total  %6.1f ms max  %.0f kw minor\n"
          st.Span.st_name st.Span.st_count
          (float_of_int st.Span.st_total_ns /. 1e6)
          (float_of_int st.Span.st_max_ns /. 1e6)
          (st.Span.st_minor_words /. 1e3))
      (Span.by_stage (spans ()));
    flush stderr
  end;
  let export path write =
    Telemetry.mkdir_p (Filename.dirname path);
    ignore (write ~path)
  in
  Option.iter (fun path -> export path (Log.write_spans (spans ()))) o.span_log;
  Option.iter
    (fun path ->
      let scrape =
        match Registry.ambient () with
        | Some r -> Registry.scrape r
        | None -> []
      in
      export path (Prom.write scrape))
    o.prom_out

(* ---- per-run telemetry ---- *)

let metrics_interval ~default =
  Arg.(
    value & opt int default
    & info [ "metrics-interval" ] ~docv:"TICKS"
        ~doc:
          "Sample the interval metrics time series every $(docv) fast \
           ticks (0 disables). Column sums equal the final metrics.")

type telemetry = {
  trace_out : string option;
  interval : int;
  interval_out : string option;
  trace_buffer : int;
  metrics_out : string option;
}

let telemetry =
  let make trace_out interval interval_out trace_buffer metrics_out =
    { trace_out; interval; interval_out; trace_buffer; metrics_out }
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record per-uop pipeline events and write a Chrome trace-event \
             JSON (load in Perfetto or chrome://tracing) to $(docv).")
  in
  let interval_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "interval-out" ] ~docv:"FILE"
          ~doc:
            "Where to write the interval CSV (default: derived from \
             $(b,--trace-out), else $(b,intervals.csv)).")
  in
  let trace_buffer =
    Arg.(
      value & opt int 65_536
      & info [ "trace-buffer" ] ~docv:"EVENTS"
          ~doc:
            "Event ring capacity; older events are overwritten once full.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the observed run's full metrics as JSON (the format \
             $(b,hc_report) reads and diffs) to $(docv).")
  in
  Term.(
    const make $ trace_out $ metrics_interval ~default:0 $ interval_out
    $ trace_buffer $ metrics_out)

let wants_telemetry t = t.trace_out <> None || t.interval > 0

(* the probe to attach to the observed run, if telemetry or [accounting]
   asks for one *)
let probe t ~accounting =
  if wants_telemetry t || accounting then
    Some
      (Probe.create ~ring_capacity:t.trace_buffer ~interval:t.interval
         ~accounting ~tracing:(t.trace_out <> None) ())
  else None

(* Write the observed run's artifacts and report each path on stdout.
   The interval series must re-add to exactly the end-of-run metrics;
   the line says so, so a telemetry bug surfaces immediately. *)
let write_artifacts t probe (m : Metrics.t) =
  Option.iter
    (fun path ->
      Format.printf "metrics: wrote %s@." (Telemetry.write_metrics_json ~path m))
    t.metrics_out;
  match probe with
  | Some p when wants_telemetry t ->
    let samples = Probe.samples p in
    Option.iter
      (fun path ->
        let written =
          Chrome_trace.write
            ~ring:(Probe.events_pushed p, Probe.events_dropped p)
            ~stage_spans:(spans ()) ~path ~events:(Probe.events p) ~samples
            ()
        in
        Format.printf "trace: wrote %s (%s)@." written (Probe.summary p))
      t.trace_out;
    Option.iter (fun w -> Printf.eprintf "%s\n%!" w) (Probe.dropped_warning p);
    if t.interval > 0 then begin
      let path =
        match t.interval_out, t.trace_out with
        | Some path, _ -> path
        | None, Some tr -> Filename.remove_extension tr ^ ".intervals.csv"
        | None, None -> "intervals.csv"
      in
      let written = Telemetry.write_intervals_csv ~path samples in
      Format.printf
        "intervals: wrote %s (%d samples of %d ticks; aggregate %s final \
         metrics)@."
        written (List.length samples) t.interval
        (if Metrics.totals m = Sample.aggregate samples then "=="
         else "<> (BUG)")
    end;
    (* the per-interval NREADY distributions campaigns record; a no-op
       unless observability is on *)
    Hc_core.Runs.obs_nready samples
  | _ -> ()

(* ---- listings ---- *)

let all =
  Arg.(
    value & flag
    & info [ "all" ]
        ~doc:"List every compared entry, not only the ones that differ.")
