(* Command-line front door to the simulator: run one workload under one
   steering scheme and print the metrics (optionally with the energy
   breakdown and/or telemetry artifacts). The workload is a generated
   SPEC personality, or a saved text/binary trace with --file.

     hc_sim --benchmark gcc --scheme +CR
     hc_sim --benchmark mcf --scheme baseline --length 100000 --power
     hc_sim --benchmark gcc --scheme +IR --trace-out t.json \
            --metrics-interval 1000            # Perfetto trace + time series
     hc_sim --file gcc.hct --scheme +CR        # a saved trace *)

module Config = Hc_sim__Config
module Pipeline = Hc_sim__Pipeline
module Metrics = Hc_sim__Metrics
module Accounting = Hc_obs.Accounting
module Model = Hc_power.Model
module Domain_pool = Hc_core.Domain_pool
module Artifact_cache = Hc_core.Artifact_cache

open Cmdliner

let scheme_names = List.map fst Hc_steering.Policy.stack @ [ "ics05" ]

(* per-lane top-down table: slot counts and % shares for every category,
   plus the partition check (sum == width x rounds, exact) *)
let print_topdown (s : Accounting.totals) =
  Format.printf "@.-- top-down slot attribution --@.";
  Format.printf "%-16s" "category";
  for lane = 0 to Accounting.nlanes - 1 do
    Format.printf "  %18s" (Accounting.lane_name lane)
  done;
  Format.printf "@.";
  List.iter
    (fun cat ->
      Format.printf "%-16s" (Accounting.cat_name cat);
      for lane = 0 to Accounting.nlanes - 1 do
        Format.printf "  %10d %6.2f%%"
          (Accounting.get s ~lane cat)
          (Accounting.share_pct s ~lane cat)
      done;
      Format.printf "@.")
    Accounting.categories;
  Format.printf "%-16s" "total slots";
  for lane = 0 to Accounting.nlanes - 1 do
    Format.printf "  %10d (%dx%d)" (Accounting.lane_sum s lane)
      (Accounting.lane_width s lane) s.Accounting.rounds.(lane)
  done;
  Format.printf "@.partition invariant: %s@."
    (if Accounting.consistent s then "exact" else "VIOLATED")

let run benchmark file scheme length power compare_baseline jobs telemetry
    cache_dir obs topdown stall_out =
  Option.iter Domain_pool.set_jobs jobs;
  let cfg =
    if scheme = "ics05" then Config.ics05
    else
      match Config.find_scheme scheme with
      | scheme_cfg -> Config.with_scheme Config.default scheme_cfg
      | exception Not_found ->
        Printf.eprintf "unknown scheme %S; known: %s\n" scheme
          (String.concat ", " scheme_names);
        exit 1
  in
  let trace =
    match file with
    | Some path -> Cli.load_trace ~tool:"hc_sim" path
    | None ->
      Artifact_cache.trace_or_generate (Artifact_cache.of_cli cache_dir)
        ~profile:(Cli.profile_of benchmark) ~length
  in
  let accounting = topdown || stall_out <> None in
  let probe = Cli.probe telemetry ~accounting in
  let with_base = compare_baseline && scheme <> "baseline" in
  (* the scheme run and its baseline comparator are independent pipeline
     states over the same read-only trace: run them on the pool. Only the
     scheme run is observed — the baseline exists for the speedup line. *)
  let runs =
    let cfgs =
      (cfg, scheme, probe)
      ::
      (if with_base then
         [ (Config.with_scheme cfg Config.monolithic, "baseline", None) ]
       else [])
    in
    Domain_pool.map_list (Domain_pool.get ())
      (fun (cfg, scheme_name, probe) ->
        Pipeline.run ?probe ~cfg ~decide:Hc_steering.Policy.decide
          ~scheme_name trace)
      cfgs
  in
  let m = List.hd runs in
  Format.printf "%a@." Metrics.pp m;
  assert (Metrics.attrib_consistent m);
  assert (Metrics.stall_consistent m);
  Cli.write_artifacts telemetry probe m;
  ( match runs with
  | [ _; base ] ->
    Format.printf "speedup over baseline: %.2f%%@."
      (Metrics.speedup_pct ~baseline:base m);
    Format.printf "energy-delay^2 improvement: %.2f%%@."
      (Model.ed2_improvement_pct ~narrow_bits:cfg.Config.narrow_bits
         ~baseline:base m)
  | _ -> () );
  ( match probe, m.Metrics.stall with
  | Some p, Some totals ->
    let ivals = Hc_obs.Probe.stall_intervals p in
    (* every interval delta must itself satisfy the partition, not just
       the run total — a compensating error would hide in the sum *)
    List.iter
      (fun (iv : Accounting.interval) ->
        assert (Accounting.consistent iv.Accounting.iv_d))
      ivals;
    if topdown then print_topdown totals;
    ( match stall_out with
    | Some path ->
      let written =
        Hc_core.Telemetry.write_file path
          (Accounting.csv_header
          :: List.map Accounting.interval_csv_row ivals)
      in
      Format.printf "stall intervals: wrote %s (%d intervals)@." written
        (List.length ivals)
    | None -> () )
  | _ -> () );
  if power then begin
    let report = Model.estimate ~narrow_bits:cfg.Config.narrow_bits m in
    Format.printf "@.energy: %.0f units@." report.Model.total;
    List.iter
      (fun (name, e) -> Format.printf "  %-20s %12.0f@." name e)
      report.Model.breakdown
  end;
  Cli.finish_obs obs

let cmd =
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "file" ] ~docv:"PATH"
          ~doc:
            "Simulate a saved trace (text or binary; see $(b,hc_trace \
             generate)) instead of generating one. $(b,--benchmark), \
             $(b,--length) and $(b,--cache-dir) are then ignored.")
  in
  let power =
    Arg.(value & flag & info [ "power" ] ~doc:"Print the energy breakdown.")
  in
  let compare_baseline =
    Arg.(
      value & opt bool true
      & info [ "compare" ] ~docv:"BOOL" ~doc:"Also run the monolithic baseline.")
  in
  let topdown =
    Arg.(
      value & flag
      & info [ "topdown" ]
          ~doc:
            "Enable the cycle-accounting engine and print the top-down slot \
             attribution table (every issue and commit slot of every tick \
             classified into a disjoint stall taxonomy; per-lane sums are \
             exactly width x rounds). Adds a $(b,stall) object to \
             $(b,--metrics-out) JSON.")
  in
  let stall_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "stall-out" ] ~docv:"FILE"
          ~doc:
            "Write the per-interval stall-attribution time series as CSV to \
             $(docv) (implies $(b,--topdown) accounting; intervals follow \
             $(b,--metrics-interval), else one whole-run interval).")
  in
  let doc = "cycle-level helper-cluster simulator" in
  Cmd.v (Cmd.info "hc_sim" ~doc)
    Term.(
      const run $ Cli.benchmark $ file $ Cli.scheme $ Cli.length ~default:30_000
      $ power $ compare_baseline $ Cli.jobs $ Cli.telemetry $ Cli.cache_dir
      $ Cli.obs $ topdown $ stall_out)

let () = exit (Cmd.eval cmd)
