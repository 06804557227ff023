(* Artifact readback and cross-run comparison:

     hc_report report runs/*/metrics.json --intervals intervals.csv
     hc_report attrib m_888.json m_cr.json m_ir.json
     hc_report diff BENCH_1.json BENCH_3.json --tol kernels_ns_per_run.=0.30
     hc_report baseline smoke.json        # vs baselines/gcc_smoke.json
     hc_report validate [--jsonl|--prom] FILE...
     hc_report prom show dump.prom
     hc_report prom diff before.prom after.prom [--all]

   Everything is read from disk through lib/report's dependency-free
   JSON/CSV loaders and Hc_obs.Prom's exposition parser — this binary
   never runs a simulation. diff/baseline exit 1 on any regression and 2
   on baseline metrics missing from the candidate, validate exits 1 on a
   malformed artifact and prom show/diff exit 3 on a malformed dump, so CI
   can gate on the result. *)

module Json = Hc_report__Json
module Loader = Hc_report__Loader
module Diff = Hc_report__Diff
module Render = Hc_report__Render
module Sparkline = Hc_report__Sparkline
module Prom = Hc_obs.Prom

open Cmdliner

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 3) fmt

let load_or_die path =
  match Loader.load_json path with
  | Ok j -> j
  | Error e -> die "hc_report: %s" e

let load_runs paths =
  List.map (fun p -> (p, load_or_die p)) paths

let warn_ring path j =
  match Loader.ring_info j with
  | Some (pushed, dropped) when dropped > 0 ->
    Printf.printf
      "WARNING: %s: event ring overflowed — %d of %d events dropped, the \
       trace is a truncated window (raise --trace-buffer to keep more)\n"
      path dropped pushed
  | Some (pushed, _) ->
    Printf.printf "%s: complete trace (%d events, no ring drops)\n" path pushed
  | None -> ()

(* ---- report ---- *)

let report_cmd =
  let run files intervals trace width =
    if files = [] && intervals = None && trace = None then
      die "hc_report report: nothing to read (give metrics files, \
           --intervals or --trace)";
    let runs = load_runs files in
    List.iter
      (fun (path, j) ->
        match Loader.schema j with
        | Some s when s >= 2 -> ()
        | Some s ->
          Printf.printf "note: %s is schema %d (no attribution columns)\n"
            path s
        | None -> Printf.printf "note: %s has no schema field\n" path)
      runs;
    if runs <> [] then begin
      print_string (Render.summary_table runs);
      print_newline ();
      print_string (Render.attrib_table runs);
      print_newline ();
      List.iter
        (fun (path, j) ->
          if not (Render.attrib_consistent j) then
            Printf.printf
              "WARNING: %s: attribution columns do not sum to the steering \
               totals\n"
              path)
        runs
    end;
    ( match intervals with
    | None -> ()
    | Some path -> (
      match Loader.load_csv path with
      | Ok csv ->
        print_string (Render.timeline ~width csv);
        print_newline ()
      | Error e -> die "hc_report: %s" e ) );
    match trace with
    | None -> ()
    | Some path -> warn_ring path (load_or_die path)
  in
  let files =
    Arg.(value & pos_all string [] & info [] ~docv:"METRICS.json")
  in
  let intervals =
    Arg.(
      value
      & opt (some string) None
      & info [ "intervals" ] ~docv:"CSV"
          ~doc:"Interval CSV to render as sparkline phase timelines.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"JSON"
          ~doc:
            "Chrome trace to inspect for ring-buffer drops (warns when the \
             trace is a truncated window).")
  in
  let width =
    Arg.(
      value & opt int 60
      & info [ "width" ] ~docv:"CHARS" ~doc:"Sparkline width.")
  in
  let doc = "summarise run artifacts: metrics tables, phase timelines" in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const run $ files $ intervals $ trace $ width)

(* ---- attrib ---- *)

let attrib_cmd =
  let run files =
    if files = [] then die "hc_report attrib: give at least one metrics file";
    let runs = load_runs files in
    print_string (Render.attrib_table runs);
    print_newline ();
    (* advisory: predictor steering past the provable bound is where the
       width-violation recoveries live — not an invariant failure *)
    List.iter
      (fun (path, j) ->
        if Render.over_static_bound j then
          Printf.printf
            "WARNING: %s: predicted 8-8-8 steering exceeds the tightest \
             static provable bound — the excess is speculative and exposed \
             to width-violation recoveries\n"
            path)
      runs;
    let bad =
      List.filter (fun (_, j) -> not (Render.attrib_consistent j)) runs
    in
    List.iter
      (fun (path, _) ->
        Printf.printf
          "FAIL: %s: attribution columns do not sum to the steering totals\n"
          path)
      bad;
    if bad <> [] then exit 1;
    print_endline "attribution sums consistent"
  in
  let files =
    Arg.(value & pos_all string [] & info [] ~docv:"METRICS.json")
  in
  let doc = "steering-attribution breakdown (and its sum invariant)" in
  Cmd.v (Cmd.info "attrib" ~doc) Term.(const run $ files)

(* ---- topdown ---- *)

let topdown_cmd =
  let run files intervals width =
    if files = [] then
      die "hc_report topdown: give at least one schema-4 metrics file \
           (hc_sim --topdown --metrics-out)";
    let runs = load_runs files in
    List.iter
      (fun (path, j) ->
        match Json.member "stall" j with
        | Some _ -> ()
        | None ->
          die "hc_report topdown: %s has no stall object (run hc_sim with \
               --topdown, or the file predates schema 4)"
            path)
      runs;
    List.iter
      (fun (path, j) ->
        Printf.printf "%s (%s)\n" path (Render.run_label j);
        print_string (Render.topdown_table j);
        print_newline ())
      runs;
    ( match runs with
    | [ base; cand ] ->
      print_endline "share deltas (base -> new, percentage points):";
      print_string
        (Render.topdown_delta_table
           ~base:(Render.run_label (snd base), snd base)
           ~cand:(Render.run_label (snd cand), snd cand));
      print_newline ()
    | _ -> () );
    ( match intervals with
    | None -> ()
    | Some path -> (
      match Loader.load_csv path with
      | Ok csv ->
        print_string
          (Render.timeline ~width ~columns:Render.stall_timeline_columns csv);
        print_newline ()
      | Error e -> die "hc_report: %s" e ) );
    (* the partition invariant is the CI gate: slots must sum to exactly
       width x rounds per lane — any tolerance would let a leak hide *)
    let bad =
      List.filter (fun (_, j) -> not (Render.topdown_consistent j)) runs
    in
    List.iter
      (fun (path, _) ->
        Printf.printf
          "FAIL: %s: stall categories do not sum to lane slots (partition \
           invariant violated)\n"
          path)
      bad;
    if bad <> [] then exit 1;
    print_endline "topdown partition exact (sum(categories) == width x rounds)"
  in
  let files =
    Arg.(value & pos_all string [] & info [] ~docv:"METRICS.json")
  in
  let intervals =
    Arg.(
      value
      & opt (some string) None
      & info [ "intervals" ] ~docv:"CSV"
          ~doc:
            "Stall-interval CSV (hc_sim --stall-out) to render as sparkline \
             timelines.")
  in
  let width =
    Arg.(
      value & opt int 60
      & info [ "width" ] ~docv:"CHARS" ~doc:"Sparkline width.")
  in
  let doc =
    "top-down stall attribution tables (exit 1 if the slot partition is \
     not exact); two files add a policy-vs-policy delta view"
  in
  Cmd.v (Cmd.info "topdown" ~doc)
    Term.(const run $ files $ intervals $ width)

(* ---- trend ---- *)

let trend_cmd =
  let run files tolerance width =
    if List.length files < 2 then
      die "hc_report trend: give at least two BENCH snapshots (oldest first)";
    let snaps = load_runs files in
    (* per-kernel nanosecond series across the snapshots, arg order *)
    let leaves =
      List.map
        (fun (_, j) ->
          List.filter_map
            (fun (key, v) ->
              let prefix = "kernels_ns_per_run." in
              if String.starts_with ~prefix key then
                Some
                  ( String.sub key (String.length prefix)
                      (String.length key - String.length prefix),
                    v )
              else None)
            (Loader.numeric_leaves j))
        snaps
    in
    if List.exists (( = ) []) leaves then
      die "hc_report trend: a snapshot has no kernels_ns_per_run leaves \
           (not a bench --json file?)";
    (* kernels present in every snapshot, in first-snapshot order *)
    let kernels =
      List.filter
        (fun k -> List.for_all (List.mem_assoc k) leaves)
        (List.map fst (List.hd leaves))
    in
    let dropped =
      List.length (List.hd leaves) - List.length kernels
    in
    if dropped > 0 then
      Printf.printf
        "note: %d kernel%s not present in every snapshot, skipped\n" dropped
        (if dropped = 1 then "" else "s");
    Printf.printf "%d kernels across %d snapshots (oldest -> newest):\n"
      (List.length kernels) (List.length snaps);
    let regressions = ref 0 in
    List.iter
      (fun k ->
        let series =
          Array.of_list (List.map (fun l -> List.assoc k l) leaves)
        in
        print_endline (Sparkline.render_labelled ~width ~label:k series);
        let first = series.(0) and last = series.(Array.length series - 1) in
        let delta =
          if first > 0. then 100. *. (last -. first) /. first else 0.
        in
        Printf.printf "  %12.0f -> %12.0f ns/run  %+.1f%%\n" first last delta;
        if first > 0. && last > first *. (1. +. tolerance) then begin
          incr regressions;
          Printf.printf
            "  WARNING: %s regressed %+.1f%% first -> last (tolerance \
             %.0f%%)\n"
            k delta (100. *. tolerance)
        end)
      kernels;
    if !regressions > 0 then
      Printf.printf
        "%d kernel%s beyond tolerance — check the machines/the change \
         history before trusting cross-snapshot comparisons\n"
        !regressions
        (if !regressions = 1 then "" else "s")
    else print_endline "no kernel regressed beyond tolerance"
  in
  let files =
    Arg.(value & pos_all string [] & info [] ~docv:"BENCH.json")
  in
  let tolerance =
    Arg.(
      value & opt float 0.25
      & info [ "tolerance" ] ~docv:"REL"
          ~doc:
            "Relative first->last growth beyond which a kernel is flagged \
             (default 0.25; wall-clock benches are noisy, so this warns \
             rather than failing).")
  in
  let width =
    Arg.(
      value & opt int 40
      & info [ "width" ] ~docv:"CHARS" ~doc:"Sparkline width.")
  in
  let doc =
    "perf trajectory across BENCH snapshots: per-kernel sparkline and \
     first->last delta, warning on kernels growing beyond tolerance"
  in
  Cmd.v (Cmd.info "trend" ~doc) Term.(const run $ files $ tolerance $ width)

(* ---- spans ---- *)

(* Read a --span-log JSONL file back through the strict parser: every
   line must be one well-formed object with the span-record shape, so
   this doubles as a validator for the structured event log. *)
let spans_cmd =
  let run path =
    let ic =
      try open_in path with Sys_error e -> die "hc_report spans: %s" e
    in
    let lines = ref [] in
    ( try
        while true do
          lines := input_line ic :: !lines
        done
      with End_of_file -> close_in ic );
    let rows =
      List.mapi
        (fun i line ->
          let lineno = i + 1 in
          match Json.parse line with
          | Error at ->
            die "hc_report spans: %s:%d: malformed JSON at byte %d" path
              lineno at
          | Ok j ->
            let str key =
              match Option.bind (Json.member key j) Json.string_value with
              | Some s -> s
              | None ->
                die "hc_report spans: %s:%d: missing string field %S" path
                  lineno key
            in
            let num key =
              match Option.bind (Json.member key j) Json.number with
              | Some n -> n
              | None ->
                die "hc_report spans: %s:%d: missing numeric field %S" path
                  lineno key
            in
            if num "schema" <> 1. then
              die "hc_report spans: %s:%d: unsupported schema" path lineno;
            if str "kind" <> "span" then
              die "hc_report spans: %s:%d: not a span record" path lineno;
            (str "name", str "track", num "dur_ns", num "gc_minor_words"))
        (List.rev !lines)
    in
    if rows = [] then die "hc_report spans: %s is empty" path;
    (* aggregate by stage name *)
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (name, _, dur, minor) ->
        let c, total, mx, mw =
          Option.value (Hashtbl.find_opt tbl name) ~default:(0, 0., 0., 0.)
        in
        Hashtbl.replace tbl name (c + 1, total +. dur, Float.max mx dur, mw +. minor))
      rows;
    let stages =
      List.sort compare
        (Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl [])
    in
    Printf.printf "%s: %d spans, %d stages\n" path (List.length rows)
      (List.length stages);
    Printf.printf "%-18s %7s %12s %12s %14s\n" "stage" "count" "total ms"
      "max ms" "minor kwords";
    List.iter
      (fun (name, (c, total, mx, mw)) ->
        Printf.printf "%-18s %7d %12.2f %12.2f %14.0f\n" name c (total /. 1e6)
          (mx /. 1e6) (mw /. 1e3))
      stages
  in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SPANS.jsonl")
  in
  let doc =
    "read a --span-log JSONL file (strict parse of every line) and print \
     the per-stage aggregate"
  in
  Cmd.v (Cmd.info "spans" ~doc) Term.(const run $ path)

(* ---- diff / baseline ---- *)

let tol_conv =
  let parse s =
    match String.index_opt s '=' with
    | Some i ->
      let key = String.sub s 0 i in
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      ( match float_of_string_opt v with
      | Some tol when tol >= 0. -> Ok (key, tol)
      | _ -> Error (`Msg (Printf.sprintf "bad tolerance %S" v)) )
    | None -> Error (`Msg (Printf.sprintf "expected KEY=TOL, got %S" s))
  in
  let print ppf (k, v) = Format.fprintf ppf "%s=%g" k v in
  Arg.conv (parse, print)

let tols_arg =
  Arg.(
    value
    & opt_all tol_conv []
    & info [ "tol" ] ~docv:"KEY=REL"
        ~doc:
          "Relative tolerance for a metric or metric prefix (repeatable; \
           longest prefix wins; $(b,default=X) sets the catch-all). \
           E.g. $(b,--tol kernels_ns_per_run.=0.30).")

let default_tol_arg =
  Arg.(
    value & opt float 0.
    & info [ "default-tol" ] ~docv:"REL"
        ~doc:
          "Catch-all relative tolerance (default 0: the simulator is \
           deterministic, so exact match is the expectation).")

let run_diff ~base_path ~cand_path tols default_tol all =
  let base = load_or_die base_path in
  let cand = load_or_die cand_path in
  let r = Diff.run ~tols ~default_tol ~base ~cand () in
  Printf.printf "base: %s\nnew:  %s\n" base_path cand_path;
  print_string (Render.diff_table ~all r);
  print_newline ();
  exit (Diff.exit_code r)

let diff_cmd =
  let run base cand tols default_tol all =
    run_diff ~base_path:base ~cand_path:cand tols default_tol all
  in
  let base =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BASE.json")
  in
  let cand =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW.json")
  in
  let doc =
    "compare two runs; exit 1 on regression, 2 on missing metrics"
  in
  Cmd.v (Cmd.info "diff" ~doc)
    Term.(const run $ base $ cand $ tols_arg $ default_tol_arg $ Cli.all)

let baseline_cmd =
  let run cand baseline tols default_tol all =
    run_diff ~base_path:baseline ~cand_path:cand tols default_tol all
  in
  let cand =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NEW.json")
  in
  let baseline =
    Arg.(
      value
      & opt string "baselines/gcc_smoke.json"
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Committed baseline to gate against (refresh deliberately with \
             scripts/refresh_baseline.sh).")
  in
  let doc = "diff a run against the committed baseline (CI gate)" in
  Cmd.v (Cmd.info "baseline" ~doc)
    Term.(const run $ cand $ baseline $ tols_arg $ default_tol_arg $ Cli.all)
(* ---- prom: registry dumps ---- *)

(* Read back the Prometheus text exposition --prom-out (or bench --json's
   registry section) wrote. Both subcommands run the strict exposition
   parser, so they double as format validators: a malformed dump exits 3
   with the offending line. `diff` prints one row per series present in
   either dump (sorted) with the numeric delta — what a workload added to
   each counter between two scrapes of the same process. *)

let load_prom path =
  match Prom.of_file path with
  | Ok entries -> entries
  | Error e -> die "hc_report prom: %s: %s" path e

(* stable series key: name plus labels sorted by label name *)
let series_key (e : Prom.entry) =
  let labels =
    List.sort compare e.Prom.e_labels
    |> List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v)
    |> String.concat ","
  in
  if labels = "" then e.Prom.e_name
  else Printf.sprintf "%s{%s}" e.Prom.e_name labels

let series_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let prom_show_cmd =
  let run path =
    let rows =
      List.sort compare
        (List.map (fun e -> (series_key e, e.Prom.e_value)) (load_prom path))
    in
    List.iter
      (fun (k, v) -> Printf.printf "%-60s %s\n" k (series_value v))
      rows;
    Printf.printf "%d series in %s\n" (List.length rows) path
  in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DUMP.prom")
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:"validate a registry dump and print its series, sorted")
    Term.(const run $ path)

let prom_diff_cmd =
  let run base_path new_path all =
    let index entries =
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun e -> Hashtbl.replace tbl (series_key e) e.Prom.e_value)
        entries;
      tbl
    in
    let base = index (load_prom base_path) in
    let cand = index (load_prom new_path) in
    let keys =
      List.sort_uniq compare
        (Hashtbl.fold (fun k _ acc -> k :: acc) base []
        @ Hashtbl.fold (fun k _ acc -> k :: acc) cand [])
    in
    Printf.printf "base: %s\nnew:  %s\n" base_path new_path;
    Printf.printf "%-60s %14s %14s %14s\n" "series" "base" "new" "delta";
    let changed = ref 0 in
    List.iter
      (fun k ->
        match (Hashtbl.find_opt base k, Hashtbl.find_opt cand k) with
        | Some b, Some n ->
          if b <> n || all then begin
            if b <> n then incr changed;
            Printf.printf "%-60s %14s %14s %+14g\n" k (series_value b)
              (series_value n) (n -. b)
          end
        | None, Some n ->
          incr changed;
          Printf.printf "%-60s %14s %14s %14s\n" k "-" (series_value n) "new"
        | Some b, None ->
          incr changed;
          Printf.printf "%-60s %14s %14s %14s\n" k (series_value b) "-" "gone"
        | None, None -> ())
      keys;
    Printf.printf "%d of %d series changed\n" !changed (List.length keys)
  in
  let base =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BASE.prom")
  in
  let cand =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW.prom")
  in
  Cmd.v
    (Cmd.info "diff" ~doc:"per-series delta between two registry dumps")
    Term.(const run $ base $ cand $ Cli.all)

let prom_cmd =
  let doc = "read, validate and diff metrics-registry dumps (exit 3 if malformed)" in
  Cmd.group (Cmd.info "prom" ~doc) [ prom_show_cmd; prom_diff_cmd ]

(* ---- validate ---- *)

(* Strict well-formedness gate for artifacts, on the parsers the readers
   themselves use: a whole-file JSON value, a JSONL stream (exactly one
   object per line), or a Prometheus text exposition with at least one
   sample. *)
let validate_cmd =
  let lines s =
    (* keep line numbering exact: tolerate one trailing newline only *)
    match List.rev (String.split_on_char '\n' s) with
    | "" :: rest -> List.rev rest
    | all -> List.rev all
  in
  let check_json s =
    match Json.parse s with
    | Ok _ -> Ok (Printf.sprintf "valid JSON (%d bytes)" (String.length s))
    | Error at -> Error (Printf.sprintf "INVALID JSON at byte %d" at)
  in
  let check_jsonl s =
    let rec go n = function
      | [] when n = 0 -> Error "EMPTY JSONL stream"
      | [] -> Ok (Printf.sprintf "valid JSONL (%d records)" n)
      | line :: rest -> (
        match Json.parse line with
        | Ok (Json.Object _) -> go (n + 1) rest
        | Ok _ -> Error (Printf.sprintf "INVALID JSONL at line %d: not an object" (n + 1))
        | Error at ->
          Error (Printf.sprintf "INVALID JSONL at line %d byte %d" (n + 1) at) )
    in
    go 0 (lines s)
  in
  let check_prom s =
    match Prom.parse s with
    | Ok [] -> Error "EMPTY exposition (no samples)"
    | Ok entries ->
      Ok (Printf.sprintf "valid exposition (%d samples)" (List.length entries))
    | Error msg -> Error ("INVALID exposition at " ^ msg)
  in
  let run check files =
    let valid path =
      match check (In_channel.with_open_bin path In_channel.input_all) with
      | Ok msg -> Printf.printf "%s: %s\n" path msg; true
      | Error msg -> Printf.eprintf "%s: %s\n" path msg; false
      | exception Sys_error e -> Printf.eprintf "%s\n" e; false
    in
    (* check every file, then fail if any was malformed *)
    if not (List.fold_left (fun ok path -> valid path && ok) true files) then exit 1
  in
  let check =
    Arg.(
      value
      & vflag check_json
          [ (check_jsonl, info [ "jsonl" ] ~doc:"one JSON object per line");
            (check_prom, info [ "prom" ] ~doc:"Prometheus text exposition 0.0.4") ])
  in
  let files = Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE") in
  let doc =
    "strictly validate artifacts (JSON by default) and exit 1 if any is \
     malformed"
  in
  Cmd.v (Cmd.info "validate" ~doc) Term.(const run $ check $ files)

let () =
  let doc = "read, summarise and diff helper-cluster run artifacts" in
  let info = Cmd.info "hc_report" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ report_cmd; attrib_cmd; topdown_cmd; trend_cmd; spans_cmd;
            diff_cmd; baseline_cmd; validate_cmd; prom_cmd ]))
