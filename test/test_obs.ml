(* The telemetry subsystem: ring buffer wrap-around, interval sampling
   algebra, the zero-perturbation guarantee (metrics bit-identical with
   tracing on or off), aggregate==final-metrics, Chrome trace JSON
   well-formedness, Metrics.to_json, Telemetry.mkdir_p, and the domain
   pool's worker profiling counters. *)

module Ring = Hc_obs.Ring
module Event = Hc_obs.Event
module Sample = Hc_obs.Sample
module Probe = Hc_obs.Probe
module Chrome_trace = Hc_obs.Chrome_trace
module Telemetry = Hc_core.Telemetry
module Domain_pool = Hc_core.Domain_pool
module Profile = Hc_trace.Profile
module Generator = Hc_trace.Generator
module Config = Hc_sim.Config
module Pipeline = Hc_sim.Pipeline
module Metrics = Hc_sim.Metrics
module Counter = Hc_stats.Counter

(* ----- a minimal JSON validator (no dependencies): accepts exactly the
   RFC 8259 grammar we emit, rejects trailing garbage ----- *)

let json_valid (s : string) : bool =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let fail () = raise Exit in
  let expect c = if peek () = Some c then advance () else fail () in
  let literal lit =
    String.iter (fun c -> expect c) lit
  in
  let parse_string () =
    expect '"';
    let rec loop () =
      match peek () with
      | None -> fail ()
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        ( match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail ()
          done
        | _ -> fail () );
        loop ()
      | Some c when Char.code c < 0x20 -> fail ()
      | Some _ ->
        advance ();
        loop ()
    in
    loop ()
  in
  let parse_number () =
    if peek () = Some '-' then advance ();
    let digits () =
      let saw = ref false in
      let rec d () =
        match peek () with
        | Some '0' .. '9' ->
          saw := true;
          advance ();
          d ()
        | _ -> ()
      in
      d ();
      if not !saw then fail ()
    in
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    ( match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> () )
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else begin
        let rec members () =
          skip_ws ();
          parse_string ();
          skip_ws ();
          expect ':';
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail ()
        in
        members ()
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else begin
        let rec elements () =
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail ()
        in
        elements ()
      end
    | Some '"' -> parse_string ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> fail ()
  in
  try
    parse_value ();
    skip_ws ();
    !pos = n
  with Exit -> false

let test_json_validator () =
  (* the validator itself has to be trustworthy before the real tests
     lean on it *)
  List.iter
    (fun s -> Alcotest.(check bool) ("accepts " ^ s) true (json_valid s))
    [
      "{}"; "[]"; "[1,2,3]"; "{\"a\":1,\"b\":[true,false,null]}";
      "-1.5e-3"; "\"esc\\n\\u00e9\""; " { \"x\" : { } } ";
    ];
  List.iter
    (fun s -> Alcotest.(check bool) ("rejects " ^ s) false (json_valid s))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "{} x"; "01x"; "\"unterminated" ]

(* ----- ring buffer ----- *)

let test_ring_wrap () =
  let r = Ring.create ~capacity:4 ~dummy:(-1) in
  for i = 0 to 9 do
    Ring.push r i
  done;
  Alcotest.(check int) "length" 4 (Ring.length r);
  Alcotest.(check int) "pushed" 10 (Ring.pushed r);
  Alcotest.(check int) "dropped" 6 (Ring.dropped r);
  Alcotest.(check (list int)) "last 4 retained, oldest first" [ 6; 7; 8; 9 ]
    (Ring.to_list r);
  Alcotest.(check int) "fold" (6 + 7 + 8 + 9) (Ring.fold ( + ) 0 r)

let test_ring_partial () =
  let r = Ring.create ~capacity:8 ~dummy:0 in
  List.iter (Ring.push r) [ 3; 1; 4 ];
  Alcotest.(check (list int)) "no wrap: insertion order" [ 3; 1; 4 ]
    (Ring.to_list r);
  Alcotest.(check int) "dropped" 0 (Ring.dropped r);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Ring.create ~capacity:0 ~dummy:0))

(* ----- sample algebra ----- *)

let test_sample_algebra () =
  let t1 =
    { Sample.zero_totals with Sample.committed = 10; copies = 3; issued_total = 12 }
  in
  let t2 =
    { Sample.zero_totals with Sample.committed = 25; copies = 7; issued_total = 30 }
  in
  let d = Sample.sub_totals t2 t1 in
  Alcotest.(check int) "delta committed" 15 d.Sample.committed;
  Alcotest.(check int) "delta copies" 4 d.Sample.copies;
  let back = Sample.add_totals t1 d in
  Alcotest.(check bool) "add inverts sub" true (back = t2);
  let s1 = Sample.make ~t_start:0 ~t_end:100 ~iq_wide:2 ~iq_narrow:1 ~rob:5 t1 in
  let s2 = Sample.make ~t_start:100 ~t_end:200 ~iq_wide:0 ~iq_narrow:0 ~rob:0 d in
  Alcotest.(check bool) "aggregate sums the deltas" true
    (Sample.aggregate [ s1; s2 ] = t2);
  (* IPC: committed per wide cycle = per (ticks/2) *)
  Alcotest.(check (float 1e-9)) "ipc" 0.2 (Sample.ipc s1);
  (* the CSV row always matches the header's column count *)
  let cols s = List.length (String.split_on_char ',' s) in
  Alcotest.(check int) "csv columns" (cols Sample.csv_header)
    (cols (Sample.to_csv_row s1));
  Alcotest.(check bool) "sample json valid" true (json_valid (Sample.to_json s1))

(* ----- pipeline instrumentation ----- *)

let obs_trace =
  lazy (Generator.generate_sliced ~length:2_000 (Profile.find_spec_int "gcc"))

let run_scheme ?probe scheme =
  let cfg =
    if scheme = "baseline" then Config.baseline
    else Config.with_scheme Config.default (Config.find_scheme scheme)
  in
  Pipeline.run ?probe ~cfg ~decide:Hc_steering.Policy.decide ~scheme_name:scheme
    (Lazy.force obs_trace)

let metrics_equal ~cell (a : Metrics.t) (b : Metrics.t) =
  let check what x y = Alcotest.(check int) (cell ^ ": " ^ what) x y in
  check "committed" a.Metrics.committed b.Metrics.committed;
  check "ticks" a.Metrics.ticks b.Metrics.ticks;
  check "copies" a.Metrics.copies b.Metrics.copies;
  check "steered_narrow" a.Metrics.steered_narrow b.Metrics.steered_narrow;
  check "split_uops" a.Metrics.split_uops b.Metrics.split_uops;
  check "steered_888" a.Metrics.steered_888 b.Metrics.steered_888;
  check "steered_br" a.Metrics.steered_br b.Metrics.steered_br;
  check "steered_cr" a.Metrics.steered_cr b.Metrics.steered_cr;
  check "steered_ir" a.Metrics.steered_ir b.Metrics.steered_ir;
  check "steered_other" a.Metrics.steered_other b.Metrics.steered_other;
  check "wide_default" a.Metrics.wide_default b.Metrics.wide_default;
  check "wide_demoted" a.Metrics.wide_demoted b.Metrics.wide_demoted;
  check "wpred_correct" a.Metrics.wpred_correct b.Metrics.wpred_correct;
  check "wpred_fatal" a.Metrics.wpred_fatal b.Metrics.wpred_fatal;
  check "wpred_nonfatal" a.Metrics.wpred_nonfatal b.Metrics.wpred_nonfatal;
  check "prefetch_copies" a.Metrics.prefetch_copies b.Metrics.prefetch_copies;
  check "prefetch_useful" a.Metrics.prefetch_useful b.Metrics.prefetch_useful;
  check "nready_w2n" a.Metrics.nready_w2n b.Metrics.nready_w2n;
  check "nready_n2w" a.Metrics.nready_n2w b.Metrics.nready_n2w;
  check "issued_total" a.Metrics.issued_total b.Metrics.issued_total;
  List.iter
    (fun name ->
      check ("counter " ^ name)
        (Counter.get a.Metrics.counters name)
        (Counter.get b.Metrics.counters name))
    (Counter.names a.Metrics.counters)

let test_observation_is_free () =
  (* the whole point of the probe design: attaching full tracing AND the
     interval sampler must not change a single metric *)
  List.iter
    (fun scheme ->
      let plain = run_scheme scheme in
      let probe = Probe.create ~ring_capacity:1024 ~interval:250 ~tracing:true () in
      let observed = run_scheme ~probe scheme in
      metrics_equal ~cell:(scheme ^ " traced") plain observed;
      Alcotest.(check bool)
        (scheme ^ ": events were recorded")
        true
        (Probe.events_pushed probe > 0))
    [ "baseline"; "8_8_8"; "+IR" ]

(* a totals record shows as the interval JSON object carrying it *)
let totals =
  Alcotest.testable
    (fun ppf d ->
      Format.pp_print_string ppf
        (Sample.to_json
           (Sample.make ~t_start:0 ~t_end:0 ~iq_wide:0 ~iq_narrow:0 ~rob:0 d)))
    ( = )

let test_interval_aggregate_equals_metrics () =
  List.iter
    (fun interval ->
      let probe = Probe.create ~interval ~tracing:false () in
      let m = run_scheme ~probe "+IR" in
      let agg = Sample.aggregate (Probe.samples probe) in
      let cell = Printf.sprintf "interval=%d" interval in
      Alcotest.(check bool) (cell ^ ": sampled") true (Probe.sample_count probe > 0);
      (* every one of the record's columns, not a chosen few *)
      Alcotest.check totals (cell ^ ": totals") (Metrics.totals m) agg;
      (* monotone, contiguous, non-empty intervals *)
      let rec contiguous = function
        | a :: (b :: _ as rest) ->
          Alcotest.(check int) (cell ^ ": contiguous") a.Sample.t_end
            b.Sample.t_start;
          contiguous rest
        | _ -> ()
      in
      contiguous (Probe.samples probe))
    [ 100; 1_000; 1_000_000 (* one giant interval: only the tail flush *) ]

let test_chrome_trace_json () =
  let probe = Probe.create ~interval:500 ~tracing:true () in
  ignore (run_scheme ~probe "+IR");
  let events = Probe.events probe in
  Alcotest.(check bool) "have events" true (events <> []);
  let js =
    Chrome_trace.to_string
      ~ring:(Probe.events_pushed probe, Probe.events_dropped probe)
      ~events ~samples:(Probe.samples probe) ()
  in
  Alcotest.(check bool) "chrome trace JSON parses" true (json_valid js);
  (* spans and counters actually made it in *)
  let contains needle =
    let nl = String.length needle and hl = String.length js in
    let rec go i =
      i + nl <= hl && (String.sub js i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "has traceEvents" true (contains "\"traceEvents\"");
  Alcotest.(check bool) "has complete spans" true (contains "\"ph\":\"X\"");
  Alcotest.(check bool) "has counter samples" true (contains "\"ph\":\"C\"");
  Alcotest.(check bool) "has thread metadata" true
    (contains "\"thread_name\"");
  Alcotest.(check bool) "has ring metadata" true
    (contains "\"events_pushed\"");
  (* empty trace is still valid JSON *)
  Alcotest.(check bool) "empty trace parses" true
    (json_valid (Chrome_trace.to_string ~events:[] ~samples:[] ()))

let test_metrics_to_json () =
  let m = run_scheme "+CR" in
  let js = Metrics.to_json m in
  Alcotest.(check bool) "metrics JSON parses" true (json_valid js)

(* ----- telemetry file plumbing ----- *)

let test_mkdir_p_nested () =
  let base =
    Filename.concat (Filename.get_temp_dir_name ()) "hc_obs_test_mkdir"
  in
  let deep = Filename.concat (Filename.concat base "a") "b" in
  (* repeatable: already-existing prefixes must not raise *)
  Telemetry.mkdir_p deep;
  Telemetry.mkdir_p deep;
  Alcotest.(check bool) "nested dir exists" true
    (Sys.file_exists deep && Sys.is_directory deep);
  let probe = Probe.create ~interval:500 ~tracing:false () in
  ignore (run_scheme ~probe "+IR");
  let nested = Filename.concat deep "series.csv" in
  let written = Telemetry.write_intervals_csv ~path:nested (Probe.samples probe) in
  Alcotest.(check bool) "csv written through parents" true
    (Sys.file_exists written);
  let jpath = Filename.concat deep "series.json" in
  ignore (Telemetry.write_intervals_json ~path:jpath (Probe.samples probe));
  let ic = open_in jpath in
  let len = in_channel_length ic in
  let js = really_input_string ic len in
  close_in ic;
  Alcotest.(check bool) "intervals JSON parses" true (json_valid js)

let test_run_basename () =
  Alcotest.(check string) "sanitized"
    "+IR__gcc.intervals.csv"
    (Telemetry.run_basename ~scheme:"+IR" ~name:"gcc" ^ ".intervals.csv");
  let b = Telemetry.run_basename ~scheme:"a/b c" ~name:"x:y" in
  Alcotest.(check bool) "no separators survive" false
    (String.exists (fun c -> c = '/' || c = ' ' || c = ':') b)

(* ----- domain pool profiling ----- *)

let test_pool_profiling () =
  let pool = Domain_pool.create ~jobs:3 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let n = 64 in
      ignore (Domain_pool.map pool (fun x -> x * x) (Array.init n Fun.id));
      let stats = Domain_pool.stats pool in
      Alcotest.(check int) "one slot per worker" 3 (Array.length stats);
      let total =
        Array.fold_left (fun acc s -> acc + s.Domain_pool.w_tasks) 0 stats
      in
      Alcotest.(check int) "every task accounted once" n total;
      Alcotest.(check bool) "busy time non-negative" true
        (Array.for_all (fun s -> s.Domain_pool.w_busy_s >= 0.) stats);
      Alcotest.(check bool) "queue depth observed" true
        (Domain_pool.max_queue_depth pool > 0);
      (* a second batch accumulates *)
      ignore (Domain_pool.map pool succ (Array.init 10 Fun.id));
      let total' =
        Array.fold_left
          (fun acc s -> acc + s.Domain_pool.w_tasks)
          0 (Domain_pool.stats pool)
      in
      Alcotest.(check int) "counters accumulate" (n + 10) total')

let test_pool_profiling_sequential () =
  let pool = Domain_pool.create ~jobs:1 in
  ignore (Domain_pool.map pool succ (Array.init 5 Fun.id));
  let stats = Domain_pool.stats pool in
  Alcotest.(check int) "single inline slot" 1 (Array.length stats);
  Alcotest.(check int) "inline tasks counted" 5 stats.(0).Domain_pool.w_tasks;
  Domain_pool.shutdown pool

let suite =
  ( "obs",
    [
      Alcotest.test_case "json validator sanity" `Quick test_json_validator;
      Alcotest.test_case "ring wrap-around" `Quick test_ring_wrap;
      Alcotest.test_case "ring partial fill" `Quick test_ring_partial;
      Alcotest.test_case "sample delta algebra" `Quick test_sample_algebra;
      Alcotest.test_case "tracing leaves metrics bit-identical" `Slow
        test_observation_is_free;
      Alcotest.test_case "interval aggregate == final metrics" `Slow
        test_interval_aggregate_equals_metrics;
      Alcotest.test_case "chrome trace JSON well-formed" `Slow
        test_chrome_trace_json;
      Alcotest.test_case "metrics to_json well-formed" `Slow
        test_metrics_to_json;
      Alcotest.test_case "mkdir_p + interval files" `Quick test_mkdir_p_nested;
      Alcotest.test_case "telemetry run basenames" `Quick test_run_basename;
      Alcotest.test_case "pool worker profiling" `Quick test_pool_profiling;
      Alcotest.test_case "pool profiling inline" `Quick
        test_pool_profiling_sequential;
    ] )
