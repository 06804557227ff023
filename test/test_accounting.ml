(* Tests for the cycle-accounting engine: the slot-partition invariant
   (exact — per run, per interval, per lane) across every scheme, and
   accounting's zero observable effect on the metrics it rides with. *)

module Config = Hc_sim.Config
module Pipeline = Hc_sim.Pipeline
module Metrics = Hc_sim.Metrics
module Accounting = Hc_obs.Accounting
module Profile = Hc_trace.Profile
module Generator = Hc_trace.Generator
module Probe = Hc_obs.Probe
module Sample = Hc_obs.Sample

let all_schemes = List.map fst Hc_steering.Policy.stack

let spec_profiles = List.map Profile.find_spec_int Profile.spec_int_names

let resolve scheme tr =
  if scheme = "static_888" then
    ( Config.with_scheme Config.default (Config.find_scheme "8_8_8"),
      Hc_steering.Policy.static_oracle ~reason:Hc_sim.Steer.R888
        ~provably_narrow:
          (Array.get (Hc_analysis.Static.analyze tr).Hc_analysis.Static.provable)
    )
  else
    ( Config.with_scheme Config.default (Config.find_scheme scheme),
      Hc_steering.Policy.decide )

(* one run under an accounting probe: its metrics and the probe *)
let run_acct ?interval ?(tracing = false) scheme tr =
  let cfg, decide = resolve scheme tr in
  let probe = Probe.create ?interval ~accounting:true ~tracing () in
  let m = Pipeline.run ~probe ~cfg ~decide ~scheme_name:scheme tr in
  (m, probe)

let stall (m : Metrics.t) = Option.get m.Metrics.stall

(* every SPEC profile x every scheme in the stack (plus the static
   oracle): sum(categories) = width x rounds, exactly, on all three lanes *)
let test_partition_all_profiles () =
  List.iter
    (fun p ->
      let tr = Generator.generate_sliced ~length:2_000 p in
      List.iter
        (fun scheme ->
          let m, _ = run_acct scheme tr in
          let s = stall m in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s partition exact" p.Profile.name scheme)
            true
            (Accounting.consistent s);
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s stall_consistent" p.Profile.name scheme)
            true (Metrics.stall_consistent m))
        ("static_888" :: all_schemes))
    spec_profiles

(* interval snapshots: every delta satisfies the partition on its own,
   and the deltas re-add to exactly the end-of-run totals *)
let test_intervals_partition_and_sum () =
  let tr = Generator.generate_sliced ~length:6_000 (Profile.find_spec_int "gcc") in
  let m, p = run_acct ~interval:500 "+IR" tr in
  let ivals = Probe.stall_intervals p in
  Alcotest.(check bool) "several intervals" true (List.length ivals > 3);
  List.iter
    (fun (iv : Accounting.interval) ->
      Alcotest.(check bool)
        (Printf.sprintf "interval %d-%d consistent" iv.Accounting.iv_start
           iv.Accounting.iv_end)
        true
        (Accounting.consistent iv.Accounting.iv_d))
    ivals;
  let cfg = Config.with_scheme Config.default (Config.find_scheme "+IR") in
  let sum =
    List.fold_left
      (fun acc iv -> Accounting.add_totals acc iv.Accounting.iv_d)
      (Accounting.zero_totals ~issue_width:cfg.Config.issue_width
         ~commit_width:cfg.Config.commit_width)
      ivals
  in
  Alcotest.(check bool) "interval deltas sum to run totals" true
    (sum = stall m);
  (* intervals tile the run: contiguous, strictly increasing *)
  ignore
    (List.fold_left
       (fun prev_end (iv : Accounting.interval) ->
         Alcotest.(check int) "contiguous" prev_end iv.Accounting.iv_start;
         Alcotest.(check bool) "non-empty" true
           (iv.Accounting.iv_end > iv.Accounting.iv_start);
         iv.Accounting.iv_end)
       0 ivals)

(* accounting must not perturb the simulation: same trace, same scheme,
   with and without the accumulator — alone, and in a fully armed probe
   that also traces and samples — all metrics identical (the stall
   object is the only JSON difference, by construction) *)
let test_accounting_bit_identity () =
  let tr = Generator.generate_sliced ~length:4_000 (Profile.find_spec_int "mcf") in
  List.iter
    (fun scheme ->
      let cfg, decide = resolve scheme tr in
      let plain = Pipeline.run ~cfg ~decide ~scheme_name:scheme tr in
      let check what (observed, _) =
        Alcotest.(check string)
          (scheme ^ " metrics JSON identical with stall stripped, " ^ what)
          (Metrics.to_json plain)
          (Metrics.to_json { observed with Metrics.stall = None })
      in
      check "accounting alone" (run_acct scheme tr);
      check "fully armed probe" (run_acct ~interval:500 ~tracing:true scheme tr))
    [ "baseline"; "8_8_8"; "+IR" ]

(* the commit lane accounts every even tick; the wide lane every even
   tick; the narrow lane twice per cycle under the fast helper clock *)
let test_round_counts () =
  let tr = Generator.generate_sliced ~length:2_000 (Profile.find_spec_int "gzip") in
  let m, _ = run_acct "8_8_8" tr in
  let s = stall m in
  Alcotest.(check int) "wide rounds = cycles"
    s.Accounting.rounds.(Accounting.lane_wide)
    s.Accounting.rounds.(Accounting.lane_commit);
  Alcotest.(check bool) "narrow rounds ~ 2x wide (fast clock)" true
    (s.Accounting.rounds.(Accounting.lane_narrow)
     >= 2 * s.Accounting.rounds.(Accounting.lane_wide) - 1);
  (* committed uops all pass through the commit lane's issued slots *)
  Alcotest.(check int) "commit issued slots = committed uops"
    m.Metrics.committed
    (Accounting.get s ~lane:Accounting.lane_commit Accounting.Issued)

let test_csv_shape () =
  let tr = Generator.generate_sliced ~length:3_000 (Profile.find_spec_int "eon") in
  let _, p = run_acct ~interval:400 "+CR" tr in
  let header_cols = String.split_on_char ',' Accounting.csv_header in
  Alcotest.(check int) "header: 2 + 3 lanes x (9 cats + rounds)"
    (2 + (Accounting.nlanes * (Accounting.ncat + 1)))
    (List.length header_cols);
  List.iter
    (fun iv ->
      Alcotest.(check int) "row width matches header"
        (List.length header_cols)
        (List.length
           (String.split_on_char ',' (Accounting.interval_csv_row iv))))
    (Probe.stall_intervals p)

(* the stall series and the metrics series close their intervals at the
   same ticks; accounting without a sampling interval records no metrics
   samples and exactly one whole-run stall interval *)
let test_shared_boundaries () =
  let tr = Generator.generate_sliced ~length:6_000 (Profile.find_spec_int "gcc") in
  let stall_spans p =
    List.map
      (fun (iv : Accounting.interval) -> (iv.Accounting.iv_start, iv.Accounting.iv_end))
      (Probe.stall_intervals p)
  in
  let _, p = run_acct ~interval:500 "+IR" tr in
  Alcotest.(check (list (pair int int)))
    "stall intervals = metrics samples"
    (List.map
       (fun (s : Sample.t) -> (s.Sample.t_start, s.Sample.t_end))
       (Probe.samples p))
    (stall_spans p);
  let m, p = run_acct "+IR" tr in
  Alcotest.(check int) "no metrics samples" 0 (Probe.sample_count p);
  Alcotest.(check (list (pair int int)))
    "one whole-run stall interval" [ (0, m.Metrics.ticks) ] (stall_spans p)

(* randomized: any (profile, scheme, length) keeps the partition exact *)
let prop_partition =
  let gen =
    QCheck.Gen.(
      triple
        (oneofl [ "gcc"; "mcf"; "bzip2"; "gzip"; "vortex"; "twolf" ])
        (oneofl ("static_888" :: all_schemes))
        (int_range 200 3_000))
  in
  let print (bench, scheme, len) =
    Printf.sprintf "%s/%s at %d uops" bench scheme len
  in
  QCheck.Test.make ~name:"slot partition exact for random profile x scheme"
    ~count:40
    (QCheck.make ~print gen)
    (fun (bench, scheme, len) ->
      let tr = Generator.generate_sliced ~length:len (Profile.find_spec_int bench) in
      let m, p = run_acct ~interval:256 scheme tr in
      Accounting.consistent (stall m)
      && Metrics.stall_consistent m
      && List.for_all
           (fun (iv : Accounting.interval) ->
             Accounting.consistent iv.Accounting.iv_d)
           (Probe.stall_intervals p))

let suite =
  ( "accounting",
    [
      Alcotest.test_case "partition: all profiles x schemes" `Quick
        test_partition_all_profiles;
      Alcotest.test_case "interval partition and sum" `Quick
        test_intervals_partition_and_sum;
      Alcotest.test_case "accounting-on bit identity" `Quick
        test_accounting_bit_identity;
      Alcotest.test_case "round counts" `Quick test_round_counts;
      Alcotest.test_case "stall CSV shape" `Quick test_csv_shape;
      Alcotest.test_case "stall intervals share the metrics sample boundaries"
        `Quick test_shared_boundaries;
      QCheck_alcotest.to_alcotest prop_partition;
    ] )
