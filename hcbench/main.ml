(* The repository benchmark: three single-domain workloads that call each
   layer's public functions directly and time them from outside.

     sweep   12 SPEC Int profiles x 8 schemes over 30k-uop sliced traces
     cold    84 suite apps at 8k uops: generate -> encode -> decode ->
             bidirectional static analysis -> baseline and +IR
             simulations -> metrics JSON + power estimate
     rescan  the artifact-cache read path: trace load, trace-analysis
             scans, lint, and metrics lookups for every cached cell

   Usage (from the repository root, normally through hcbench/run.py):

     main.exe --workload sweep|cold|rescan --seed N --seconds S --trace 0|1
     main.exe --record-golden     rewrite hcbench/golden.txt (seed 0)
     main.exe --workload W --self-test
                                  prove a perturbed golden digest fails cells

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. See hcbench/README.md. *)

module Profile = Hc_trace.Profile
module Generator = Hc_trace.Generator
module Trace = Hc_trace.Trace
module Codec = Hc_trace.Codec
module Analysis = Hc_trace.Analysis
module Workloads = Hc_trace.Workloads
module Static = Hc_analysis.Static
module Lint = Hc_analysis.Lint
module Pipeline = Hc_sim.Pipeline
module Metrics = Hc_sim.Metrics
module Model = Hc_power.Model
module Cache = Hc_core.Artifact_cache
module Runs = Hc_core.Runs

let span = Spans.with_span
let now = Unix.gettimeofday

(* ----- inputs ----- *)

let default_seed = 0
let sweep_length = 30_000
let cold_length = 8_000
let cold_apps_per_category = 12
let golden_path = "hcbench/golden.txt"
let tmp_root = ".hcbench_tmp"
let out_root = ".hcbench_out"

let schemes =
  [ "baseline"; "8_8_8"; "+BR"; "+LR"; "+CR"; "+CP"; "+IR"; "+IR(nodest)" ]

let scheme_label = function
  | "baseline" -> "baseline"
  | "8_8_8" -> "8_8_8"
  | "+IR(nodest)" -> "ir_nodest"
  | s -> String.lowercase_ascii (String.sub s 1 (String.length s - 1))

(* Every profile's seed derives from the workload seed; seed 0 keeps the
   shipped seeds, so the default run simulates exactly what the
   experiment tables simulate. *)
let reseed seed (p : Profile.t) =
  Profile.with_seed p
    (Int64.add p.Profile.seed (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L))

let spec_profiles seed = List.map (reseed seed) Profile.spec_int

let cold_profiles seed =
  List.concat_map
    (fun (e : Workloads.entry) ->
      List.filteri
        (fun i _ -> i < cold_apps_per_category)
        (Workloads.category_apps e.Workloads.category))
    Workloads.table2
  |> List.map (reseed seed)

(* ----- output checks ----- *)

(* Golden digests: checked at the default seed, written by
   --record-golden, absent (invariants only) at any other seed. *)
type golden = Check of (string, string) Hashtbl.t | Record of (string * string) list ref | Off

let golden = ref Off

let load_golden () =
  let tbl = Hashtbl.create 512 in
  let ic = open_in golden_path in
  ( try
      while true do
        match String.split_on_char ' ' (String.trim (input_line ic)) with
        | [ k; d ] -> Hashtbl.replace tbl k d
        | _ -> ()
      done
    with End_of_file -> () );
  close_in ic;
  tbl

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failures : string list;
}

let tally = { attempted = 0; failed = 0; first_failures = [] }

(* One output cell: [ok] holds the invariants, [digests] the golden
   comparisons. *)
let cell what ~ok digests =
  let matches (key, value) =
    let d = Digest.to_hex (Digest.string value) in
    match !golden with
    | Off -> true
    | Record acc ->
      acc := (key, d) :: !acc;
      true
    | Check tbl -> Hashtbl.find_opt tbl key = Some d
  in
  let ok = List.for_all matches digests && ok in
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    if List.length tally.first_failures < 5 then
      tally.first_failures <- what :: tally.first_failures
  end

(* [f] computes the invariants and the digested outputs inside the check
   span, so their cost is not charged to a layer or to the harness. *)
let check what f =
  span "check" (fun () ->
      let ok, digests = f () in
      cell what ~ok digests)

(* The static bounds [Runs] attaches to every run it simulates, so the
   metrics JSON here is byte-for-byte what the experiments export. *)
let attach (st : Static.bidir) m =
  {
    m with
    Metrics.static_narrow_bound = Some st.Static.base.Static.steerable_count;
    static_bidir_bound = Some st.Static.bidir_steerable_count;
  }

let metrics_ok tr m = m.Metrics.committed = Trace.length tr && Metrics.attrib_consistent m

let bidir_image (s : Static.bidir) =
  Marshal.to_string
    ( s.Static.base.Static.provable,
      s.Static.base.Static.steerable,
      s.Static.bidir_provable,
      s.Static.bidir_steerable )
    [ Marshal.No_sharing ]

let metrics_key ~len ~name ~scheme = Printf.sprintf "metrics/%d/%s/%s" len name scheme

(* ----- layer calls ----- *)

let generate ~length p =
  span "gen" ~tag:p.Profile.name ~uops:length (fun () ->
      Generator.generate_sliced ~length p)

let analyze tr =
  span "analysis.bidir" ~tag:tr.Trace.name ~uops:(Trace.length tr) (fun () ->
      Static.analyze_bidir tr)

let simulate ~static ~scheme tr =
  let cfg, decide = Runs.resolve_policy ~static ~scheme in
  let m =
    span "sim" ~tag:tr.Trace.name ~scheme ~uops:(Trace.length tr) (fun () ->
        Pipeline.run ~cfg ~decide ~scheme_name:scheme tr)
  in
  Spans.note_ticks m.Metrics.ticks;
  attach static m

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

(* ----- workloads ----- *)

(* A set-up workload. A pass runs every unit once, in order; each unit
   checks its own output cells. [speedup ()] then gives the pass's mean
   +IR speedup over baseline. *)
type ready = {
  units : (unit -> unit) array;
  speedup : unit -> float;
  teardown : unit -> unit;
}

let run_pass r =
  Array.iter (fun u -> u ()) r.units;
  r.speedup ()

type workload = {
  wname : string;
  uops_per_pass : int;  (** simulated (analysed, for rescan) uops per pass *)
  setups : int;  (** set-ups per untraced run; set-up time is their median *)
  prepare : int -> unit;  (** untimed work before the first set-up *)
  setup : int -> ready;
  perturb : string;  (** golden key the self-test corrupts *)
}

let index_of x l =
  let rec go i = function
    | [] -> invalid_arg "index_of"
    | y :: rest -> if y = x then i else go (i + 1) rest
  in
  go 0 l

(* sweep: simulation only. Set-up generates and analyses the traces and
   simulates each once (which also builds the record view the pipeline
   reads), so a unit is one [Pipeline.run] and its check. *)
let sweep_setup seed =
  let traces =
    List.map
      (fun p ->
        let tr = generate ~length:sweep_length p in
        let st = analyze tr in
        let m = simulate ~static:st ~scheme:"baseline" tr in
        check ("sweep warm-up " ^ tr.Trace.name) (fun () ->
            ( metrics_ok tr m,
              [ ("bidir/" ^ string_of_int sweep_length ^ "/" ^ tr.Trace.name, bidir_image st) ]
            ));
        (tr, st))
      (spec_profiles seed)
  in
  let results = Array.make_matrix (List.length traces) (List.length schemes) None in
  let units =
    List.concat
      (List.mapi
         (fun i (tr, static) ->
           List.mapi
             (fun j scheme () ->
               let m = simulate ~static ~scheme tr in
               check (tr.Trace.name ^ "/" ^ scheme) (fun () ->
                   ( metrics_ok tr m,
                     [ ( metrics_key ~len:sweep_length ~name:tr.Trace.name ~scheme,
                         Metrics.to_json m ) ] ));
               results.(i).(j) <- Some m)
             schemes)
         traces)
  in
  let b = index_of "baseline" schemes and ir = index_of "+IR" schemes in
  let speedup () =
    mean
      (Array.to_list
         (Array.map
            (fun row ->
              match (row.(b), row.(ir)) with
              | Some baseline, Some m -> Metrics.speedup_pct ~baseline m
              | _ -> nan)
            results))
  in
  { units = Array.of_list units; speedup; teardown = ignore }

(* encoded bytes and the uops they hold, for codec.bytes_per_uop *)
let codec_bytes = ref 0
let codec_uops = ref 0

(* cold: one app end to end; nothing survives the unit. *)
let cold_unit p =
  let tr = generate ~length:cold_length p in
  let n = Trace.length tr in
  let name = tr.Trace.name in
  let bytes = span "codec.encode" ~tag:name ~uops:n (fun () -> Codec.encode tr) in
  let tr = span "codec.decode" ~tag:name ~uops:n (fun () -> Codec.decode ~profile:p bytes) in
  let st = analyze tr in
  let base = simulate ~static:st ~scheme:"baseline" tr in
  let ir = simulate ~static:st ~scheme:"+IR" tr in
  let json m =
    span "report.json" ~tag:name ~scheme:m.Metrics.scheme_name ~uops:n (fun () ->
        Metrics.to_json m)
  in
  let power m =
    span "power" ~tag:name ~scheme:m.Metrics.scheme_name ~uops:n (fun () ->
        Model.estimate m)
  in
  let jb = json base and ji = json ir in
  let pb = power base and pi = power ir in
  codec_bytes := !codec_bytes + String.length bytes;
  codec_uops := !codec_uops + n;
  check ("cold " ^ name) (fun () ->
      ( metrics_ok tr base && metrics_ok tr ir
        && String.equal (Codec.encode tr) bytes
        && pb.Model.total > 0. && pi.Model.total > 0.,
        [ (Printf.sprintf "trace/%d/%s" cold_length name, bytes);
          (Printf.sprintf "bidir/%d/%s" cold_length name, bidir_image st);
          (metrics_key ~len:cold_length ~name ~scheme:"baseline", jb);
          (metrics_key ~len:cold_length ~name ~scheme:"+IR", ji) ] ));
  Metrics.speedup_pct ~baseline:base ir

let cold_setup seed =
  let apps = cold_profiles seed in
  (* warm-up: the first app of each category through every layer *)
  List.iteri (fun i p -> if i mod cold_apps_per_category = 0 then ignore (cold_unit p)) apps;
  let speedups = Array.make (List.length apps) nan in
  { units = Array.of_list (List.mapi (fun i p () -> speedups.(i) <- cold_unit p) apps);
    speedup = (fun () -> mean (Array.to_list speedups));
    teardown = ignore }

(* rescan: the read path. Set-up publishes traces and every scheme's
   metrics into a private cache; a pass reads them back. *)
let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir () =
  if not (Sys.file_exists tmp_root) then Sys.mkdir tmp_root 0o755;
  let rec pick k =
    let d = Filename.concat tmp_root (Printf.sprintf "cache-%d-%d" (Unix.getpid ()) k) in
    if Sys.file_exists d then pick (k + 1) else d
  in
  pick 0

let scan tr =
  span "analysis.scan" ~tag:tr.Trace.name ~uops:(Trace.length tr) (fun () ->
      let mix = Analysis.operand_mix tr in
      Printf.sprintf "%h %h %h %h %h %h %h" (Analysis.narrow_dependence_pct tr)
        mix.Analysis.one_narrow mix.Analysis.two_narrow_wide_result
        mix.Analysis.two_narrow_narrow_result
        (Analysis.carry_not_propagated_pct tr ~arith:true)
        (Analysis.carry_not_propagated_pct tr ~arith:false)
        (Analysis.mean_distance tr))

let lint_errors = ref 0
let cache_lookups = ref 0
let cache_hits = ref 0

let lookup f =
  let r = f () in
  incr cache_lookups;
  if Option.is_some r then incr cache_hits;
  r

(* Every scheme's metrics for each SPEC profile, simulated once per run
   before the set-ups, so a rescan set-up times only what publishing
   costs: generating, encoding and storing. *)
let rescan_simulated : (string, (string * Metrics.t) list) Hashtbl.t = Hashtbl.create 16

let rescan_prepare seed =
  List.iter
    (fun p ->
      let tr = Generator.generate_sliced ~length:sweep_length p in
      let static = Static.analyze_bidir tr in
      Hashtbl.replace rescan_simulated p.Profile.name
        (List.map (fun scheme -> (scheme, simulate ~static ~scheme tr)) schemes))
    (spec_profiles seed)

let rescan_setup seed =
  let root = fresh_dir () in
  let cache = Cache.create ~root () in
  let profiles = spec_profiles seed in
  List.iter
    (fun p ->
      let tr = generate ~length:sweep_length p in
      span "cache.store_trace" ~tag:p.Profile.name ~uops:sweep_length (fun () ->
          Cache.store_trace cache ~profile:p ~length:sweep_length tr);
      List.iter
        (fun (scheme, m) ->
          span "cache.store_metrics" ~tag:p.Profile.name ~uops:sweep_length (fun () ->
              Cache.store_metrics cache ~scheme ~profile:p ~length:sweep_length m))
        (Hashtbl.find rescan_simulated p.Profile.name))
    profiles;
  codec_bytes := (Cache.disk cache).Cache.trace_bytes;
  codec_uops := List.length profiles * sweep_length;
  let read p =
    let name = p.Profile.name in
    let found =
      lookup (fun () ->
          span "cache.find_trace" ~tag:name ~uops:sweep_length (fun () ->
              Cache.find_trace cache ~profile:p ~length:sweep_length))
    in
    ( match found with
    | None -> cell ("rescan trace miss " ^ name) ~ok:false []
    | Some tr ->
      let scans = scan tr in
      let diags =
        span "lint" ~tag:name ~uops:sweep_length (fun () ->
            Lint.check_trace ~expected_profile:p tr)
      in
      let errors = Lint.count Lint.Error diags in
      lint_errors := !lint_errors + errors;
      check ("rescan trace " ^ name) (fun () ->
          ( Trace.length tr = sweep_length && errors = 0,
            [ ("scan/" ^ name, scans);
              ("lint/" ^ name, String.concat "\n" (List.map Lint.to_string diags)) ] )) );
    let find scheme =
      let m =
        lookup (fun () ->
            span "cache.find_metrics" ~tag:name ~scheme ~uops:sweep_length
              (fun () ->
                Cache.find_metrics cache ~scheme ~profile:p ~length:sweep_length))
      in
      ( match m with
      | None -> cell ("rescan metrics miss " ^ name ^ "/" ^ scheme) ~ok:false []
      | Some m ->
        check ("rescan metrics " ^ name ^ "/" ^ scheme) (fun () ->
            ( m.Metrics.committed = sweep_length && Metrics.attrib_consistent m,
              [ (metrics_key ~len:sweep_length ~name ~scheme, Metrics.to_json m) ] )) );
      (scheme, m)
    in
    let runs = List.map find schemes in
    match (List.assoc "baseline" runs, List.assoc "+IR" runs) with
    | Some baseline, Some ir -> Metrics.speedup_pct ~baseline ir
    | _ -> 0.
  in
  (* warm-up: read one profile back *)
  ignore (read (List.hd profiles));
  let speedups = Array.make (List.length profiles) nan in
  let teardown () =
    remove_tree root;
    try Sys.rmdir tmp_root with Sys_error _ -> ()
  in
  { units = Array.of_list (List.mapi (fun i p () -> speedups.(i) <- read p) profiles);
    speedup = (fun () -> mean (Array.to_list speedups));
    teardown }

let workloads =
  [ { wname = "sweep"; uops_per_pass = 12 * 8 * sweep_length; setups = 5;
      prepare = ignore; setup = sweep_setup;
      perturb = metrics_key ~len:sweep_length ~name:"gcc" ~scheme:"+IR" };
    { wname = "cold";
      uops_per_pass = 2 * cold_length * 7 * cold_apps_per_category;
      setups = 7; prepare = ignore; setup = cold_setup;
      perturb =
        metrics_key ~len:cold_length
          ~name:(List.hd (cold_profiles default_seed)).Profile.name ~scheme:"+IR" };
    { wname = "rescan"; uops_per_pass = 12 * sweep_length; setups = 7;
      prepare = rescan_prepare; setup = rescan_setup; perturb = "scan/gcc" } ]

(* ----- timing ----- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* A pass's time at the host's contended level: each unit's median time
   over the passes, times the 95th percentile of the unit-time ratios,
   where a ratio is a unit time over its own unit's median. On a
   shared VM a vCPU can slow the simulator by up to 1.9x for seconds at a
   time, and how often changes from run to run, so the median pass moves
   with it; the contended level moves least. hcbench/README.md has the
   measurements. *)
let contended_wall durations =
  let typical = Array.map median durations in
  let ratios =
    Array.concat
      (Array.to_list
         (Array.mapi (fun i ds -> Array.of_list (List.map (fun d -> d /. typical.(i)) ds)) durations))
  in
  Array.sort Float.compare ratios;
  ratios.(int_of_float (0.95 *. float_of_int (Array.length ratios - 1)))
  *. Array.fold_left ( +. ) 0. typical

let timed f =
  let t0 = now () in
  let x = f () in
  (now () -. t0, x)

(* Set-ups run one after another with the previous one's state dropped
   and the heap compacted in between, outside the timed interval. *)
let set_up w seed k =
  Gc.compact ();
  Spans.run_id := -k;
  timed (fun () -> span "setup" (fun () -> w.setup seed))

let setups w seed n =
  let rec go k acc =
    let t, r = set_up w seed k in
    if k = n then (median (t :: acc), r)
    else begin
      r.teardown ();
      go (k + 1) (t :: acc)
    end
  in
  go 1 []

(* Each pass starts from a collected heap, so the previous pass's garbage
   neither slows it nor, over more passes, raises the peak heap. *)
let timed_pass ?(record = fun _ _ -> ()) r k =
  Gc.full_major ();
  Spans.run_id := k;
  timed (fun () ->
      span "pass" (fun () ->
          Array.iteri
            (fun i u ->
              let t0 = now () in
              u ();
              record i (now () -. t0))
            r.units;
          r.speedup ()))

(* Every pass must reproduce the first pass's speedup bit for bit. *)
let deterministic speedups =
  cell "pass determinism"
    ~ok:(List.for_all (Float.equal (List.hd speedups)) speedups)
    []

(* Run [each k] for k = 1, 2, ... until [seconds] is used up, stopping
   early rather than overshooting by more than half a pass; at least
   once. *)
let until ~seconds each =
  let start = now () in
  let rec go k last =
    if k = 1 || now () -. start +. (last /. 2.) <= seconds then go (k + 1) (each k)
  in
  go 1 0.

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.starts_with ~prefix:"VmHWM:" l ->
      Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* ----- results ----- *)

type metric = { mname : string; unit_ : string; value : float }

let m mname unit_ value = { mname; unit_; value }

let result_line metrics =
  let body =
    String.concat ","
      (List.map
         (fun x ->
           Printf.sprintf "%s:{\"value\":%.10g,\"unit\":%s}" (Spans.json_string x.mname)
             x.value (Spans.json_string x.unit_))
         metrics)
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    (tally.failed = 0 && tally.attempted > 0)
    tally.attempted tally.failed body

(* ----- per-layer metrics from the traced passes ----- *)

let layers = [ "gen"; "codec"; "analysis"; "lint"; "sim"; "cache"; "report"; "power" ]

(* Marginal minor words per simulated uop: two simulations that differ
   only in length, after a warm-up, so per-run fixed allocation cancels.
   The simulator's hot path allocates nothing per uop. *)
let marginal_sim_words () =
  let full = Generator.generate_sliced ~length:4_000 (Profile.find_spec_int "gcc") in
  let short = Trace.sub full ~pos:0 ~len:2_000 in
  let words tr =
    let static = Static.analyze_bidir tr in
    let cfg, decide = Runs.resolve_policy ~static ~scheme:"+IR" in
    let run () = ignore (Pipeline.run ~cfg ~decide ~scheme_name:"+IR" tr) in
    run ();
    let w0 = Gc.minor_words () in
    run ();
    Gc.minor_words () -. w0
  in
  let ws = words short and wl = words full in
  (wl -. ws) /. 2_000.

let per_layer ~traced_wall ~untraced_wall ~passes ~marginal ~speedup =
  let selfs = Spans.self (Spans.all ()) in
  let in_pass = List.filter (fun (s, _, _) -> s.Spans.run >= 1) selfs in
  (* per-layer figures come from the passes; generation, which sweep and
     rescan do only in set-up, also counts its set-up spans *)
  let pick pred =
    List.filter
      (fun (s, _, _) ->
        pred s && (s.Spans.run >= 1 || Spans.layer s.Spans.name = "gen"))
      selfs
  in
  let sum f l = List.fold_left (fun a x -> a +. f x) 0. l in
  let self_s l = sum (fun (_, t, _) -> t) l in
  let uops l = sum (fun (s, _, _) -> float_of_int s.Spans.uops) l in
  let ticks l = sum (fun (s, _, _) -> float_of_int s.Spans.ticks) l in
  let ratio a b = if b = 0. then 0. else a /. b in
  let ns_per_uop l = ratio (self_s l *. 1e9) (uops l) in
  let us_per_call l = ratio (self_s l *. 1e6) (float_of_int (List.length l)) in
  let named n = pick (fun s -> s.Spans.name = n) in
  let sims = named "sim" in
  (* the first simulation of each trace in a pass *)
  let first = Hashtbl.create 64 in
  List.iter
    (fun (s, _, _) ->
      let k = (s.Spans.run, s.Spans.tag) in
      match Hashtbl.find_opt first k with
      | Some id when id <= s.Spans.id -> ()
      | _ -> Hashtbl.replace first k s.Spans.id)
    sims;
  let is_first (s, _, _) = Hashtbl.find_opt first (s.Spans.run, s.Spans.tag) = Some s.Spans.id in
  let pass_total = sum (fun (s, _, _) -> s.Spans.stop -. s.Spans.start)
      (List.filter (fun (s, _, _) -> s.Spans.name = "pass") in_pass) in
  let share pred = ratio (self_s (List.filter (fun (s, _, _) -> pred s) in_pass)) pass_total in
  let of_layer l = pick (fun s -> Spans.layer s.Spans.name = l) in
  let per_profile =
    List.concat_map
      (fun name ->
        let l = List.filter (fun (s, _, _) -> s.Spans.tag = name) sims in
        [ m ("sim.ns_per_uop." ^ name) "ns" (ns_per_uop l);
          m ("sim.ns_per_tick." ^ name) "ns" (ratio (self_s l *. 1e9) (ticks l));
          m ("sim.ticks_per_uop." ^ name) "count" (ratio (ticks l) (uops l)) ])
      Profile.spec_int_names
  in
  let per_scheme =
    List.map
      (fun scheme ->
        m ("sim.ns_per_uop." ^ scheme_label scheme) "ns"
          (ns_per_uop (List.filter (fun (s, _, _) -> s.Spans.scheme = scheme) sims)))
      schemes
  in
  let layer_metrics =
    List.concat_map
      (fun l ->
        let ls = of_layer l in
        [ m (l ^ ".share") "ratio" (share (fun s -> Spans.layer s.Spans.name = l));
          m (l ^ ".minor_words_per_uop") "words/uop"
            (ratio (sum (fun (_, _, w) -> w) ls) (uops ls)) ])
      layers
  in
  let metrics =
    per_profile @ per_scheme
    @ [ m "sim.first_ns_per_uop" "ns" (ns_per_uop (List.filter is_first sims));
        m "sim.ns_per_uop" "ns" (ns_per_uop (List.filter (fun x -> not (is_first x)) sims));
        m "sim.ns_per_tick" "ns" (ratio (self_s sims *. 1e9) (ticks sims));
        m "sim.marginal_minor_words_per_uop" "words/uop" marginal;
        m "sim.ir_speedup_pct" "%" speedup;
        m "gen.ns_per_uop" "ns" (ns_per_uop (named "gen"));
        m "codec.encode_ns_per_uop" "ns" (ns_per_uop (named "codec.encode"));
        m "codec.decode_ns_per_uop" "ns" (ns_per_uop (named "codec.decode"));
        m "codec.bytes_per_uop" "B/uop"
          (ratio (float_of_int !codec_bytes) (float_of_int !codec_uops));
        m "analysis.bidir_ns_per_uop" "ns" (ns_per_uop (named "analysis.bidir"));
        m "analysis.scan_ns_per_uop" "ns" (ns_per_uop (named "analysis.scan"));
        m "lint.ns_per_uop" "ns" (ns_per_uop (named "lint"));
        m "lint.errors" "count" (float_of_int !lint_errors);
        m "cache.find_trace_ns_per_uop" "ns" (ns_per_uop (named "cache.find_trace"));
        m "cache.find_metrics_us" "us" (us_per_call (named "cache.find_metrics"));
        m "cache.hit_frac" "ratio"
          (ratio (float_of_int !cache_hits) (float_of_int !cache_lookups));
        m "report.json_us_per_run" "us" (us_per_call (named "report.json"));
        m "power.us_per_run" "us" (us_per_call (named "power")) ]
    @ layer_metrics
    @ [ m "check.share" "ratio" (share (fun s -> s.Spans.name = "check"));
        m "harness.share" "ratio" (share (fun s -> s.Spans.name = "pass"));
        m "trace.traced_wall_s" "s" traced_wall;
        m "trace.untraced_wall_s" "s" untraced_wall;
        m "trace.overhead_s" "s" (traced_wall -. untraced_wall) ]
  in
  (* one row per layer: self time, share, calls and minor words *)
  let n = float_of_int (max 1 passes) in
  Printf.printf "%-10s %12s %8s %10s %14s\n" "layer" "self_s/pass" "share" "calls/pass"
    "minor_w/uop";
  List.iter
    (fun l ->
      let ls = List.filter (fun (s, _, _) -> Spans.layer s.Spans.name = l) in_pass in
      Printf.printf "%-10s %12.4f %8.4f %10.1f %14.4f\n"
        (if l = "pass" then "harness" else l)
        (self_s ls /. n)
        (ratio (self_s ls) pass_total)
        (float_of_int (List.length ls) /. n)
        (ratio (sum (fun (_, _, w) -> w) ls) (uops ls)))
    (layers @ [ "check"; "pass" ]);
  Printf.printf
    "traced passes: mean %.4f s = sum of self times %.4f s; median traced %.4f s, \
     untraced %.4f s, tracing overhead %.4f s\n"
    (pass_total /. n) (self_s in_pass /. n) traced_wall untraced_wall
    (traced_wall -. untraced_wall);
  metrics

(* ----- modes ----- *)

let provenance ~w ~seed ~seconds ~trace ~git_sha ~nproc =
  Printf.sprintf
    "{\"workload\":%s,\"seed\":%d,\"seconds\":%g,\"trace\":%b,\"git_sha\":%s,\
     \"nproc\":%d,\"domains\":1,\"ocaml\":%s,\"golden\":%b}"
    (Spans.json_string w.wname) seed seconds trace (Spans.json_string git_sha) nproc
    (Spans.json_string Sys.ocaml_version)
    (match !golden with Check _ -> true | _ -> false)

(* End-to-end metrics. Timings come from the timed passes (see
   [contended_wall]) and from the median set-up. Set-up ends with a
   warm-up, so the first pass is already timed. *)
let run_untraced w ~seed ~seconds =
  w.prepare seed;
  let setup_s, r = setups w seed w.setups in
  Gc.compact ();
  let walls = ref [] and speedups = ref [] in
  let durations = Array.make (Array.length r.units) [] in
  let record i d = durations.(i) <- d :: durations.(i) in
  until ~seconds (fun k ->
      let t, s = timed_pass ~record r k in
      walls := t :: !walls;
      speedups := s :: !speedups;
      t);
  deterministic !speedups;
  let wall = contended_wall durations in
  let rss = peak_rss_mb () in
  r.teardown ();
  Printf.printf "passes %d: %s s; median %.4f s, at the contended level %.4f s\n"
    (List.length !walls)
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !walls))
    (median !walls) wall;
  let ok_frac =
    float_of_int (tally.attempted - tally.failed) /. float_of_int (max 1 tally.attempted)
  in
  [ m "wall_s" "s" wall;
    m "uops_per_s" "1/s" (float_of_int w.uops_per_pass /. wall);
    m "setup_s" "s" setup_s;
    m "peak_rss_mb" "MB" rss;
    m "ok_frac" "ratio" ok_frac;
    m "ir_rel_perf_pct" "%" (100. +. List.hd !speedups) ]

(* Per-layer metrics: one traced set-up (which is also the warm-up), then
   untraced and traced passes alternately, so the tracing overhead is
   measured between neighbouring passes. *)
let run_traced w ~seed ~seconds ~spans_path ~provenance =
  Spans.calibrate ();
  let marginal = marginal_sim_words () in
  w.prepare seed;
  Spans.on := true;
  let _, r = set_up w seed 1 in
  Spans.on := false;
  Gc.compact ();
  let traced = ref [] and untraced = ref [] and speedups = ref [] in
  until ~seconds (fun k ->
      let u, su = timed_pass r 0 in
      Spans.on := true;
      let t, st = timed_pass r k in
      Spans.on := false;
      untraced := u :: !untraced;
      traced := t :: !traced;
      speedups := su :: st :: !speedups;
      u +. t);
  deterministic !speedups;
  r.teardown ();
  let metrics =
    per_layer ~traced_wall:(median !traced) ~untraced_wall:(median !untraced)
      ~passes:(List.length !traced) ~marginal ~speedup:(List.hd !speedups)
  in
  if not (Sys.file_exists out_root) then Sys.mkdir out_root 0o755;
  Spans.write ~path:spans_path ~provenance (Spans.all ());
  Printf.printf "spans: %s\n" spans_path;
  metrics

(* Digests of every cell at the default seed, cross-checked against the
   path the experiments ship ([Runs.metrics]). *)
let record_golden () =
  let acc = ref [] in
  golden := Record acc;
  List.iter
    (fun w ->
      w.prepare default_seed;
      let _, r = set_up w default_seed 1 in
      ignore (run_pass r);
      r.teardown ())
    workloads;
  let tbl = Hashtbl.create 512 in
  List.iter
    (fun (k, d) ->
      match Hashtbl.find_opt tbl k with
      | Some d' when d' <> d -> failwith ("two digests for " ^ k)
      | _ -> Hashtbl.replace tbl k d)
    !acc;
  let cross ~length profiles schemes =
    let runs = Runs.create ~length () in
    List.iter
      (fun (p : Profile.t) ->
        List.iter
          (fun scheme ->
            let key = metrics_key ~len:length ~name:p.Profile.name ~scheme in
            let d = Digest.to_hex (Digest.string (Metrics.to_json (Runs.metrics runs ~scheme p))) in
            if Hashtbl.find_opt tbl key <> Some d then
              failwith ("benchmark and Runs.metrics disagree on " ^ key))
          schemes)
      profiles
  in
  cross ~length:sweep_length (spec_profiles default_seed) schemes;
  cross ~length:cold_length (cold_profiles default_seed) [ "baseline"; "+IR" ];
  let keys = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) tbl []) in
  let oc = open_out golden_path in
  List.iter (fun k -> Printf.fprintf oc "%s %s\n" k (Hashtbl.find tbl k)) keys;
  close_out oc;
  Printf.printf "%s: %d digests, metrics cross-checked against Runs.metrics\n" golden_path
    (List.length keys)

(* One pass with the golden table intact must pass every cell; the same
   pass with one digest perturbed must fail at least one. *)
let self_test w =
  let tbl = load_golden () in
  if not (Hashtbl.mem tbl w.perturb) then failwith ("no golden digest " ^ w.perturb);
  w.prepare default_seed;
  let _, r = set_up w default_seed 1 in
  let frac () =
    tally.attempted <- 0;
    tally.failed <- 0;
    ignore (run_pass r);
    float_of_int (tally.attempted - tally.failed) /. float_of_int tally.attempted
  in
  golden := Check tbl;
  let intact = frac () in
  let perturbed = Hashtbl.copy tbl in
  Hashtbl.replace perturbed w.perturb (String.make 32 '0');
  golden := Check perturbed;
  let bad = frac () in
  r.teardown ();
  let ok = intact = 1. && bad < 1. in
  Printf.printf "self-test %s: ok_frac intact %.6f, with %s perturbed %.6f: %s\n" w.wname
    intact w.perturb bad
    (if ok then "PASS" else "FAIL");
  ok

(* ----- command line ----- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload sweep|cold|rescan [--seed N] [--seconds S] [--trace 0|1]\n\
    \                [--git-sha SHA] [--nproc N] [--self-test]\n\
    \       main.exe --record-golden";
  exit 2

let () =
  (* fixed GC settings, whatever OCAMLRUNPARAM says *)
  Gc.set
    { (Gc.get ()) with
      Gc.minor_heap_size = 262_144; space_overhead = 120; max_overhead = 500;
      verbose = 0 };
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.
  and trace = ref false and git_sha = ref "unknown" and nproc = ref 0
  and mode = ref `Run in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | "--git-sha" :: v :: rest -> git_sha := v; parse rest
    | "--nproc" :: v :: rest -> nproc := int_of_string v; parse rest
    | "--self-test" :: rest -> mode := `Self_test; parse rest
    | "--record-golden" :: rest -> mode := `Record; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !mode = `Record then record_golden ()
  else
    let w =
      match List.find_opt (fun w -> w.wname = !workload) workloads with
      | Some w -> w
      | None -> usage ()
    in
    if !mode = `Self_test then exit (if self_test w then 0 else 1);
    if !seed = default_seed then golden := Check (load_golden ());
    let provenance =
      provenance ~w ~seed:!seed ~seconds:!seconds ~trace:!trace ~git_sha:!git_sha
        ~nproc:!nproc
    in
    Printf.printf "provenance %s\n%!" provenance;
    let metrics =
      if !trace then
        run_traced w ~seed:!seed ~seconds:!seconds ~provenance
          ~spans_path:
            (Filename.concat out_root (Printf.sprintf "spans-%s-seed%d.json" w.wname !seed))
      else run_untraced w ~seed:!seed ~seconds:!seconds
    in
    List.iter (Printf.printf "failed cell: %s\n") (List.rev tally.first_failures);
    print_endline (result_line metrics)
