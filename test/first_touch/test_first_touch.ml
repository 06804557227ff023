(* First use of process-global state from several domains at once. In
   OCaml 5 two domains forcing the same top-level [lazy] value raise
   [CamlinternalLazy.Undefined], so any such table reached from a pool
   worker (the codec's name and CRC tables were) fails only on a cold
   start with more than one domain. This executable runs in a process of
   its own so its first test is the first touch. *)

module Profile = Hc_trace.Profile
module Generator = Hc_trace.Generator
module Codec = Hc_trace.Codec
module Trace_io = Hc_trace.Trace_io
module Metrics = Hc_sim.Metrics
module Runs = Hc_core.Runs
module Domain_pool = Hc_core.Domain_pool
module Artifact_cache = Hc_core.Artifact_cache

(* every caller spins until all [n] have arrived, so the work after it
   starts on all domains at once *)
let barrier n =
  let arrived = Atomic.make 0 in
  fun () ->
    Atomic.incr arrived;
    while Atomic.get arrived < n do
      Domain.cpu_relax ()
    done

let test_codec_first_touch () =
  let p = Profile.find_spec_int "gzip" in
  let tr = Generator.generate_sliced ~length:400 p in
  let wait = barrier 2 in
  let roundtrip () =
    wait ();
    let bytes = Codec.encode tr in
    (bytes, Trace_io.roundtrip_equal tr (Codec.decode ~profile:p bytes))
  in
  let other = Domain.spawn roundtrip in
  let mine = roundtrip () in
  let theirs = Domain.join other in
  Alcotest.(check bool) "this domain's decode is exact" true (snd mine);
  Alcotest.(check bool) "the other domain's decode is exact" true (snd theirs);
  Alcotest.(check bool) "both encodings identical" true (fst mine = fst theirs)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* a cold private artifact cache filled by one [Runs.ensure] batch; the
   metrics JSON of every cell, in order *)
let cold_ensure ~jobs =
  let root = Filename.temp_file "hc_first_touch" "" in
  Sys.remove root;
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      Domain_pool.set_jobs jobs;
      let runs = Runs.create ~length:1_500 ~cache:(Artifact_cache.create ~root ()) () in
      let profiles = List.map Profile.find_spec_int [ "gcc"; "mcf"; "vpr"; "eon" ] in
      let cells =
        List.concat_map (fun s -> List.map (fun p -> (s, p)) profiles)
          [ "baseline"; "+IR"; "static_bidir" ]
      in
      Runs.ensure runs cells;
      List.map (fun (scheme, p) -> Metrics.to_json (Runs.metrics runs ~scheme p)) cells)

let test_cold_ensure_jobs () =
  let two = cold_ensure ~jobs:2 in
  let one = cold_ensure ~jobs:1 in
  Alcotest.(check (list string)) "jobs 2 == jobs 1, cell by cell" one two

let () =
  Alcotest.run "first_touch"
    [
      ( "first_touch",
        [
          Alcotest.test_case "two-domain codec first touch" `Quick
            test_codec_first_touch;
          Alcotest.test_case "cold-cache ensure: jobs 2 == jobs 1" `Quick
            test_cold_ensure_jobs;
        ] );
    ]
