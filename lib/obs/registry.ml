(* Process-wide metrics registry.

   Hot-path updates are a single [Atomic.fetch_and_add] on a per-shard
   slot indexed by the calling domain's id, so concurrent Domain_pool
   workers never contend on the same cell (beyond hardware-level false
   sharing, which boxed atomics mostly avoid). The scrape merges shards
   by summation, which is order-independent: the merged totals are
   deterministic for a given set of recorded events no matter how the
   workers interleaved. Registration (cold path) takes a mutex. *)

(* power of two so the domain-id fold is a mask, sized comfortably above
   any Domain_pool this repo spawns (host pools are core-count sized) *)
let shards = 64

let shard_index () = (Domain.self () :> int) land (shards - 1)

type kind = Counter | Gauge | Histogram

(* log2 buckets: bucket 0 holds v <= 0, bucket b >= 1 holds
   2^(b-1) <= v < 2^b, i.e. values whose binary magnitude needs exactly
   b bits. With 63 buckets every OCaml int lands somewhere. *)
let num_buckets = 63

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 in
    let v = ref v in
    while !v > 0 do
      incr b;
      v := !v lsr 1
    done;
    !b
  end

(* inclusive upper bound of bucket [b] (the Prometheus "le" edge) *)
let bucket_le b = if b >= num_buckets then max_int else (1 lsl b) - 1

type metric = {
  m_name : string;
  m_help : string;
  m_labels : (string * string) list;  (* sorted by key *)
  m_kind : kind;
  (* counters: [shards] slots; gauges: 1 slot; histograms:
     [shards * (num_buckets + 2)] slots — per shard the bucket counts
     followed by a count cell and a sum cell *)
  m_cells : int Atomic.t array;
}

type t = {
  mutable metrics : metric list;  (* registration order; scrape re-sorts *)
  index : (string * (string * string) list, metric) Hashtbl.t;
  reg_m : Mutex.t;
}

type counter = metric
type gauge = metric
type histogram = metric

let create () =
  { metrics = []; index = Hashtbl.create 64; reg_m = Mutex.create () }

let valid_name name =
  name <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       name
  && not (match name.[0] with '0' .. '9' -> true | _ -> false)

let register t ~kind ~help ~labels name =
  if not (valid_name name) then
    invalid_arg ("Registry: invalid metric name " ^ name);
  let labels =
    List.sort (fun (a, _) (b, _) -> String.compare a b) labels
  in
  Mutex.lock t.reg_m;
  let m =
    match Hashtbl.find_opt t.index (name, labels) with
    | Some m ->
      if m.m_kind <> kind then begin
        Mutex.unlock t.reg_m;
        invalid_arg ("Registry: " ^ name ^ " re-registered with another kind")
      end;
      m
    | None ->
      let cells =
        match kind with
        | Counter -> shards
        | Gauge -> 1
        | Histogram -> shards * (num_buckets + 2)
      in
      let m =
        {
          m_name = name;
          m_help = help;
          m_labels = labels;
          m_kind = kind;
          m_cells = Array.init cells (fun _ -> Atomic.make 0);
        }
      in
      Hashtbl.add t.index (name, labels) m;
      t.metrics <- m :: t.metrics;
      m
  in
  Mutex.unlock t.reg_m;
  m

let counter t ?(help = "") ?(labels = []) name =
  register t ~kind:Counter ~help ~labels name

let gauge t ?(help = "") ?(labels = []) name =
  register t ~kind:Gauge ~help ~labels name

let histogram t ?(help = "") ?(labels = []) name =
  register t ~kind:Histogram ~help ~labels name

(* ----- hot-path updates ----- *)

let add (c : counter) n =
  ignore (Atomic.fetch_and_add c.m_cells.(shard_index ()) n)

let inc c = add c 1

let gauge_set (g : gauge) v = Atomic.set g.m_cells.(0) v

let gauge_add (g : gauge) n = ignore (Atomic.fetch_and_add g.m_cells.(0) n)

(* racy-read max is fine: the only writers of a gauge used this way are
   monotone, and a lost race just retries *)
let rec gauge_max (g : gauge) v =
  let cur = Atomic.get g.m_cells.(0) in
  if v > cur && not (Atomic.compare_and_set g.m_cells.(0) cur v) then
    gauge_max g v

let gauge_get (g : gauge) = Atomic.get g.m_cells.(0)

let observe (h : histogram) v =
  let base = shard_index () * (num_buckets + 2) in
  ignore (Atomic.fetch_and_add h.m_cells.(base + bucket_of v) 1);
  ignore (Atomic.fetch_and_add h.m_cells.(base + num_buckets) 1);
  ignore (Atomic.fetch_and_add h.m_cells.(base + num_buckets + 1) v)

(* ----- deterministic scrape ----- *)

type hvalue = {
  buckets : int array;  (* raw per-bucket counts, length num_buckets *)
  h_count : int;
  h_sum : int;
}

type value = Counter_v of int | Gauge_v of int | Histogram_v of hvalue

type sample = {
  s_name : string;
  s_help : string;
  s_labels : (string * string) list;
  s_value : value;
}

let merge m =
  match m.m_kind with
  | Counter ->
    Counter_v (Array.fold_left (fun acc a -> acc + Atomic.get a) 0 m.m_cells)
  | Gauge -> Gauge_v (Atomic.get m.m_cells.(0))
  | Histogram ->
    let buckets = Array.make num_buckets 0 in
    let count = ref 0 and sum = ref 0 in
    for s = 0 to shards - 1 do
      let base = s * (num_buckets + 2) in
      for b = 0 to num_buckets - 1 do
        buckets.(b) <- buckets.(b) + Atomic.get m.m_cells.(base + b)
      done;
      count := !count + Atomic.get m.m_cells.(base + num_buckets);
      sum := !sum + Atomic.get m.m_cells.(base + num_buckets + 1)
    done;
    Histogram_v { buckets; h_count = !count; h_sum = !sum }

let compare_labels a b =
  compare (List.map (fun (k, v) -> (k, v)) a) (List.map (fun (k, v) -> (k, v)) b)

let scrape t =
  Mutex.lock t.reg_m;
  let metrics = t.metrics in
  Mutex.unlock t.reg_m;
  List.map
    (fun m ->
      { s_name = m.m_name; s_help = m.m_help; s_labels = m.m_labels;
        s_value = merge m })
    (List.sort
       (fun a b ->
         match String.compare a.m_name b.m_name with
         | 0 -> compare_labels a.m_labels b.m_labels
         | c -> c)
       metrics)

let find_value samples name labels =
  let labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  List.find_map
    (fun s ->
      if s.s_name = name && s.s_labels = labels then Some s.s_value else None)
    samples

let counter_value samples ?(labels = []) name =
  match find_value samples name labels with
  | Some (Counter_v n) -> n
  | Some (Gauge_v n) -> n
  | Some (Histogram_v _) | None -> 0

(* smallest bucket upper edge covering fraction [p] of the samples *)
let hist_percentile hv p =
  if p < 0. || p > 1. then invalid_arg "Registry.hist_percentile";
  if hv.h_count = 0 then 0
  else begin
    let need =
      int_of_float (ceil (p *. float_of_int hv.h_count))
      |> max 1
    in
    let acc = ref 0 and result = ref (bucket_le (num_buckets - 1)) in
    ( try
        for b = 0 to num_buckets - 1 do
          acc := !acc + hv.buckets.(b);
          if !acc >= need then begin
            result := bucket_le b;
            raise Exit
          end
        done
      with Exit -> () );
    !result
  end

let reset t =
  Mutex.lock t.reg_m;
  List.iter
    (fun m -> Array.iter (fun a -> Atomic.set a 0) m.m_cells)
    t.metrics;
  Mutex.unlock t.reg_m

(* ----- the ambient process registry ----- *)

(* Same discipline as the pipeline's [Probe.t option]: disabled means
   every instrumentation point is one atomic load and a match on [None].
   Observability never changes behavior, only records it. *)

let ambient_reg : t option Atomic.t = Atomic.make None

let ambient () = Atomic.get ambient_reg

let is_enabled () = Atomic.get ambient_reg <> None

let enable () =
  match Atomic.get ambient_reg with
  | Some t -> t
  | None ->
    let t = create () in
    if Atomic.compare_and_set ambient_reg None (Some t) then t
    else (match Atomic.get ambient_reg with Some t -> t | None -> t)

let disable () = Atomic.set ambient_reg None

let with_ambient f = match Atomic.get ambient_reg with None -> () | Some t -> f t
