module Registry = Hc_obs.Registry
module Span = Hc_obs.Span

type task = unit -> unit

type worker_stats = {
  mutable w_tasks : int;
  mutable w_busy_s : float;
  mutable w_wait_s : float;
}

type t = {
  pool_jobs : int;
  m : Mutex.t;
  work_available : Condition.t;
  queue : task Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  stats : worker_stats array;  (* slot 0 = the submitting domain *)
  mutable max_depth : int;  (* deepest queue observed at submit time *)
}

let default_jobs () =
  match Sys.getenv_opt "HC_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let obs_task_done () =
  Registry.with_ambient (fun r ->
      Registry.inc
        (Registry.counter r ~help:"Domain_pool tasks executed"
           "hc_pool_tasks_total"))

(* Each worker owns its stats slot exclusively, so the profiling stores
   are race-free; readers only see settled values after a batch. *)
let run_task stats task =
  let t0 = Unix.gettimeofday () in
  Span.with_span "task" task;
  stats.w_busy_s <- stats.w_busy_s +. (Unix.gettimeofday () -. t0);
  stats.w_tasks <- stats.w_tasks + 1;
  obs_task_done ()

let rec worker_loop t idx =
  let stats = t.stats.(idx) in
  let t0 = Unix.gettimeofday () in
  Mutex.lock t.m;
  while Queue.is_empty t.queue && not t.stop do
    Condition.wait t.work_available t.m
  done;
  match Queue.take_opt t.queue with
  | None ->
    (* stopped and drained *)
    Mutex.unlock t.m;
    stats.w_wait_s <- stats.w_wait_s +. (Unix.gettimeofday () -. t0)
  | Some task ->
    Mutex.unlock t.m;
    stats.w_wait_s <- stats.w_wait_s +. (Unix.gettimeofday () -. t0);
    run_task stats task;
    worker_loop t idx

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      pool_jobs = jobs;
      m = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      stop = false;
      workers = [];
      stats =
        Array.init jobs (fun _ -> { w_tasks = 0; w_busy_s = 0.; w_wait_s = 0. });
      max_depth = 0;
    }
  in
  if jobs > 1 then
    t.workers <-
      List.init (jobs - 1) (fun i ->
          Domain.spawn (fun () ->
              Span.set_track ("worker" ^ string_of_int (i + 1));
              worker_loop t (i + 1)));
  t

let jobs t = t.pool_jobs

let stats t =
  Array.map
    (fun s -> { w_tasks = s.w_tasks; w_busy_s = s.w_busy_s; w_wait_s = s.w_wait_s })
    t.stats

let max_queue_depth t = t.max_depth

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.m;
  let workers = t.workers in
  t.workers <- [];
  List.iter Domain.join workers

(* The caller drains whatever is queued (its own batch's tasks, possibly
   interleaved with another batch's — both make progress). *)
let help_drain t =
  let stats = t.stats.(0) in
  let continue = ref true in
  while !continue do
    Mutex.lock t.m;
    match Queue.take_opt t.queue with
    | None ->
      Mutex.unlock t.m;
      continue := false
    | Some task ->
      Mutex.unlock t.m;
      run_task stats task
  done

let map t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else if t.pool_jobs <= 1 || n = 1 then begin
    let stats = t.stats.(0) in
    Array.map
      (fun x ->
        let t0 = Unix.gettimeofday () in
        let y = Span.with_span "task" (fun () -> f x) in
        stats.w_busy_s <- stats.w_busy_s +. (Unix.gettimeofday () -. t0);
        stats.w_tasks <- stats.w_tasks + 1;
        obs_task_done ();
        y)
      xs
  end
  else begin
    let results = Array.make n None in
    let first_error = ref None in
    let remaining = ref n in
    let bm = Mutex.create () in
    let batch_done = Condition.create () in
    Mutex.lock t.m;
    for i = 0 to n - 1 do
      Queue.add
        (fun () ->
          ( match f xs.(i) with
          | v -> results.(i) <- Some v
          | exception e ->
            (* keep the worker's backtrace: re-raising on the caller's
               domain would otherwise report the re-raise site *)
            let bt = Printexc.get_raw_backtrace () in
            Mutex.lock bm;
            if !first_error = None then first_error := Some (e, bt);
            Mutex.unlock bm );
          Mutex.lock bm;
          decr remaining;
          if !remaining = 0 then Condition.broadcast batch_done;
          Mutex.unlock bm)
        t.queue
    done;
    t.max_depth <- max t.max_depth (Queue.length t.queue);
    Registry.with_ambient (fun r ->
        Registry.gauge_max
          (Registry.gauge r ~help:"Deepest task queue observed at submit"
             "hc_pool_queue_depth_max")
          t.max_depth);
    Condition.broadcast t.work_available;
    Mutex.unlock t.m;
    help_drain t;
    let wait0 = Unix.gettimeofday () in
    Mutex.lock bm;
    while !remaining > 0 do
      Condition.wait batch_done bm
    done;
    Mutex.unlock bm;
    t.stats.(0).w_wait_s <-
      t.stats.(0).w_wait_s +. (Unix.gettimeofday () -. wait0);
    ( match !first_error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> () );
    Array.map
      (function Some v -> v | None -> assert false (* batch settled *))
      results
  end

let map_list t f xs = Array.to_list (map t f (Array.of_list xs))

(* ----- the process-wide shared pool ----- *)

let shared : t option ref = ref None
let shared_jobs = ref None
let shared_m = Mutex.create ()
let exit_hook_installed = ref false

let get () =
  Mutex.lock shared_m;
  let t =
    match !shared with
    | Some t -> t
    | None ->
      let jobs =
        match !shared_jobs with Some j -> j | None -> default_jobs ()
      in
      let t = create ~jobs in
      shared := Some t;
      if not !exit_hook_installed then begin
        exit_hook_installed := true;
        at_exit (fun () ->
            match !shared with
            | Some t ->
              shared := None;
              shutdown t
            | None -> ())
      end;
      t
  in
  Mutex.unlock shared_m;
  t

let set_jobs n =
  let n = max 1 n in
  Mutex.lock shared_m;
  shared_jobs := Some n;
  let old =
    match !shared with
    | Some t when jobs t <> n ->
      shared := None;
      Some t
    | Some _ | None -> None
  in
  Mutex.unlock shared_m;
  match old with Some t -> shutdown t | None -> ()
