type t = {
  ring : Event.t Ring.t option;
  interval : int;
  accounting : bool;
  mutable prev_tick : int;  (* the boundary both series last closed at *)
  (* interval sampler *)
  mutable prev : Sample.totals;
  mutable samples_rev : Sample.t list;
  (* slot accumulator: live counts, and their value at [prev_tick] *)
  mutable cur : Accounting.totals;
  mutable last : Accounting.totals;
  mutable stall_rev : Accounting.interval list;
}

let create ?(ring_capacity = 65_536) ?(interval = 0) ?(accounting = false)
    ~tracing () =
  let z = Accounting.zero_totals ~issue_width:0 ~commit_width:0 in
  {
    ring = (if tracing then Some (Ring.create ~capacity:ring_capacity ~dummy:Event.dummy) else None);
    interval = max 0 interval;
    accounting;
    prev_tick = 0;
    prev = Sample.zero_totals;
    samples_rev = [];
    cur = z;
    last = Accounting.copy_totals z;
    stall_rev = [];
  }

let tracing t = t.ring <> None

let accounting t = t.accounting

(* ----- pipeline side ----- *)

let start t ~issue_width ~commit_width =
  let z = Accounting.zero_totals ~issue_width ~commit_width in
  t.cur <- z;
  t.last <- Accounting.copy_totals z

let emit t e = match t.ring with Some r -> Ring.push r e | None -> ()

let add t ~lane cat n =
  let row = t.cur.Accounting.slots.(lane) and c = Accounting.cat_index cat in
  row.(c) <- row.(c) + n

let round t ~lane =
  let rounds = t.cur.Accounting.rounds in
  rounds.(lane) <- rounds.(lane) + 1

let due t ~tick = t.interval > 0 && tick > 0 && tick mod t.interval = 0

(* One routine closes both series against the one shared previous tick,
   so stall intervals and metrics samples tile the run alike; it is also
   the run-end flush. *)
let boundary t ~tick ~iq_wide ~iq_narrow ~rob totals =
  if tick > t.prev_tick then begin
    if t.interval > 0 then begin
      let d = Sample.sub_totals totals t.prev in
      t.samples_rev <-
        Sample.make ~t_start:t.prev_tick ~t_end:tick ~iq_wide ~iq_narrow ~rob d
        :: t.samples_rev;
      t.prev <- totals
    end;
    if t.accounting then begin
      let d = Accounting.sub_totals t.cur t.last in
      t.stall_rev <-
        { Accounting.iv_start = t.prev_tick; iv_end = tick; iv_d = d }
        :: t.stall_rev;
      t.last <- Accounting.copy_totals t.cur
    end;
    t.prev_tick <- tick
  end

let stall_totals t =
  if t.accounting then Some (Accounting.copy_totals t.cur) else None

(* ----- reader side ----- *)

let events t = match t.ring with Some r -> Ring.to_list r | None -> []

let events_dropped t = match t.ring with Some r -> Ring.dropped r | None -> 0

let events_pushed t = match t.ring with Some r -> Ring.pushed r | None -> 0

let samples t = List.rev t.samples_rev

let sample_count t = List.length t.samples_rev

let stall_intervals t = List.rev t.stall_rev

let summary t =
  Printf.sprintf "events: %d pushed, %d dropped (ring wrap); samples: %d"
    (events_pushed t) (events_dropped t) (sample_count t)

let dropped_warning t =
  let dropped = events_dropped t in
  if dropped = 0 then None
  else
    Some
      (Printf.sprintf
         "warning: event ring wrapped — %d of %d events dropped (oldest \
          first); raise --trace-buffer to keep the full run"
         dropped (events_pushed t))
