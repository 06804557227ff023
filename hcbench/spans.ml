(* In-memory span recorder for the traced benchmark run.

   The benchmark wraps each call into a layer's public function in
   [with_span]; nothing inside the program is instrumented. A span keeps
   its name, the run it belongs to (a pass number, or a negative set-up
   number), its parent span, its wall interval and the minor words
   allocated inside it, plus the uop and tick counts of the work it
   covered. Spans stay in memory until [write] dumps them as JSON.

   When recording is off, [with_span] is a direct call. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  run : int;
  name : string;  (** [layer] or [layer.op] *)
  tag : string;  (** trace name the work belonged to *)
  scheme : string;  (** scheme of a [sim] span, "" elsewhere *)
  start : float;
  stop : float;
  words : float;  (** minor words allocated between start and stop *)
  uops : int;
  mutable ticks : int;
}

let on = ref false
let run_id = ref 0
let next_id = ref 0
let stack = ref []
let closed = ref []

(* minor words [with_span] itself allocates inside the window it measures;
   measured once by [calibrate] and subtracted from every span *)
let own_words = ref 0.

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let with_span ?(tag = "") ?(scheme = "") ?(uops = 0) name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with [] -> -1 | p :: _ -> p in
    stack := id :: !stack;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      let w1 = Gc.minor_words () in
      stack := List.tl !stack;
      closed :=
        { id; parent; run = !run_id; name; tag; scheme; start = t0; stop = t1;
          words = Float.max 0. (w1 -. w0 -. !own_words); uops; ticks = 0 }
        :: !closed
    in
    match f () with
    | x ->
      close ();
      x
    | exception e ->
      close ();
      raise e
  end

(* Record the simulated tick count on the span that just closed. *)
let note_ticks n =
  match !closed with s :: _ -> s.ticks <- n | [] -> ()

let calibrate () =
  let saved = (!on, !closed) in
  on := true;
  own_words := 0.;
  let words = ref infinity in
  for _ = 1 to 5 do
    with_span "calibrate" ignore;
    match !closed with
    | s :: _ -> words := Float.min !words s.words
    | [] -> ()
  done;
  own_words := !words;
  on := fst saved;
  closed := snd saved

let all () = List.rev !closed

(* Self time and self words: a span's own interval minus what its
   children cover. *)
let self spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let d, w =
          Option.value (Hashtbl.find_opt child s.parent) ~default:(0., 0.)
        in
        Hashtbl.replace child s.parent (d +. (s.stop -. s.start), w +. s.words)
      end)
    spans;
  List.map
    (fun s ->
      let d, w = Option.value (Hashtbl.find_opt child s.id) ~default:(0., 0.) in
      (s, s.stop -. s.start -. d, Float.max 0. (s.words -. w)))
    spans

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write ~path ~provenance spans =
  let oc = open_out path in
  Printf.fprintf oc "{\"provenance\":%s,\n \"spans\":[" provenance;
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n  {\"id\":%d,\"parent\":%d,\"run\":%d,\"name\":%s,\"tag\":%s,\
         \"scheme\":%s,\"start\":%.6f,\"end\":%.6f,\"minor_words\":%.0f,\
         \"uops\":%d,\"ticks\":%d}"
        (if i = 0 then "" else ",")
        s.id s.parent s.run (json_string s.name) (json_string s.tag)
        (json_string s.scheme) s.start s.stop s.words s.uops s.ticks)
    spans;
  output_string oc "\n]}\n";
  close_out oc
