(* The benchmark's own span recorder. Spans are opened around the
   benchmark's calls into each layer's public functions, kept in memory,
   and aggregated or written out once the run ends. It deliberately does
   not use lib/obs: the tool that measures the library must not move when
   the library's tracing is refactored. *)

type span = {
  name : string;
  start : float;
  mutable stop : float;
  parent : int;  (** index of the enclosing span; -1 for a root *)
  req : int;  (** request the span belongs to; -1 outside requests *)
}

(* seconds on the monotonic nanosecond clock *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let enabled = ref false
let buf : span array ref = ref [||]
let len = ref 0
let open_spans : int list ref = ref []

let push s =
  if !len = Array.length !buf then begin
    let bigger = Array.make (max 1024 (2 * !len)) s in
    Array.blit !buf 0 bigger 0 !len;
    buf := bigger
  end;
  !buf.(!len) <- s;
  incr len

(** [span ?req name f] runs [f], inside a recorded span when recording is
    on. A span opened without [req] belongs to its parent's request. *)
let span ?req name f =
  if not !enabled then f ()
  else begin
    let parent = match !open_spans with i :: _ -> i | [] -> -1 in
    let req =
      match req with
      | Some r -> r
      | None -> if parent >= 0 then !buf.(parent).req else -1
    in
    let s = { name; start = now (); stop = nan; parent; req } in
    let idx = !len in
    push s;
    open_spans := idx :: !open_spans;
    Fun.protect f ~finally:(fun () ->
        s.stop <- now ();
        open_spans := List.tl !open_spans)
  end

(** Drop every recorded span. *)
let reset () =
  buf := [||];
  len := 0;
  open_spans := []

let spans () = Array.sub !buf 0 !len
let dur s = s.stop -. s.start

(* summed durations of each span's direct children, by span index *)
let child_time arr =
  let child = Array.make (Array.length arr) 0.0 in
  Array.iter
    (fun s ->
      if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. dur s)
    arr;
  child

type agg = { count : int; total : float; self : float }

(** Per span name: count, total duration, and self time — the duration
    minus the part of it that child spans cover. Sorted by name. *)
let aggregate () : (string * agg) list =
  let arr = spans () in
  let child = child_time arr in
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      let a =
        Option.value (Hashtbl.find_opt tbl s.name)
          ~default:{ count = 0; total = 0.0; self = 0.0 }
      in
      Hashtbl.replace tbl s.name
        {
          count = a.count + 1;
          total = a.total +. dur s;
          self = a.self +. dur s -. child.(i);
        })
    arr;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(** Summed duration and count of the spans named [name] whose request
    satisfies [req]. *)
let total ?(req = fun _ -> true) name =
  Array.fold_left
    (fun (t, n) s ->
      if s.name = name && req s.req then (t +. dur s, n + 1) else (t, n))
    (0.0, 0) (spans ())

(** Folded stacks, one "root;child;leaf self_microseconds" line per
    distinct stack: the input format of flamegraph tools. *)
let write_folded path =
  let arr = spans () in
  let child = child_time arr in
  (* a parent is always pushed before its children *)
  let stack = Array.make (Array.length arr) "" in
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun i s ->
      stack.(i) <-
        (if s.parent < 0 then s.name else stack.(s.parent) ^ ";" ^ s.name);
      let prev = Option.value (Hashtbl.find_opt tbl stack.(i)) ~default:0.0 in
      Hashtbl.replace tbl stack.(i) (prev +. ((dur s -. child.(i)) *. 1e6)))
    arr;
  let oc = open_out path in
  List.iter
    (fun (k, us) -> Printf.fprintf oc "%s %.0f\n" k us)
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []));
  close_out oc

(** Every span as one tab-separated line: index, name, start, end,
    parent index, request id. *)
let write_spans path =
  let oc = open_out path in
  output_string oc "index\tname\tstart_s\tend_s\tparent\treq\n";
  Array.iteri
    (fun i s ->
      Printf.fprintf oc "%d\t%s\t%.9f\t%.9f\t%d\t%d\n" i s.name s.start s.stop
        s.parent s.req)
    (spans ());
  close_out oc
