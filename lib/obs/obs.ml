(* Hierarchical tracing + metrics + profiling. See obs.mli for the design
   notes; the short version: spans always aggregate into the histogram
   registry, sinks (including the Trace collector) see every finished
   span, and fine_span is gated behind the [detailed] flag so hot
   per-item paths cost one boolean read when observability is off. GC
   accounting is gated the same way behind [gc_stats].

   Domain safety (the parallel learner runs spans and counters from
   worker domains):
   - counters are atomics — increments from any domain are never lost;
   - the span stack is domain-local ([Domain.DLS]), so nesting depth is
     tracked per domain and parallel spans cannot corrupt each other;
   - each metric handle carries its own lock, so two domains observing
     different metrics never contend ([registry_lock] only guards the
     find-or-create tables); sink delivery (including
     the Trace buffer) takes [sink_lock]. All of these are only touched
     on span finish / handle creation, never per counter increment. *)

(* -- Clock -------------------------------------------------------------- *)

(* Wall clock, not [Sys.time]: CPU time silently under-reports blocking
   (sleeps, IO) and multi-domain work, where the process accumulates CPU
   seconds faster than real time. *)
let default_clock = Unix.gettimeofday
let clock = ref default_clock
let set_clock f = clock := f
let use_default_clock () = clock := default_clock
let now () = !clock ()

(* -- Gates --------------------------------------------------------------- *)

let detailed = ref false
let set_detailed b = detailed := b
let detailed_enabled () = !detailed
let gc_stats = ref false
let set_gc_stats b = gc_stats := b
let gc_stats_enabled () = !gc_stats

type attr = string * string

type span = {
  sp_name : string;
  sp_start : float;
  sp_dur : float;
  sp_depth : int;
  sp_domain : int;
  sp_attrs : attr list;
}

(* -- Locks --------------------------------------------------------------- *)

(* [registry_lock] guards the find-or-create tables only; each metric
   handle has a lock of its own, so observes on different handles never
   contend. [sink_lock] guards the sink list and serializes span
   delivery (the Trace buffer mutates inside it). A sink callback may
   create registry handles (it takes [registry_lock] while holding
   [sink_lock]); registry operations never take [sink_lock], so the
   acquisition order is acyclic. *)
let registry_lock = Mutex.create ()
let sink_lock = Mutex.create ()

let locked m f =
  Mutex.lock m;
  match f () with
  | v ->
    Mutex.unlock m;
    v
  | exception e ->
    Mutex.unlock m;
    raise e

(* -- Registry ------------------------------------------------------------ *)

(* The one find-or-create table: each metric kind keeps its handles in a
   name-keyed [Registry.t], whose [make] returns the handle registered
   under a name or creates it. A table is created with its kind's reset,
   so {!reset} zeroes every kind by walking [resets]. *)
module Registry = struct
  type 'a t = (string, 'a) Hashtbl.t

  let resets : (unit -> unit) list ref = ref []

  let all (r : 'a t) =
    locked registry_lock (fun () ->
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) r [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map snd

  let create ~reset : 'a t =
    let r = Hashtbl.create 64 in
    resets := (fun () -> List.iter reset (all r)) :: !resets;
    r

  (* The span-finish path calls this on every span, so a hit allocates
     nothing: no [locked] closure, no option. *)
  let make (r : 'a t) name (create : string -> 'a) =
    Mutex.lock registry_lock;
    match Hashtbl.find r name with
    | v ->
      Mutex.unlock registry_lock;
      v
    | exception Not_found -> (
      match create name with
      | v ->
        Hashtbl.add r name v;
        Mutex.unlock registry_lock;
        v
      | exception e ->
        Mutex.unlock registry_lock;
        raise e)

  let find (r : 'a t) name =
    locked registry_lock @@ fun () -> Hashtbl.find_opt r name
end

module Counter = struct
  type t = { name : string; value : int Atomic.t }

  let reset c = Atomic.set c.value 0
  let registry = Registry.create ~reset
  let create name = { name; value = Atomic.make 0 }
  let make name = Registry.make registry name create
  let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.value by)
  let value c = Atomic.get c.value
  let name c = c.name
  let find = Registry.find registry
  let all () = Registry.all registry
end

(* -- Sketch -------------------------------------------------------------- *)

(* The log-bucket sketch behind {!Histogram} and each {!Window} slot
   (DDSketch-style): bucket [i] covers (γ^(i-1), γ^i] and a value in it
   is estimated as 2γ^i/(γ+1), so the relative error of any quantile
   estimate is bounded by α = (γ-1)/(γ+1) ≈ 4.8% at γ = 1.1 — with
   fixed memory: one int array regardless of how many values are
   observed. Indices are clamped to [lo_idx, hi_idx] (≈ 1.4e-10 s ..
   4.6e6 s); non-positive values land in a dedicated zero bucket
   estimated as 0. Callers hold the owning handle's lock. *)
module Sketch = struct
  let gamma = 1.1
  let inv_log_gamma = 1.0 /. Float.log gamma
  let quantile_relative_error = (gamma -. 1.0) /. (gamma +. 1.0)
  let lo_idx = -240
  let hi_idx = 160
  let n_buckets = hi_idx - lo_idx + 1

  type t = {
    buckets : int array;  (** counts per log bucket, index offset by lo_idx *)
    mutable zero : int;  (** observations <= 0 *)
    mutable count : int;
    mutable total : float;
  }

  let create () =
    { buckets = Array.make n_buckets 0; zero = 0; count = 0; total = 0.0 }

  let bucket_of v =
    let i = int_of_float (Float.ceil (Float.log v *. inv_log_gamma)) in
    if i < lo_idx then lo_idx else if i > hi_idx then hi_idx else i

  (* the DDSketch midpoint estimate for bucket [i] *)
  let value_of_bucket i = 2.0 *. (gamma ** float_of_int i) /. (gamma +. 1.0)

  let add s v =
    if v > 0.0 then begin
      let i = bucket_of v - lo_idx in
      s.buckets.(i) <- s.buckets.(i) + 1
    end
    else s.zero <- s.zero + 1;
    s.count <- s.count + 1;
    s.total <- s.total +. v

  let clear s =
    Array.fill s.buckets 0 n_buckets 0;
    s.zero <- 0;
    s.count <- 0;
    s.total <- 0.0

  let rec bucket_sum sketches i acc =
    match sketches with
    | [] -> acc
    | s :: rest -> bucket_sum rest i (acc + s.buckets.(i))

  (* The q-quantile of the union of [sketches]: the ⌈q·count⌉-th
     smallest observation (q clamped to [0,1]), found by one walk over
     the merged buckets; 0 when empty. *)
  let quantile sketches q =
    let count = List.fold_left (fun acc s -> acc + s.count) 0 sketches in
    if count = 0 then 0.0
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let rank =
        let r = int_of_float (Float.ceil (q *. float_of_int count)) in
        if r < 1 then 1 else if r > count then count else r
      in
      let zero = List.fold_left (fun acc s -> acc + s.zero) 0 sketches in
      if rank <= zero then 0.0
      else
        let rec walk i cum =
          let cum = bucket_sum sketches i cum in
          if cum >= rank || i = n_buckets - 1 then value_of_bucket (i + lo_idx)
          else walk (i + 1) cum
        in
        walk 0 zero
    end
end

module Histogram = struct
  type t = {
    name : string;
    lock : Mutex.t;
    sketch : Sketch.t;
    mutable min_v : float;
    mutable max_v : float;
    (* GC sums of the spans named [name] that finished with the
       [gc_stats] gate open; inclusive of child spans, like durations *)
    mutable minor_words : float;
    mutable promoted_words : float;
    mutable major_collections : int;
  }

  let quantile_relative_error = Sketch.quantile_relative_error

  let reset h =
    locked h.lock @@ fun () ->
    Sketch.clear h.sketch;
    h.min_v <- infinity;
    h.max_v <- neg_infinity;
    h.minor_words <- 0.0;
    h.promoted_words <- 0.0;
    h.major_collections <- 0

  let registry = Registry.create ~reset

  let create name =
    {
      name;
      lock = Mutex.create ();
      sketch = Sketch.create ();
      min_v = infinity;
      max_v = neg_infinity;
      minor_words = 0.0;
      promoted_words = 0.0;
      major_collections = 0;
    }

  let make name = Registry.make registry name create

  (* call with [h.lock] held *)
  let add h v =
    Sketch.add h.sketch v;
    if v < h.min_v then h.min_v <- v;
    if v > h.max_v then h.max_v <- v

  let observe h v = locked h.lock @@ fun () -> add h v

  (* a span finish under the [gc_stats] gate: its duration and its GC
     deltas in one locked update *)
  let observe_gc h v ~minor_words ~promoted_words ~major_collections =
    locked h.lock @@ fun () ->
    add h v;
    h.minor_words <- h.minor_words +. minor_words;
    h.promoted_words <- h.promoted_words +. promoted_words;
    h.major_collections <- h.major_collections + major_collections

  let count h = locked h.lock @@ fun () -> h.sketch.count
  let total h = locked h.lock @@ fun () -> h.sketch.total

  let mean h =
    locked h.lock @@ fun () ->
    let s = h.sketch in
    if s.count = 0 then 0.0 else s.total /. float_of_int s.count

  let max_value h =
    locked h.lock @@ fun () -> if h.sketch.count = 0 then 0.0 else h.max_v

  let min_value h =
    locked h.lock @@ fun () -> if h.sketch.count = 0 then 0.0 else h.min_v

  let gc_sums h =
    locked h.lock @@ fun () ->
    (h.minor_words, h.promoted_words, h.major_collections)

  let name h = h.name
  let quantile h q = locked h.lock @@ fun () -> Sketch.quantile [ h.sketch ] q
  let find = Registry.find registry
  let all () = Registry.all registry
end

(* -- Rolling windows ------------------------------------------------------ *)

(* The slot ring behind {!Window} and {!Slo}: the window is split into
   [n] time slots; a slot is lazily cleared and re-stamped when its
   epoch comes around again, so observations older than the window fall
   out with no timer thread. Epochs count slot widths since clock zero;
   the clock is clamped to 0 so a (test) clock that starts negative
   cannot produce negative [mod] indices. Callers hold the owning
   handle's lock. *)
module Slots = struct
  type 'a t = {
    window : float;
    slot_s : float;
    epochs : int array;  (** -1 = never used *)
    data : 'a array;
    clear : 'a -> unit;
  }

  let create ~n ~window ~init ~clear =
    let n = max 1 n and window = Float.max 1e-9 window in
    {
      window;
      slot_s = window /. float_of_int n;
      epochs = Array.make n (-1);
      data = Array.init n (fun _ -> init ());
      clear;
    }

  let epoch_of r t = int_of_float (Float.floor (Float.max 0.0 t /. r.slot_s))

  (* the slot the current instant falls into *)
  let current r =
    let e = epoch_of r (now ()) in
    let i = e mod Array.length r.epochs in
    if r.epochs.(i) <> e then begin
      r.clear r.data.(i);
      r.epochs.(i) <- e
    end;
    r.data.(i)

  (* the slots still inside the window, in slot order *)
  let live r =
    let e_now = epoch_of r (now ()) in
    let n = Array.length r.epochs in
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if r.epochs.(i) > e_now - n && r.epochs.(i) <= e_now then
        acc := r.data.(i) :: !acc
    done;
    !acc

  let reset r =
    Array.fill r.epochs 0 (Array.length r.epochs) (-1);
    Array.iter r.clear r.data
end

module Window = struct
  (* A sliding-window histogram: one {!Sketch} per slot of a {!Slots}
     ring; queries merge the slots still inside the window. *)
  type t = { name : string; lock : Mutex.t; slots : Sketch.t Slots.t }

  let default_window = 30.0
  let default_slots = 15
  let reset w = locked w.lock @@ fun () -> Slots.reset w.slots
  let registry = Registry.create ~reset

  let make ?(slots = default_slots) ?(window = default_window) name =
    Registry.make registry name (fun name ->
        {
          name;
          lock = Mutex.create ();
          slots =
            Slots.create ~n:slots ~window ~init:Sketch.create
              ~clear:Sketch.clear;
        })

  let name w = w.name
  let window_seconds w = w.slots.Slots.window
  let observe w v =
    locked w.lock @@ fun () -> Sketch.add (Slots.current w.slots) v

  let count w =
    locked w.lock @@ fun () ->
    List.fold_left (fun acc s -> acc + s.Sketch.count) 0 (Slots.live w.slots)

  let total w =
    locked w.lock @@ fun () ->
    List.fold_left (fun acc s -> acc +. s.Sketch.total) 0.0 (Slots.live w.slots)

  let rate w = float_of_int (count w) /. window_seconds w
  let quantile w q =
    locked w.lock @@ fun () -> Sketch.quantile (Slots.live w.slots) q
  let find = Registry.find registry
  let all () = Registry.all registry
end

(* -- SLO tracking --------------------------------------------------------- *)

module Slo = struct
  (* A latency SLO: [objective] of the observations over the rolling
     window must land at or under [target] seconds. Each {!Slots} slot
     counts totals and breaches. The burn rate is the pace at which the
     error budget is consumed — windowed breach fraction over the
     allowed fraction (1 - objective): 1.0 spends the budget exactly at
     the sustainable pace, above 1 exhausts it early. *)
  type tally = { mutable seen : int; mutable breached : int }

  type t = {
    name : string;
    lock : Mutex.t;
    target : float;
    objective : float;
    slots : tally Slots.t;
    mutable cum_total : int;
    mutable cum_breaches : int;
  }

  type status = {
    slo_name : string;
    slo_target : float;
    slo_objective : float;
    slo_window : float;
    total : int;
    breaches : int;
    window_total : int;
    window_breaches : int;
    compliance : float;
    burn_rate : float;
    budget_remaining : float;
  }

  let reset s =
    locked s.lock @@ fun () ->
    Slots.reset s.slots;
    s.cum_total <- 0;
    s.cum_breaches <- 0

  let registry = Registry.create ~reset

  let make ?(objective = 0.99) ?(window = 60.0) ~target name =
    Registry.make registry name (fun name ->
        {
          name;
          lock = Mutex.create ();
          target;
          objective = Float.max 0.0 (Float.min 1.0 objective);
          slots =
            Slots.create ~n:Window.default_slots ~window
              ~init:(fun () -> { seen = 0; breached = 0 })
              ~clear:(fun t ->
                t.seen <- 0;
                t.breached <- 0);
          cum_total = 0;
          cum_breaches = 0;
        })

  let name s = s.name

  let record s latency =
    locked s.lock @@ fun () ->
    let t = Slots.current s.slots in
    t.seen <- t.seen + 1;
    s.cum_total <- s.cum_total + 1;
    if latency > s.target then begin
      t.breached <- t.breached + 1;
      s.cum_breaches <- s.cum_breaches + 1
    end

  let status s =
    locked s.lock @@ fun () ->
    let live = Slots.live s.slots in
    let wt = List.fold_left (fun acc t -> acc + t.seen) 0 live in
    let wb = List.fold_left (fun acc t -> acc + t.breached) 0 live in
    let breach_frac =
      if wt = 0 then 0.0 else float_of_int wb /. float_of_int wt
    in
    (* the epsilon keeps a 100% objective finite instead of dividing by
       zero; any breach then reads as an enormous (but serializable)
       burn rate, which is the right signal *)
    let allowed = Float.max (1.0 -. s.objective) 1e-9 in
    let burn_rate = breach_frac /. allowed in
    {
      slo_name = s.name;
      slo_target = s.target;
      slo_objective = s.objective;
      slo_window = s.slots.Slots.window;
      total = s.cum_total;
      breaches = s.cum_breaches;
      window_total = wt;
      window_breaches = wb;
      compliance = 1.0 -. breach_frac;
      burn_rate;
      budget_remaining = 1.0 -. burn_rate;
    }

  let find = Registry.find registry
  let all () = Registry.all registry
end

(* -- Sinks --------------------------------------------------------------- *)

type sink = { on_span : span -> unit }

let sinks : sink list ref = ref []

let register_sink s =
  locked sink_lock @@ fun () -> sinks := s :: !sinks

let unregister_sink s =
  locked sink_lock @@ fun () -> sinks := List.filter (fun x -> x != s) !sinks

let has_sinks () = !sinks <> []

(* -- Spans --------------------------------------------------------------- *)

(* The stack of open spans, one per domain. Attrs are stored
   newest-first and reversed on finish; [set_attr] therefore shadows
   earlier values for the same key in export order. *)
type frame = {
  f_name : string;
  f_start : float;
  mutable f_attrs : attr list;
}

let stack_key : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

let set_attr k v =
  match !(stack ()) with
  | [] -> ()
  | f :: _ -> f.f_attrs <- (k, v) :: f.f_attrs

(* innermost open span name on this domain, and current depth — the span
   context structured log records carry *)
let current_span_name () =
  match !(stack ()) with [] -> None | f :: _ -> Some f.f_name

let current_depth () = List.length !(stack ())

(* -- Trace context -------------------------------------------------------- *)

module Trace_context = struct
  (* The request-scoped identity: a domain-local (DLS) optional trace
     ID. Root IDs must be unique within a run (the audit-trail
     uniqueness guarantee) and unlikely to collide across runs whose
     JSONL lands in the same place, hence the pid/start-time nonce. *)
  let nonce =
    lazy
      (let t = Unix.gettimeofday () in
       let mix =
         (Unix.getpid () * 1_000_003)
         + int_of_float (Float.rem (t *. 1e3) 1_048_576.0)
       in
       Printf.sprintf "%05x" (mix land 0xfffff))

  let root_counter = Atomic.make 0
  let child_counter = Atomic.make 0

  let key : string option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let slot () = Domain.DLS.get key
  let current () = !(slot ())

  let new_root_id () =
    Printf.sprintf "%s-%06d" (Lazy.force nonce)
      (Atomic.fetch_and_add root_counter 1)

  let child_id () =
    match current () with
    | None -> new_root_id ()
    | Some parent ->
      Printf.sprintf "%s.%d" parent (Atomic.fetch_and_add child_counter 1)

  let with_opt v f =
    let s = slot () in
    let saved = !s in
    s := v;
    Fun.protect ~finally:(fun () -> s := saved) f

  let with_id id f = with_opt (Some id) f

  let scope f =
    match current () with
    | Some id -> f id
    | None ->
      let id = new_root_id () in
      with_id id (fun () -> f id)
end

let span ?(attrs = []) name f =
  let stack = stack () in
  let fr = { f_name = name; f_start = now (); f_attrs = List.rev attrs } in
  let depth = List.length !stack in
  (* [Gc.minor_words ()] reads the domain's allocation pointer directly;
     [quick_stat]'s minor_words field only advances at minor
     collections, so it would under-count short spans to zero. *)
  let gc0 =
    if !gc_stats then Some (Gc.minor_words (), Gc.quick_stat ()) else None
  in
  stack := fr :: !stack;
  Fun.protect
    ~finally:(fun () ->
      (match !stack with
      | top :: rest when top == fr -> stack := rest
      | _ -> stack := List.filter (fun x -> x != fr) !stack);
      let dur = now () -. fr.f_start in
      (match gc0 with
      | Some (mw0, g0) ->
        let g1 = Gc.quick_stat () in
        let minor_words = Gc.minor_words () -. mw0 in
        let promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words in
        let major_collections =
          g1.Gc.major_collections - g0.Gc.major_collections
        in
        Histogram.observe_gc (Histogram.make fr.f_name) dur ~minor_words
          ~promoted_words ~major_collections;
        fr.f_attrs <-
          ("gc.major_collections", string_of_int major_collections)
          :: ("gc.promoted_words", Printf.sprintf "%.0f" promoted_words)
          :: ("gc.minor_words", Printf.sprintf "%.0f" minor_words)
          :: fr.f_attrs
      | None -> Histogram.observe (Histogram.make fr.f_name) dur);
      (* stamp the ambient trace ID (if any) last so it exports after
         user attrs; spans outside any trace context are unchanged *)
      (match Trace_context.current () with
      | Some id -> fr.f_attrs <- ("trace", id) :: fr.f_attrs
      | None -> ());
      locked sink_lock (fun () ->
          if !sinks <> [] then begin
            let sp =
              {
                sp_name = fr.f_name;
                sp_start = fr.f_start;
                sp_dur = dur;
                sp_depth = depth;
                sp_domain = (Domain.self () :> int);
                sp_attrs = List.rev fr.f_attrs;
              }
            in
            List.iter (fun s -> s.on_span sp) !sinks
          end))
    f

let fine_span ?attrs name f = if !detailed then span ?attrs name f else f ()

(* -- A minimal JSON reader ------------------------------------------------ *)

(* The dependency set has no JSON library; this covers what the bench
   gate (reading BENCH_*.json baselines) and the exporter round-trip
   tests need. Numbers are floats, \u escapes outside the basic escapes
   are replaced with '?'. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      String.iter (fun c -> expect c) word;
      v
    in
    let string_lit () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' ->
            Buffer.add_char b '\n';
            advance ();
            go ()
          | Some 't' ->
            Buffer.add_char b '\t';
            advance ();
            go ()
          | Some 'r' ->
            Buffer.add_char b '\r';
            advance ();
            go ()
          | Some 'u' ->
            advance ();
            for _ = 1 to 4 do
              advance ()
            done;
            Buffer.add_char b '?';
            go ()
          | Some c ->
            Buffer.add_char b c;
            advance ();
            go ()
          | None -> fail "bad escape")
        | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents b
    in
    let number () =
      let start = !pos in
      let is_num_char c =
        (c >= '0' && c <= '9')
        || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' -> obj ()
      | Some '[' -> list ()
      | Some '"' -> Str (string_lit ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (number ())
      | None -> fail "unexpected end"
    and obj () =
      expect '{';
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    and list () =
      expect '[';
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elems acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems (v :: acc)
          | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elems []
      end
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v

  let member k = function
    | Obj kvs -> (
      match List.assoc_opt k kvs with
      | Some v -> v
      | None -> raise (Parse_error ("no member " ^ k)))
    | _ -> raise (Parse_error ("no member " ^ k))

  let member_opt k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
  let to_list = function List l -> l | _ -> raise (Parse_error "not a list")
  let to_str = function Str s -> s | _ -> raise (Parse_error "not a string")
  let to_num = function Num f -> f | _ -> raise (Parse_error "not a number")
  let to_bool = function Bool b -> b | _ -> raise (Parse_error "not a bool")

  let escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let write_jsonl path to_json items =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter
          (fun x ->
            output_string oc (to_json x);
            output_char oc '\n')
          items)

  let read_jsonl path of_json =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | "" -> go acc
          | line -> go (of_json line :: acc)
        in
        go [])
end

(* -- Bounded rings -------------------------------------------------------- *)

(* An array indexed by [seq mod capacity], so wraparound keeps exactly
   the newest [capacity] items and oldest-first order follows from the
   sequence numbers. *)
module Ring = struct
  type 'a t = {
    lock : Mutex.t;
    mutable buf : 'a option array;
    mutable total : int;
  }

  let create ~capacity =
    {
      lock = Mutex.create ();
      buf = Array.make (max 1 capacity) None;
      total = 0;
    }

  let capacity r = locked r.lock @@ fun () -> Array.length r.buf
  let length r = locked r.lock @@ fun () -> min r.total (Array.length r.buf)
  let total r = locked r.lock @@ fun () -> r.total

  let add r make =
    locked r.lock @@ fun () ->
    let seq = r.total in
    let x = make seq in
    r.buf.(seq mod Array.length r.buf) <- Some x;
    r.total <- seq + 1;
    x

  let to_list ?last r =
    locked r.lock @@ fun () ->
    let cap = Array.length r.buf in
    let kept = min r.total cap in
    let kept = match last with Some n -> min kept (max 0 n) | None -> kept in
    let first_seq = r.total - kept in
    List.init kept (fun i ->
        match r.buf.((first_seq + i) mod cap) with
        | Some x -> x
        | None -> assert false (* seqs below [total] are always filled *))

  let clear r =
    locked r.lock @@ fun () ->
    Array.fill r.buf 0 (Array.length r.buf) None;
    r.total <- 0

  let resize r capacity =
    locked r.lock @@ fun () ->
    r.buf <- Array.make (max 1 capacity) None;
    r.total <- 0
end

(* -- Structured logging --------------------------------------------------- *)

module Log = struct
  type level = Debug | Info | Warn | Error

  let level_to_string = function
    | Debug -> "debug"
    | Info -> "info"
    | Warn -> "warn"
    | Error -> "error"

  let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

  (* records below [threshold] are dropped entirely; records at or above
     [stderr_threshold] are additionally mirrored to stderr in a
     one-line human format (no timestamp, so the output is stable under
     test). *)
  let threshold = ref Warn
  let set_level l = threshold := l
  let level () = !threshold
  let enabled l = severity l >= severity !threshold
  let stderr_threshold : level option ref = ref (Some Warn)
  let set_stderr_threshold o = stderr_threshold := o

  let lock = Mutex.create ()
  let chan : out_channel option ref = ref None

  let open_file path =
    locked lock @@ fun () ->
    (match !chan with Some oc -> close_out oc | None -> ());
    chan := Some (open_out path)

  let close_file () =
    locked lock @@ fun () ->
    match !chan with
    | Some oc ->
      chan := None;
      close_out oc
    | None -> ()

  let jsonl_record ts l ~domain ~span ~depth ~trace ~attrs msg =
    let b = Buffer.create 160 in
    Printf.bprintf b "{\"ts\": %.6f, \"level\": \"%s\", \"domain\": %d" ts
      (level_to_string l) domain;
    (match span with
    | Some s -> Printf.bprintf b ", \"span\": \"%s\"" (Json.escape s)
    | None -> Buffer.add_string b ", \"span\": null");
    (match trace with
    | Some t -> Printf.bprintf b ", \"trace\": \"%s\"" (Json.escape t)
    | None -> Buffer.add_string b ", \"trace\": null");
    Printf.bprintf b ", \"depth\": %d, \"msg\": \"%s\", \"attrs\": {" depth
      (Json.escape msg);
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        Printf.bprintf b "\"%s\": \"%s\"" (Json.escape k) (Json.escape v))
      attrs;
    Buffer.add_string b "}}\n";
    Buffer.contents b

  let log l ?(attrs = []) msg =
    if enabled l then begin
      let ts = now () in
      let domain = (Domain.self () :> int) in
      let span = current_span_name () in
      let depth = current_depth () in
      let trace = Trace_context.current () in
      locked lock (fun () ->
          match !chan with
          | Some oc ->
            output_string oc
              (jsonl_record ts l ~domain ~span ~depth ~trace ~attrs msg);
            flush oc
          | None -> ());
      match !stderr_threshold with
      | Some t when severity l >= severity t ->
        let attr_text =
          if attrs = [] then ""
          else
            Printf.sprintf " (%s)"
              (String.concat ", "
                 (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) attrs))
        in
        Printf.eprintf "%% [%s] %s%s\n%!" (level_to_string l) msg attr_text
      | _ -> ()
    end

  let debug ?attrs msg = log Debug ?attrs msg
  let info ?attrs msg = log Info ?attrs msg
  let warn ?attrs msg = log Warn ?attrs msg
  let error ?attrs msg = log Error ?attrs msg
end

(* -- Policy health -------------------------------------------------------- *)

module Health = struct
  (* Streaming policy-health estimation. One signal per monitored
     boolean stream (a PCP violation, a PEP non-compliance, a PDP
     fallback); each observation updates a cumulative tally, a
     per-GPM-version tally, a count-based rolling window (the last
     [window] observations — request-indexed, so rolling rates do not
     depend on the clock at all), and a Page–Hinkley change-point test
     over the stream mean. The PH statistic for an upward shift is
     m_t − min m_i with m_t = Σ (x_i − mean_i − δ); crossing λ raises a
     structured event into the bounded global ring and re-arms the
     detector from scratch, so one sustained shift raises exactly one
     event. Only event timestamps read the clock ([now ()]), so an
     injected clock ({!set_clock}) makes the whole pipeline
     deterministic. *)

  type config = {
    window : int;
    min_observations : int;
    ph_delta : float;
    ph_lambda : float;
  }

  let default_config =
    { window = 50; min_observations = 10; ph_delta = 0.05; ph_lambda = 2.0 }

  type event = {
    ev_seq : int;
    ev_ts : float;
    ev_signal : string;
    ev_kind : string;  (** ["rate_shift"] (detector) or ["relearn"] (PAdaP) *)
    ev_gpm_version : int;  (** -1 when no version was ever observed *)
    ev_observations : int;
    ev_baseline : float;
    ev_current : float;
    ev_deviation : float;
    ev_old_size : int;
    ev_new_size : int;
    ev_detail : string;
  }

  (* the bounded event ring, global across signals *)
  let ring : event Ring.t = Ring.create ~capacity:256
  let set_ring_capacity n = Ring.resize ring n
  let clear_events () = Ring.clear ring
  let events_total () = Ring.total ring
  let events ?last () = Ring.to_list ?last ring

  let emit ?(gpm_version = -1) ?(observations = 0) ?(baseline = 0.0)
      ?(current = 0.0) ?(deviation = 0.0) ?(old_size = 0) ?(new_size = 0)
      ?(detail = "") ~signal ~kind () =
    Counter.incr (Counter.make "health.events");
    let ev =
      Ring.add ring (fun seq ->
          {
            ev_seq = seq;
            ev_ts = now ();
            ev_signal = signal;
            ev_kind = kind;
            ev_gpm_version = gpm_version;
            ev_observations = observations;
            ev_baseline = baseline;
            ev_current = current;
            ev_deviation = deviation;
            ev_old_size = old_size;
            ev_new_size = new_size;
            ev_detail = detail;
          })
    in
    Log.info "health event"
      ~attrs:
        [
          ("signal", signal);
          ("kind", kind);
          ("gpm_version", string_of_int gpm_version);
          ("detail", detail);
        ];
    ev

  type t = {
    name : string;
    lock : Mutex.t;
    config : config;
    mutable count : int;
    mutable positives : int;
    versions : (int, int * int) Hashtbl.t;  (** version -> (n, positives) *)
    recent : bool array;  (** last [window] observations, ring *)
    mutable recent_n : int;
    mutable recent_sum : int;
    mutable ph_n : int;
    mutable ph_mean : float;
    mutable ph_m : float;
    mutable ph_min : float;
    mutable last_version : int;
    mutable alarms : int;
  }

  let reset s =
    locked s.lock @@ fun () ->
    s.count <- 0;
    s.positives <- 0;
    Hashtbl.reset s.versions;
    Array.fill s.recent 0 (Array.length s.recent) false;
    s.recent_n <- 0;
    s.recent_sum <- 0;
    s.ph_n <- 0;
    s.ph_mean <- 0.0;
    s.ph_m <- 0.0;
    s.ph_min <- 0.0;
    s.last_version <- -1;
    s.alarms <- 0

  let registry = Registry.create ~reset

  let make ?(config = default_config) name =
    Registry.make registry name (fun name ->
        let window = max 1 config.window in
        {
          name;
          lock = Mutex.create ();
          config = { config with window };
          count = 0;
          positives = 0;
          versions = Hashtbl.create 4;
          recent = Array.make window false;
          recent_n = 0;
          recent_sum = 0;
          ph_n = 0;
          ph_mean = 0.0;
          ph_m = 0.0;
          ph_min = 0.0;
          last_version = -1;
          alarms = 0;
        })

  let name s = s.name
  let observations s = locked s.lock @@ fun () -> s.count
  let positives s = locked s.lock @@ fun () -> s.positives
  let alarms s = locked s.lock @@ fun () -> s.alarms

  (* rolling rate over the last [window] observations *)
  let rate s =
    locked s.lock @@ fun () ->
    if s.recent_n = 0 then 0.0
    else float_of_int s.recent_sum /. float_of_int s.recent_n

  let overall_rate s =
    locked s.lock @@ fun () ->
    if s.count = 0 then 0.0
    else float_of_int s.positives /. float_of_int s.count

  let version_rates s =
    locked s.lock @@ fun () ->
    Hashtbl.fold
      (fun v (n, p) acc ->
        (v, n, if n = 0 then 0.0 else float_of_int p /. float_of_int n) :: acc)
      s.versions []
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)

  let observe ?version s positive =
    let fire =
      locked s.lock @@ fun () ->
      let x = if positive then 1.0 else 0.0 in
      s.count <- s.count + 1;
      if positive then s.positives <- s.positives + 1;
      (match version with
      | Some v ->
        s.last_version <- v;
        let n, p = Option.value ~default:(0, 0) (Hashtbl.find_opt s.versions v) in
        Hashtbl.replace s.versions v (n + 1, if positive then p + 1 else p)
      | None -> ());
      let w = Array.length s.recent in
      let i = (s.count - 1) mod w in
      if s.recent_n = w then begin
        if s.recent.(i) then s.recent_sum <- s.recent_sum - 1
      end
      else s.recent_n <- s.recent_n + 1;
      s.recent.(i) <- positive;
      if positive then s.recent_sum <- s.recent_sum + 1;
      (* Page–Hinkley: running mean first, then the cumulative deviation;
         [ph_min] trails the minimum so the statistic measures the rise
         since the stream last looked stationary *)
      s.ph_n <- s.ph_n + 1;
      s.ph_mean <- s.ph_mean +. ((x -. s.ph_mean) /. float_of_int s.ph_n);
      s.ph_m <- s.ph_m +. (x -. s.ph_mean -. s.config.ph_delta);
      if s.ph_m < s.ph_min then s.ph_min <- s.ph_m;
      let stat = s.ph_m -. s.ph_min in
      if s.ph_n >= s.config.min_observations && stat > s.config.ph_lambda
      then begin
        s.alarms <- s.alarms + 1;
        let info =
          ( s.count,
            s.ph_mean,
            (if s.recent_n = 0 then 0.0
             else float_of_int s.recent_sum /. float_of_int s.recent_n),
            stat,
            s.last_version )
        in
        (* re-arm: a fresh baseline, so recovery is observable and each
           further sustained shift raises its own event *)
        s.ph_n <- 0;
        s.ph_mean <- 0.0;
        s.ph_m <- 0.0;
        s.ph_min <- 0.0;
        Some info
      end
      else None
    in
    match fire with
    | Some (obs, baseline, current, stat, version) ->
      ignore
        (emit ~gpm_version:version ~observations:obs ~baseline ~current
           ~deviation:stat ~detail:"page-hinkley" ~signal:s.name
           ~kind:"rate_shift" ())
    | None -> ()

  let find = Registry.find registry
  let all () = Registry.all registry

  let event_to_json e =
    Printf.sprintf
      "{\"seq\": %d, \"ts\": %.6f, \"signal\": \"%s\", \"kind\": \"%s\", \
       \"gpm_version\": %d, \"observations\": %d, \"baseline\": %.6f, \
       \"current\": %.6f, \"deviation\": %.6f, \"old_size\": %d, \
       \"new_size\": %d, \"detail\": \"%s\"}"
      e.ev_seq e.ev_ts (Json.escape e.ev_signal) (Json.escape e.ev_kind)
      e.ev_gpm_version e.ev_observations e.ev_baseline e.ev_current
      e.ev_deviation e.ev_old_size e.ev_new_size (Json.escape e.ev_detail)

  let event_of_json line =
    let j = Json.parse line in
    let num k = int_of_float (Json.to_num (Json.member k j)) in
    let fnum k = Json.to_num (Json.member k j) in
    let str k = Json.to_str (Json.member k j) in
    {
      ev_seq = num "seq";
      ev_ts = fnum "ts";
      ev_signal = str "signal";
      ev_kind = str "kind";
      ev_gpm_version = num "gpm_version";
      ev_observations = num "observations";
      ev_baseline = fnum "baseline";
      ev_current = fnum "current";
      ev_deviation = fnum "deviation";
      ev_old_size = num "old_size";
      ev_new_size = num "new_size";
      ev_detail = str "detail";
    }

  let write_jsonl path events = Json.write_jsonl path event_to_json events
  let read_jsonl path = Json.read_jsonl path event_of_json
end

(* -- Trace collection + exporters ---------------------------------------- *)

module Trace = struct
  let limit = ref 1_000_000
  let set_limit n = limit := n

  (* [buf]/[count] are mutated only from inside [sink_lock] (delivery)
     or under it (clear/stop), so plain refs are safe there;
     [dropped_count] is additionally read unsynchronized by [dropped],
     so it is atomic. *)
  let buf : span list ref = ref []
  let count = ref 0
  let dropped_count = Atomic.make 0
  let active_flag = ref false

  let sink =
    {
      on_span =
        (fun sp ->
          if !count < !limit then begin
            buf := sp :: !buf;
            incr count
          end
          else Atomic.incr dropped_count);
    }

  let start () =
    if not !active_flag then begin
      active_flag := true;
      register_sink sink
    end

  let active () = !active_flag

  let spans () =
    let collected = locked sink_lock (fun () -> !buf) in
    List.stable_sort
      (fun a b -> Float.compare a.sp_start b.sp_start)
      (List.rev collected)

  let stop () =
    if !active_flag then begin
      active_flag := false;
      unregister_sink sink
    end;
    spans ()

  let clear () =
    locked sink_lock @@ fun () ->
    buf := [];
    count := 0;
    Atomic.set dropped_count 0

  let dropped () = Atomic.get dropped_count

  let json_escape = Json.escape

  let layer_of name =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name

  let to_chrome_json (spans : span list) : string =
    let origin =
      List.fold_left (fun acc sp -> Float.min acc sp.sp_start) infinity spans
    in
    let origin = if Float.is_finite origin then origin else 0.0 in
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    Buffer.add_string b
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"agenp\"}}";
    List.iter
      (fun sp ->
        Printf.bprintf b
          ",\n\
           {\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%d"
          (json_escape sp.sp_name)
          (json_escape (layer_of sp.sp_name))
          (sp.sp_domain + 1)
          ((sp.sp_start -. origin) *. 1e6)
          (sp.sp_dur *. 1e6) sp.sp_depth;
        List.iter
          (fun (k, v) ->
            Printf.bprintf b ",\"%s\":\"%s\"" (json_escape k) (json_escape v))
          sp.sp_attrs;
        Buffer.add_string b "}}")
      spans;
    Buffer.add_string b "]}\n";
    Buffer.contents b

  let write_chrome path spans =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_chrome_json spans))

  (* ---- span tree reconstruction (shared by the flamegraph exporters) --

     Spans arrive flat, in start order, with their nesting depth and
     domain recorded. Because a child both starts after and finishes
     before its parent, scanning each domain's spans in start order with
     a depth-pruned stack rebuilds the call tree exactly. *)

  type node = { nd_span : span; mutable nd_children : node list (* reversed *) }

  let forest_of (spans : span list) : (int * node list) list =
    let domains = Hashtbl.create 4 in
    List.iter
      (fun sp ->
        let d = sp.sp_domain in
        if not (Hashtbl.mem domains d) then Hashtbl.add domains d ())
      spans;
    let per_domain d =
      let roots = ref [] in
      let stack = ref [] in
      List.iter
        (fun sp ->
          if sp.sp_domain = d then begin
            let node = { nd_span = sp; nd_children = [] } in
            (* pop frames at the same or deeper nesting than [sp] *)
            while
              match !stack with
              | top :: _ -> top.nd_span.sp_depth >= sp.sp_depth
              | [] -> false
            do
              stack := List.tl !stack
            done;
            (match !stack with
            | parent :: _ -> parent.nd_children <- node :: parent.nd_children
            | [] -> roots := node :: !roots);
            stack := node :: !stack
          end)
        spans;
      let rec finalize n =
        n.nd_children <- List.rev n.nd_children;
        List.iter finalize n.nd_children
      in
      let roots = List.rev !roots in
      List.iter finalize roots;
      roots
    in
    Hashtbl.fold (fun d () acc -> d :: acc) domains []
    |> List.sort Int.compare
    |> List.map (fun d -> (d, per_domain d))

  (* ---- folded stacks (Brendan Gregg flamegraph.pl / speedscope input) --

     One line per distinct stack: "frame;frame;frame weight", weight in
     integer microseconds of SELF time (span duration minus children).
     When the trace covers several domains, stacks are rooted at a
     synthetic "domainN" frame to keep their timelines apart. *)

  let to_folded (spans : span list) : string =
    let forest = forest_of spans in
    let multi = List.length forest > 1 in
    let weights : (string, int) Hashtbl.t = Hashtbl.create 64 in
    let add_weight path w =
      if w > 0 then
        Hashtbl.replace weights path
          (w + Option.value ~default:0 (Hashtbl.find_opt weights path))
    in
    let rec walk prefix node =
      let sp = node.nd_span in
      let path =
        if prefix = "" then sp.sp_name else prefix ^ ";" ^ sp.sp_name
      in
      let child_time =
        List.fold_left
          (fun acc c -> acc +. c.nd_span.sp_dur)
          0.0 node.nd_children
      in
      let self_us =
        int_of_float (Float.round ((sp.sp_dur -. child_time) *. 1e6))
      in
      add_weight path self_us;
      List.iter (walk path) node.nd_children
    in
    List.iter
      (fun (d, roots) ->
        let prefix = if multi then Printf.sprintf "domain%d" d else "" in
        List.iter (walk prefix) roots)
      forest;
    let lines =
      Hashtbl.fold
        (fun path w acc -> Printf.sprintf "%s %d" path w :: acc)
        weights []
    in
    String.concat "\n" (List.sort String.compare lines)
    ^ if Hashtbl.length weights > 0 then "\n" else ""

  let write_folded path spans =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_folded spans))

  (* ---- speedscope (https://www.speedscope.app/file-format-schema.json) --

     One "evented" profile per domain, times in seconds relative to the
     earliest span. Open/close events are emitted from the reconstructed
     tree, with a monotone cursor so rounding can never produce the
     out-of-order or unbalanced event sequences the schema forbids. *)

  let to_speedscope_json ?(name = "agenp") (spans : span list) : string =
    let forest = forest_of spans in
    let origin =
      List.fold_left (fun acc sp -> Float.min acc sp.sp_start) infinity spans
    in
    let origin = if Float.is_finite origin then origin else 0.0 in
    (* frame table, deduplicated by name *)
    let frame_ids : (string, int) Hashtbl.t = Hashtbl.create 64 in
    let frames_rev = ref [] in
    let frame_id name =
      match Hashtbl.find_opt frame_ids name with
      | Some i -> i
      | None ->
        let i = Hashtbl.length frame_ids in
        Hashtbl.add frame_ids name i;
        frames_rev := name :: !frames_rev;
        i
    in
    let profiles =
      List.map
        (fun (d, roots) ->
          let events = Buffer.create 1024 in
          let first = ref true in
          let cursor = ref 0.0 in
          let emit ty frame at =
            let at = Float.max at !cursor in
            cursor := at;
            if not !first then Buffer.add_string events ",";
            first := false;
            Printf.bprintf events
              "{\"type\":\"%s\",\"frame\":%d,\"at\":%.9f}" ty frame at
          in
          let rec walk node =
            let sp = node.nd_span in
            let fid = frame_id sp.sp_name in
            emit "O" fid (sp.sp_start -. origin);
            List.iter walk node.nd_children;
            emit "C" fid (sp.sp_start -. origin +. sp.sp_dur)
          in
          List.iter walk roots;
          let end_value = !cursor in
          (d, Buffer.contents events, end_value))
        forest
    in
    let b = Buffer.create 4096 in
    Buffer.add_string b
      "{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\",";
    Printf.bprintf b "\"name\":\"%s\",\"exporter\":\"agenp-obs\","
      (Json.escape name);
    Buffer.add_string b "\"activeProfileIndex\":0,\"shared\":{\"frames\":[";
    List.iteri
      (fun i fname ->
        if i > 0 then Buffer.add_string b ",";
        Printf.bprintf b "{\"name\":\"%s\"}" (Json.escape fname))
      (List.rev !frames_rev);
    Buffer.add_string b "]},\"profiles\":[";
    List.iteri
      (fun i (d, events, end_value) ->
        if i > 0 then Buffer.add_string b ",";
        Printf.bprintf b
          "{\"type\":\"evented\",\"name\":\"domain %d\",\"unit\":\"seconds\",\"startValue\":0,\"endValue\":%.9f,\"events\":[%s]}"
          d end_value events)
      profiles;
    Buffer.add_string b "]}\n";
    Buffer.contents b

  let write_speedscope ?name path spans =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_speedscope_json ?name spans))
end

(* -- OpenMetrics exposition ----------------------------------------------- *)

module Openmetrics = struct
  (* Text exposition per the OpenMetrics spec: counters carry the
     [_total] suffix (TYPE line on the family name), histograms render
     as summaries with quantile labels, windows and SLOs as labeled
     gauges, and the document ends with "# EOF". Metric names are
     prefixed [agenp_] and sanitized to the allowed charset. *)
  let content_type =
    "application/openmetrics-text; version=1.0.0; charset=utf-8"

  let sanitize name =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      name

  let metric name = "agenp_" ^ sanitize name

  let escape_label v =
    let b = Buffer.create (String.length v + 4) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      v;
    Buffer.contents b

  let labels_text = function
    | [] -> ""
    | ls ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (sanitize k) (escape_label v))
             ls)
      ^ "}"

  let fnum v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.9g" v

  let render ?(extra = []) () =
    let b = Buffer.create 4096 in
    let typed = Hashtbl.create 32 in
    let ty name kind =
      if not (Hashtbl.mem typed name) then begin
        Hashtbl.add typed name ();
        Printf.bprintf b "# TYPE %s %s\n" name kind
      end
    in
    let gauge ?(labels = []) name v =
      ty name "gauge";
      Printf.bprintf b "%s%s %s\n" name (labels_text labels) (fnum v)
    in
    List.iter
      (fun c ->
        let n = metric (Counter.name c) in
        ty n "counter";
        Printf.bprintf b "%s_total %d\n" n (Counter.value c))
      (Counter.all ());
    List.iter
      (fun h ->
        if Histogram.count h > 0 then begin
          let n = metric (Histogram.name h) ^ "_seconds" in
          ty n "summary";
          List.iter
            (fun q ->
              Printf.bprintf b "%s{quantile=\"%g\"} %s\n" n q
                (fnum (Histogram.quantile h q)))
            [ 0.5; 0.9; 0.99 ];
          Printf.bprintf b "%s_sum %s\n" n (fnum (Histogram.total h));
          Printf.bprintf b "%s_count %d\n" n (Histogram.count h)
        end)
      (Histogram.all ());
    List.iter
      (fun w ->
        let c = Window.count w in
        if c > 0 then begin
          let base = metric (Window.name w) ^ "_window" in
          let wl =
            ("window", Printf.sprintf "%gs" (Window.window_seconds w))
          in
          List.iter
            (fun (qn, q) ->
              gauge
                ~labels:[ ("quantile", qn); wl ]
                (base ^ "_seconds") (Window.quantile w q))
            [ ("0.5", 0.5); ("0.9", 0.9); ("0.99", 0.99) ];
          gauge ~labels:[ wl ] (base ^ "_count") (float_of_int c);
          gauge ~labels:[ wl ] (base ^ "_rate") (Window.rate w)
        end)
      (Window.all ());
    List.iter
      (fun s ->
        let st = Slo.status s in
        let base = metric ("slo." ^ Slo.name s) in
        let labels =
          [
            ("target", fnum st.Slo.slo_target);
            ("objective", fnum st.Slo.slo_objective);
          ]
        in
        gauge ~labels (base ^ "_compliance") st.Slo.compliance;
        gauge ~labels (base ^ "_burn_rate") st.Slo.burn_rate;
        gauge ~labels (base ^ "_budget_remaining") st.Slo.budget_remaining;
        ty (base ^ "_breaches") "counter";
        Printf.bprintf b "%s_breaches_total%s %d\n" base (labels_text labels)
          st.Slo.breaches)
      (Slo.all ());
    List.iter
      (fun s ->
        if Health.observations s > 0 then begin
          let base = metric ("health." ^ Health.name s) in
          gauge (base ^ "_rate") (Health.rate s);
          gauge (base ^ "_observations")
            (float_of_int (Health.observations s));
          List.iter
            (fun (v, n, r) ->
              gauge
                ~labels:[ ("gpm_version", string_of_int v) ]
                (base ^ "_version_rate") r;
              gauge
                ~labels:[ ("gpm_version", string_of_int v) ]
                (base ^ "_version_observations") (float_of_int n))
            (Health.version_rates s);
          ty (base ^ "_alarms") "counter";
          Printf.bprintf b "%s_alarms_total %d\n" base (Health.alarms s)
        end)
      (Health.all ());
    let g = Gc.quick_stat () in
    gauge "agenp_gc_minor_words" (Gc.minor_words ());
    gauge "agenp_gc_promoted_words" g.Gc.promoted_words;
    gauge "agenp_gc_major_words" g.Gc.major_words;
    gauge "agenp_gc_minor_collections" (float_of_int g.Gc.minor_collections);
    gauge "agenp_gc_major_collections" (float_of_int g.Gc.major_collections);
    gauge "agenp_gc_compactions" (float_of_int g.Gc.compactions);
    gauge "agenp_gc_heap_words" (float_of_int g.Gc.heap_words);
    List.iter (fun (name, labels, v) -> gauge ~labels (metric name) v) extra;
    Buffer.add_string b "# EOF\n";
    Buffer.contents b
end

(* -- Reset --------------------------------------------------------------- *)

let reset () =
  List.iter (fun reset_kind -> reset_kind ()) !Registry.resets;
  Health.clear_events ();
  Trace.clear ()

(* -- Aggregate report ----------------------------------------------------- *)

type span_agg = {
  agg_name : string;
  agg_count : int;
  agg_total : float;
  agg_mean : float;
  agg_max : float;
  agg_p50 : float;
  agg_p90 : float;
  agg_p99 : float;
  agg_minor_words : float;
  agg_promoted_words : float;
  agg_major_collections : int;
}

type window_agg = {
  w_name : string;
  w_window : float;
  w_count : int;
  w_rate : float;
  w_p50 : float;
  w_p90 : float;
  w_p99 : float;
}

type report = {
  r_spans : span_agg list;
  r_counters : (string * int) list;
  r_windows : window_agg list;
  r_slos : Slo.status list;
}

let report () =
  let r_spans =
    Histogram.all ()
    |> List.filter (fun h -> Histogram.count h > 0)
    |> List.map (fun h ->
           let minor, promoted, major = Histogram.gc_sums h in
           {
             agg_name = Histogram.name h;
             agg_count = Histogram.count h;
             agg_total = Histogram.total h;
             agg_mean = Histogram.mean h;
             agg_max = Histogram.max_value h;
             agg_p50 = Histogram.quantile h 0.50;
             agg_p90 = Histogram.quantile h 0.90;
             agg_p99 = Histogram.quantile h 0.99;
             agg_minor_words = minor;
             agg_promoted_words = promoted;
             agg_major_collections = major;
           })
  in
  let r_counters =
    Counter.all () |> List.map (fun c -> (Counter.name c, Counter.value c))
  in
  let r_windows =
    Window.all ()
    |> List.filter (fun w -> Window.count w > 0)
    |> List.map (fun w ->
           {
             w_name = Window.name w;
             w_window = Window.window_seconds w;
             w_count = Window.count w;
             w_rate = Window.rate w;
             w_p50 = Window.quantile w 0.50;
             w_p90 = Window.quantile w 0.90;
             w_p99 = Window.quantile w 0.99;
           })
  in
  let r_slos = Slo.all () |> List.map Slo.status in
  { r_spans; r_counters; r_windows; r_slos }

let report_to_string r =
  let b = Buffer.create 1024 in
  let with_alloc =
    List.exists
      (fun a -> a.agg_minor_words > 0.0 || a.agg_major_collections > 0)
      r.r_spans
  in
  if r.r_spans <> [] then begin
    Printf.bprintf b "%-36s %8s %11s %11s %11s %11s %11s %11s" "span" "count"
      "total(s)" "mean(s)" "p50(s)" "p90(s)" "p99(s)" "max(s)";
    if with_alloc then Printf.bprintf b " %14s %12s %6s" "minor(w)" "promoted(w)" "majgc";
    Buffer.add_char b '\n';
    List.iter
      (fun a ->
        Printf.bprintf b "%-36s %8d %11.6f %11.6f %11.6f %11.6f %11.6f %11.6f"
          a.agg_name a.agg_count a.agg_total a.agg_mean a.agg_p50 a.agg_p90
          a.agg_p99 a.agg_max;
        if with_alloc then
          Printf.bprintf b " %14.0f %12.0f %6d" a.agg_minor_words
            a.agg_promoted_words a.agg_major_collections;
        Buffer.add_char b '\n')
      r.r_spans
  end;
  if r.r_windows <> [] then begin
    if Buffer.length b > 0 then Buffer.add_char b '\n';
    Printf.bprintf b "%-36s %8s %8s %10s %11s %11s %11s\n" "window" "last(s)"
      "count" "rate(/s)" "p50(s)" "p90(s)" "p99(s)";
    List.iter
      (fun w ->
        Printf.bprintf b "%-36s %8.0f %8d %10.2f %11.6f %11.6f %11.6f\n"
          w.w_name w.w_window w.w_count w.w_rate w.w_p50 w.w_p90 w.w_p99)
      r.r_windows
  end;
  if r.r_counters <> [] then begin
    if Buffer.length b > 0 then Buffer.add_char b '\n';
    Printf.bprintf b "%-36s %10s\n" "counter" "value";
    List.iter
      (fun (name, v) -> Printf.bprintf b "%-36s %10d\n" name v)
      r.r_counters
  end;
  if r.r_slos <> [] then begin
    if Buffer.length b > 0 then Buffer.add_char b '\n';
    Printf.bprintf b "%-24s %10s %10s %9s %7s %8s %11s %8s\n" "slo" "target(s)"
      "objective" "last(s)" "seen" "breach" "compliance" "burn";
    List.iter
      (fun (st : Slo.status) ->
        Printf.bprintf b "%-24s %10.6f %10.4f %9.0f %7d %8d %11.4f %8.2f\n"
          st.Slo.slo_name st.Slo.slo_target st.Slo.slo_objective
          st.Slo.slo_window st.Slo.window_total st.Slo.window_breaches
          st.Slo.compliance st.Slo.burn_rate)
      r.r_slos
  end;
  Buffer.contents b

let pp_report ppf r = Format.pp_print_string ppf (report_to_string r)

let report_to_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"spans\": {";
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b
        "\"%s\": {\"count\": %d, \"total_s\": %.6f, \"mean_s\": %.6f, \
         \"p50_s\": %.6f, \"p90_s\": %.6f, \"p99_s\": %.6f, \"max_s\": %.6f, \
         \"gc\": {\"minor_words\": %.0f, \"promoted_words\": %.0f, \
         \"major_collections\": %d}}"
        (Json.escape a.agg_name) a.agg_count a.agg_total a.agg_mean a.agg_p50
        a.agg_p90 a.agg_p99 a.agg_max a.agg_minor_words a.agg_promoted_words
        a.agg_major_collections)
    r.r_spans;
  Buffer.add_string b "}, \"counters\": {";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": %d" (Json.escape name) v)
    r.r_counters;
  Buffer.add_string b "}, \"windows\": {";
  List.iteri
    (fun i w ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b
        "\"%s\": {\"window_s\": %g, \"count\": %d, \"rate\": %.6f, \"p50_s\": \
         %.6f, \"p90_s\": %.6f, \"p99_s\": %.6f}"
        (Json.escape w.w_name) w.w_window w.w_count w.w_rate w.w_p50 w.w_p90
        w.w_p99)
    r.r_windows;
  Buffer.add_string b "}, \"slos\": {";
  List.iteri
    (fun i (st : Slo.status) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b
        "\"%s\": {\"target_s\": %g, \"objective\": %g, \"window_s\": %g, \
         \"total\": %d, \"breaches\": %d, \"window_total\": %d, \
         \"window_breaches\": %d, \"compliance\": %.6f, \"burn_rate\": %.6f, \
         \"budget_remaining\": %.6f}"
        (Json.escape st.Slo.slo_name) st.Slo.slo_target st.Slo.slo_objective
        st.Slo.slo_window st.Slo.total st.Slo.breaches st.Slo.window_total
        st.Slo.window_breaches st.Slo.compliance st.Slo.burn_rate
        st.Slo.budget_remaining)
    r.r_slos;
  Buffer.add_string b "}}";
  Buffer.contents b
