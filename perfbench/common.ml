(* Pieces the workloads share: seeded XACML request streams, the
   monitoring oracle, the timed-pass loop, summary statistics and the
   metric records main.ml prints. *)

(* seconds on the monotonic nanosecond clock: in gettimeofday's
   microsecond steps, short latencies and their medians would repeat
   exactly from run to run *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let options = [ "permit"; "deny" ]

(* ---- statistics ------------------------------------------------------- *)

(** Linear-interpolation quantile (q in [0, 1]); nan on an empty sample. *)
let quantile (xs : float array) q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile (Array.of_list xs) 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

(* ---- requests --------------------------------------------------------- *)

(** One request: a role/resource/action triple plus the subject-id of a
    user from the population. The policy ignores the id; it decides only
    whether contexts repeat. [truth] is the ground truth the monitoring
    oracle judges this request's decision against. *)
type req = { context : Asp.Program.t; truth : Policy.Decision.t }

let subject_id = Policy.Attribute.subject "id"
let triples = Array.of_list (Workloads.Xacml_logs.request_space ())

let req_of ~triple ~user =
  let r = triples.(triple) in
  {
    context =
      Policy.Request.to_context
        (Policy.Request.bind subject_id
           (Policy.Attribute.Str ("u" ^ string_of_int user))
           r);
    truth = Workloads.Xacml_logs.ground_truth_decision r;
  }

let random_req rng ~users =
  let triple = Random.State.int rng (Array.length triples) in
  req_of ~triple ~user:(Random.State.int rng users)

(** A sampler over [0, n) with P(rank k) proportional to 1/(k+1). *)
let zipf rng n =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. float_of_int (k + 1));
    cdf.(k) <- !acc
  done;
  let total = !acc in
  fun () ->
    let x = Random.State.float rng total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) > x then hi := mid else lo := mid + 1
    done;
    !lo

let flip = function
  | Policy.Decision.Permit -> Policy.Decision.Deny
  | Policy.Decision.Deny -> Policy.Decision.Permit
  | d -> d

(** The XACML loop's monitoring oracle: denying is always safe, a permit
    is valid only where the ground truth permits. *)
let valid ~truth = function
  | "deny" -> true
  | "permit" -> Policy.Decision.equal truth Policy.Decision.Permit
  | _ -> false

let same_decision (a : Serve.Decision.t) (b : Serve.Decision.t) =
  Serve.Decision.equal
    { a with Serve.Decision.compliant = None }
    { b with Serve.Decision.compliant = None }

(** The decision the PDP semantics give for a list of valid options: the
    first one, else the last option as a flagged fail-safe. *)
let decision_of_valid valid =
  {
    Serve.Decision.chosen =
      (match valid with c :: _ -> c | [] -> List.hd (List.rev options));
    valid_options = valid;
    fallback_used = valid = [];
    compliant = None;
  }

let same_hypothesis (a : Ilp.Task.hypothesis) (b : Ilp.Task.hypothesis) =
  List.equal
    (fun (x : Ilp.Hypothesis_space.candidate)
         (y : Ilp.Hypothesis_space.candidate) ->
      x.prod_id = y.prod_id && Asg.Annotation.equal_rule x.rule y.rule)
    a b

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.0

(* ---- passes ----------------------------------------------------------- *)

(** One measured pass over a workload's fixed request sequence, from the
    same starting state every time. *)
type pass = {
  wall : float;  (** seconds *)
  latencies : float array;  (** per request as the caller sees it, s *)
  relearn_at : int list;  (** indices of the requests that relearned *)
  compliant : int;  (** decisions the oracle judged valid *)
  errors : int;  (** requests that raised *)
  alloc_words : float;  (** Gc.minor_words over the pass *)
  peak_heap_mb : float;  (** process peak once the pass ended *)
  counts : (string * int) list;
      (** behaviour counts that must repeat exactly for a seed *)
}

(** Set up, then run [pass] on the set-up state repeatedly for [seconds]
    of wall time, at least once, with a full major collection before each
    pass so that every pass starts from a comparable heap. Set-up runs
    [setups] times in all: once before the passes, the rest between them,
    spread evenly over the measured time so that set-up times sample the
    same spells of machine speed as the passes. Returns the state, the
    passes and the set-up times. *)
let measure ~seconds ~setups ~setup pass =
  let times = ref [] in
  let timed_setup () =
    Gc.full_major ();
    let t0 = now () in
    let s = setup () in
    times := (now () -. t0) :: !times;
    s
  in
  let state = timed_setup () in
  let t_start = now () in
  let due () =
    let done_ = List.length !times in
    done_ < setups
    && (now () -. t_start) /. seconds
       >= float_of_int done_ /. float_of_int setups
  in
  let rec go acc =
    Gc.full_major ();
    let acc = pass state :: acc in
    if due () then ignore (timed_setup ());
    if now () -. t_start < seconds then go acc else List.rev acc
  in
  let passes = go [] in
  while List.length !times < setups do
    ignore (timed_setup ())
  done;
  (state, passes, List.rev !times)

(* ---- metrics ---------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string; note : string }

let metric ?(note = "") name unit value = { name; value; unit; note }

(** The end-to-end metrics of a run, from its passes. On a shared 2-vCPU
    virtual machine the neighbours slow the CPU by up to half, in spells
    from under a second to minutes: within one 30 s run tenant-stream
    passes read from about 40k to 110k requests/s. Every pass replays
    the same requests, so each request is measured once a pass; its
    latency over the run is the fast decile (10th percentile) of those
    measurements, and reads slow only if the neighbours slowed that
    request in nine passes of ten. p50, p99 and the median relearn are
    taken over these per-request latencies. A p99 read per pass moves
    with any spell that covers 1% of the pass: on xacml-steady the fast
    decile of the passes' p99s spread about twice as far from run to run
    as the per-request p99 (see README.md). Throughput is a pass's, at
    the 90th percentile of the passes. A quantile's expected value does
    not depend on how many passes fit in the run, as the fastest or
    slowest pass's would: faster code runs more passes. Set-up time is
    the median of a fixed number of set-ups. Compliance and allocation
    come from the first pass and repeat exactly for a seed. [relearn_ms],
    one median learner time per set-up, replaces the relearning requests
    where a workload learns only during set-up. *)
let end_to_end ?relearn_ms ~setup_times (passes : pass list) =
  let first = List.hd passes in
  let n = Array.length first.latencies in
  let npasses = List.length passes in
  let latency =
    Array.init n (fun i ->
        quantile
          (Array.of_list (List.map (fun p -> p.latencies.(i)) passes))
          0.1)
  in
  let per_request what count =
    Printf.sprintf "%s of %d requests, each the fast decile of its %d passes"
      what count npasses
  in
  let fastest xs = List.fold_left Float.min Float.infinity xs in
  let relearn_ms, relearn_note =
    match relearn_ms with
    | Some xs ->
      ( fastest xs,
        Printf.sprintf "fastest of %d set-ups' median learns" (List.length xs) )
    | None ->
      ( median (List.map (fun i -> latency.(i) *. 1e3) first.relearn_at),
        per_request "median" (List.length first.relearn_at) )
  in
  [
    metric "setup_s" "s" (median setup_times)
      ~note:(Printf.sprintf "median of %d set-ups" (List.length setup_times));
    metric "throughput_rps" "1/s"
      (quantile
         (Array.of_list (List.map (fun p -> float_of_int n /. p.wall) passes))
         0.9)
      ~note:
        (Printf.sprintf "90th percentile of %d passes of %d requests" npasses n);
    metric "latency_p50_us" "us"
      (quantile latency 0.5 *. 1e6)
      ~note:(per_request "p50" n);
    metric "latency_p99_us" "us"
      (quantile latency 0.99 *. 1e6)
      ~note:(per_request "p99" n);
    metric "relearn_p50_ms" "ms" relearn_ms ~note:relearn_note;
    metric "compliance" "ratio"
      (iratio first.compliant n)
      ~note:(Printf.sprintf "%d of %d decisions, first pass" first.compliant n);
    metric "alloc_words_per_req" "words"
      (first.alloc_words /. float_of_int n)
      ~note:"Gc.minor_words, first pass";
    metric "peak_heap_mb" "MB" first.peak_heap_mb
      ~note:"Gc top_heap_words after the first pass";
  ]

(** A run's outcome as main.ml reports it. *)
type report = {
  attempted : int;
  failed : int;
  counts : (string * int) list;
      (** must repeat exactly for a seed; main.ml compares runs *)
  counts_repeat : bool;  (** every pass had the first pass's counts *)
  metrics : metric list;
}

let requests passes =
  List.fold_left (fun acc p -> acc + Array.length p.latencies) 0 passes

let counts_repeat (passes : pass list) =
  let first : pass = List.hd passes in
  List.for_all
    (fun (p : pass) ->
      p.counts = first.counts
      && p.compliant = first.compliant
      && p.relearn_at = first.relearn_at)
    passes

(** The counts of a run: the first pass's plus compliance and allocation,
    which repeat exactly for a seed too. *)
let run_counts (first : pass) extra =
  first.counts
  @ [
      ("compliant", first.compliant);
      ("alloc_words", int_of_float first.alloc_words);
    ]
  @ extra

(* ---- the traced run --------------------------------------------------- *)

let obs_span_count () =
  List.fold_left
    (fun acc (a : Obs.span_agg) -> acc + a.Obs.agg_count)
    0 (Obs.report ()).Obs.r_spans

(** Nanoseconds per no-op [Obs.span], timed from outside. *)
let obs_span_ns () =
  let n = 200_000 in
  let t0 = now () in
  for _ = 1 to n do
    Obs.span "perfbench.noop" ignore
  done;
  (now () -. t0) *. 1e9 /. float_of_int n

(* three, not more: a traced xacml-steady run makes 4 x 2 x [overhead_pairs]
   passes of about 2 s each and must end within 180 s *)
let overhead_pairs = 3

(** The overhead of a gate: [overhead_pairs] back-to-back pairs of an
    untraced pass ([plain]) and a pass with the gate on ([gated]), the
    order alternating from pair to pair, each read as gated wall over
    untraced wall. The median of the pairs' ratios is reported, so a pair
    that straddles a change of machine speed does not set it. *)
let overhead_ratio ~(plain : unit -> pass) ~(gated : unit -> pass) =
  let wall f =
    Gc.full_major ();
    (f ()).wall
  in
  median
    (List.init overhead_pairs (fun i ->
         if i mod 2 = 0 then
           let p = wall plain in
           wall gated /. p
         else
           let g = wall gated in
           g /. wall plain))

let overhead_note what =
  Printf.sprintf "%s; median of %d pass pairs" what overhead_pairs

(** [run] with a gate switched on around it. *)
let gated ~on ~off run () =
  on ();
  Fun.protect run ~finally:off

(** The lib/obs metrics: the overhead ratio of each gate on [run], an
    untraced pass; [spans] Obs spans were counted over [requests]. *)
let obs_metrics ~requests ~spans ~(run : unit -> pass) =
  let overhead ~on ~off = overhead_ratio ~plain:run ~gated:(gated ~on ~off run) in
  let fine =
    overhead
      ~on:(fun () -> Obs.set_detailed true)
      ~off:(fun () -> Obs.set_detailed false)
  in
  let gc =
    overhead
      ~on:(fun () -> Obs.set_gc_stats true)
      ~off:(fun () -> Obs.set_gc_stats false)
  in
  let trace =
    overhead ~on:Obs.Trace.start ~off:(fun () ->
        ignore (Obs.Trace.stop () : Obs.span list))
  in
  [
    metric "obs.trace_overhead_ratio" "ratio" trace
      ~note:(overhead_note "pass wall with Obs.Trace collecting / without");
    metric "obs.spans_per_request" "count" (iratio spans requests)
      ~note:(Printf.sprintf "%d Obs spans over %d requests" spans requests);
    metric "obs.span_ns" "ns" (obs_span_ns ()) ~note:"no-op Obs.span";
    metric "obs.fine_spans_overhead_ratio" "ratio" fine
      ~note:(overhead_note "Obs.set_detailed on / off");
    metric "obs.gc_stats_overhead_ratio" "ratio" gc
      ~note:(overhead_note "Obs.set_gc_stats on / off");
  ]

(** The overhead of the benchmark's own span recorder: [plain] untraced,
    [traced] the same pass as the traced run makes it. The recorded spans
    are dropped. *)
let recorder_metric ~plain ~traced =
  let on () = Recorder.enabled := true in
  let off () =
    Recorder.enabled := false;
    Recorder.reset ()
  in
  metric "bench.recorder_overhead_ratio" "ratio"
    (overhead_ratio ~plain ~gated:(gated ~on ~off traced))
    ~note:(overhead_note "traced pass wall / untraced")

(** The lib/serve metrics, from served (provenance, latency) pairs and the
    statistics of the engines that served them. *)
let serve_metrics ~served ~(stats : Serve.stats list) ~cluster_wall ~requests
    ~coalesced =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let memo_hits = sum (fun s -> s.Serve.decisions.Serve.hits) in
  let memo_lookups = memo_hits + sum (fun s -> s.Serve.decisions.Serve.misses) in
  let ground_hits = sum (fun s -> s.Serve.grounds.Serve.hits) in
  let ground_lookups =
    ground_hits + sum (fun s -> s.Serve.grounds.Serve.misses)
  in
  let engine_s = List.fold_left (fun acc (_, l) -> acc +. l) 0.0 served in
  let by_provenance name prov =
    let xs =
      List.filter_map (fun (p, l) -> if p = prov then Some l else None) served
    in
    metric name "us"
      (if xs = [] then 0.0 else median xs *. 1e6)
      ~note:(Printf.sprintf "median, n=%d" (List.length xs))
  in
  [
    metric "serve.engine_s" "s" engine_s
      ~note:
        (Printf.sprintf "sum of Response.latency, %d responses"
           (List.length served));
    metric "serve.cluster_overhead_s" "s"
      (if cluster_wall > 0.0 then cluster_wall -. engine_s else 0.0)
      ~note:"Cluster.run wall minus serve.engine_s";
    metric "serve.memo_hit_ratio" "ratio"
      (iratio memo_hits memo_lookups)
      ~note:(Printf.sprintf "%d lookups" memo_lookups);
    metric "serve.memo_lookups" "count" (float_of_int memo_lookups);
    metric "serve.ground_hit_ratio" "ratio"
      (iratio ground_hits ground_lookups)
      ~note:(Printf.sprintf "%d lookups" ground_lookups);
    metric "serve.ground_lookups" "count" (float_of_int ground_lookups);
    by_provenance "serve.memo_hit_us" "memo";
    by_provenance "serve.ground_hit_us" "ground";
    by_provenance "serve.cold_us" "cold";
    metric "serve.delta_grounds" "count"
      (float_of_int (sum (fun s -> s.Serve.delta.Serve.delta_grounds)));
    metric "serve.delta_fallbacks" "count"
      (float_of_int (sum (fun s -> s.Serve.delta.Serve.fallbacks)));
    metric "serve.memo_evictions" "count"
      (float_of_int (sum (fun s -> s.Serve.decisions.Serve.evictions)));
    metric "serve.coalesced_ratio" "ratio"
      (iratio coalesced requests)
      ~note:(Printf.sprintf "%d of %d requests" coalesced requests);
  ]
