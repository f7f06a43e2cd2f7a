(* Tests for the observability substrate: span nesting and ordering,
   counter/histogram aggregation, sink delivery, Chrome trace export
   (emitted JSON is parsed back with a small JSON reader), and a qcheck
   property tying the aggregate report to the raw span durations. *)

(* ---- deterministic clock ---------------------------------------------- *)

(* A fake clock the tests advance by hand; [tick] moves time forward. *)
let time = ref 0.0
let tick dt = time := !time +. dt

let with_fake_clock f =
  Obs.reset ();
  Obs.set_detailed false;
  time := 0.0;
  Obs.set_clock (fun () -> !time);
  Fun.protect ~finally:Obs.use_default_clock f

(* The JSON reader used to live here; it moved into the library as
   [Obs.Json] so the bench gate can load baselines with it. The export
   round-trip tests below double as its parser tests. *)
module Json = Obs.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---- spans ------------------------------------------------------------- *)

let test_span_nesting () =
  with_fake_clock @@ fun () ->
  let finished = ref [] in
  let sink = { Obs.on_span = (fun sp -> finished := sp :: !finished) } in
  Obs.register_sink sink;
  Fun.protect ~finally:(fun () -> Obs.unregister_sink sink) @@ fun () ->
  Obs.span "outer" (fun () ->
      tick 1.0;
      Obs.span "inner" (fun () -> tick 0.25);
      tick 0.5);
  let spans = List.rev !finished in
  Alcotest.(check (list string))
    "children finish first" [ "inner"; "outer" ]
    (List.map (fun sp -> sp.Obs.sp_name) spans);
  let inner = List.hd spans and outer = List.nth spans 1 in
  Alcotest.(check int) "inner depth" 1 inner.Obs.sp_depth;
  Alcotest.(check int) "outer depth" 0 outer.Obs.sp_depth;
  Alcotest.(check (float 1e-9)) "inner duration" 0.25 inner.Obs.sp_dur;
  Alcotest.(check (float 1e-9)) "outer duration" 1.75 outer.Obs.sp_dur;
  Alcotest.(check (float 1e-9)) "inner start" 1.0 inner.Obs.sp_start

let test_span_exception_safety () =
  with_fake_clock @@ fun () ->
  (try
     Obs.span "boom" (fun () ->
         tick 2.0;
         failwith "boom")
   with Failure _ -> ());
  match Obs.Histogram.find "boom" with
  | None -> Alcotest.fail "span not recorded"
  | Some h ->
    Alcotest.(check int) "recorded once" 1 (Obs.Histogram.count h);
    Alcotest.(check (float 1e-9)) "duration recorded" 2.0
      (Obs.Histogram.total h)

let test_span_attrs () =
  with_fake_clock @@ fun () ->
  let captured = ref None in
  let sink = { Obs.on_span = (fun sp -> captured := Some sp) } in
  Obs.register_sink sink;
  Fun.protect ~finally:(fun () -> Obs.unregister_sink sink) @@ fun () ->
  Obs.span ~attrs:[ ("a", "1") ] "with-attrs" (fun () ->
      Obs.set_attr "b" "2");
  match !captured with
  | None -> Alcotest.fail "no span delivered"
  | Some sp ->
    Alcotest.(check (list (pair string string)))
      "attrs in order"
      [ ("a", "1"); ("b", "2") ]
      sp.Obs.sp_attrs

(* attribute formatting is skipped while no sink is registered *)
let test_has_sinks () =
  let before = Obs.has_sinks () in
  let sink = { Obs.on_span = ignore } in
  Obs.register_sink sink;
  Alcotest.(check bool) "a registered sink" true (Obs.has_sinks ());
  Obs.unregister_sink sink;
  Alcotest.(check bool) "back as before" before (Obs.has_sinks ())

let test_fine_span_gating () =
  with_fake_clock @@ fun () ->
  Obs.set_detailed false;
  Obs.fine_span "gated" (fun () -> tick 1.0);
  Alcotest.(check bool) "no histogram when disabled" true
    (match Obs.Histogram.find "gated" with
    | None -> true
    | Some h -> Obs.Histogram.count h = 0);
  Obs.set_detailed true;
  Fun.protect ~finally:(fun () -> Obs.set_detailed false) @@ fun () ->
  Obs.fine_span "gated" (fun () -> tick 1.0);
  match Obs.Histogram.find "gated" with
  | None -> Alcotest.fail "fine span not recorded when enabled"
  | Some h ->
    Alcotest.(check int) "recorded when enabled" 1 (Obs.Histogram.count h)

(* ---- counters and histograms ------------------------------------------ *)

(* Every metric kind keeps its handles in the one find-or-create
   registry: [make] twice returns the same handle, [find] returns it,
   [all ()] is sorted by name, and [Obs.reset ()] zeroes it. *)
let check_kind kind ~make ~find ~all ~name ~feed ~level =
  let b = Printf.sprintf "reg.%s.b" kind in
  let h = make b in
  ignore (make (Printf.sprintf "reg.%s.a" kind));
  Alcotest.(check bool) (kind ^ ": make twice, same handle") true (make b == h);
  Alcotest.(check bool) (kind ^ ": find returns it") true
    (match find b with Some h' -> h' == h | None -> false);
  let names = List.map name (all ()) in
  Alcotest.(check (list string))
    (kind ^ ": all sorted by name")
    (List.sort String.compare names)
    names;
  Alcotest.(check bool) (kind ^ ": all lists it") true (List.mem b names);
  feed h;
  Alcotest.(check bool) (kind ^ ": fed") true (level h > 0);
  Obs.reset ();
  Alcotest.(check int) (kind ^ ": reset zeroes it") 0 (level h)

let test_counters () =
  Obs.reset ();
  let c = Obs.Counter.make "test.counter" in
  Obs.Counter.incr c;
  Obs.Counter.incr c ~by:41;
  Alcotest.(check int) "accumulated" 42 (Obs.Counter.value c);
  (* find-or-create returns the same handle *)
  let c' = Obs.Counter.make "test.counter" in
  Obs.Counter.incr c';
  Alcotest.(check int) "shared handle" 43 (Obs.Counter.value c);
  Obs.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Obs.Counter.value c');
  (* every kind, the counter included, through the same checks *)
  with_fake_clock @@ fun () ->
  check_kind "counter" ~make:Obs.Counter.make ~find:Obs.Counter.find
    ~all:Obs.Counter.all ~name:Obs.Counter.name
    ~feed:(fun c -> Obs.Counter.incr c)
    ~level:Obs.Counter.value;
  check_kind "histogram" ~make:Obs.Histogram.make ~find:Obs.Histogram.find
    ~all:Obs.Histogram.all ~name:Obs.Histogram.name
    ~feed:(fun h -> Obs.Histogram.observe h 1.0)
    ~level:Obs.Histogram.count;
  check_kind "window"
    ~make:(fun n -> Obs.Window.make n)
    ~find:Obs.Window.find ~all:Obs.Window.all ~name:Obs.Window.name
    ~feed:(fun w -> Obs.Window.observe w 1.0)
    ~level:Obs.Window.count;
  check_kind "slo"
    ~make:(fun n -> Obs.Slo.make ~target:0.5 n)
    ~find:Obs.Slo.find ~all:Obs.Slo.all ~name:Obs.Slo.name
    ~feed:(fun s -> Obs.Slo.record s 1.0)
    ~level:(fun s -> (Obs.Slo.status s).Obs.Slo.total);
  check_kind "health"
    ~make:(fun n -> Obs.Health.make n)
    ~find:Obs.Health.find ~all:Obs.Health.all ~name:Obs.Health.name
    ~feed:(fun h -> Obs.Health.observe h true)
    ~level:Obs.Health.observations

let test_histograms () =
  Obs.reset ();
  let h = Obs.Histogram.make "test.histogram" in
  List.iter (Obs.Histogram.observe h) [ 1.0; 3.0; 2.0 ];
  Alcotest.(check int) "count" 3 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "total" 6.0 (Obs.Histogram.total h);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Obs.Histogram.mean h);
  Alcotest.(check (float 1e-9)) "max" 3.0 (Obs.Histogram.max_value h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Obs.Histogram.min_value h);
  Obs.Histogram.reset h;
  Alcotest.(check int) "reset count" 0 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "reset mean" 0.0 (Obs.Histogram.mean h)

(* ---- quantiles --------------------------------------------------------- *)

let alpha = Obs.Histogram.quantile_relative_error

let test_quantiles_basic () =
  Obs.reset ();
  let h = Obs.Histogram.make "test.quantiles" in
  (* 1..100 ms: the q-quantile's exact answer is ceil(q*100)/1000 s *)
  for i = 1 to 100 do
    Obs.Histogram.observe h (float_of_int i /. 1000.0)
  done;
  List.iter
    (fun q ->
      let exact = Float.ceil (q *. 100.0) /. 1000.0 in
      let est = Obs.Histogram.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f %.6f within %.1f%% of %.6f" (q *. 100.0) est
           (alpha *. 100.0) exact)
        true
        (Float.abs (est -. exact) <= (alpha +. 1e-6) *. exact))
    [ 0.5; 0.9; 0.99 ];
  Alcotest.(check (float 1e-9)) "empty histogram quantile" 0.0
    (Obs.Histogram.quantile (Obs.Histogram.make "test.quantiles.empty") 0.5);
  (* non-positive observations land in the zero bucket *)
  let z = Obs.Histogram.make "test.quantiles.zero" in
  Obs.Histogram.observe z 0.0;
  Obs.Histogram.observe z 5.0;
  Alcotest.(check (float 1e-9)) "p25 of {0,5} is the zero bucket" 0.0
    (Obs.Histogram.quantile z 0.25)

(* The satellite property: quantile estimates stay within the log-bucket
   error bound of an exact sorted-list oracle, for arbitrary value sets
   spanning six orders of magnitude. *)
let quantile_bound_prop =
  QCheck.Test.make ~count:200
    ~name:"histogram quantiles within log-bucket error bound"
    QCheck.(list_of_size Gen.(1 -- 200) (int_range 1 1_000_000))
    (fun raw ->
      QCheck.assume (raw <> []);
      Obs.Histogram.reset (Obs.Histogram.make "prop.quantile");
      let h = Obs.Histogram.make "prop.quantile" in
      let values = List.map (fun i -> float_of_int i /. 1000.0) raw in
      List.iter (Obs.Histogram.observe h) values;
      let sorted = List.sort Float.compare values in
      let n = List.length sorted in
      List.for_all
        (fun q ->
          let rank =
            let r = int_of_float (Float.ceil (q *. float_of_int n)) in
            if r < 1 then 1 else if r > n then n else r
          in
          let oracle = List.nth sorted (rank - 1) in
          let est = Obs.Histogram.quantile h q in
          Float.abs (est -. oracle) <= (alpha +. 1e-6) *. oracle)
        [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ])

(* Satellite fix: observes on the same histogram from several domains
   must serialize on the handle's own lock and lose nothing. *)
let test_histogram_domain_safety () =
  Obs.reset ();
  Obs.use_default_clock ();
  let h = Obs.Histogram.make "test.par_observe" in
  let per_domain = 10_000 in
  let worker () =
    for _ = 1 to per_domain do
      Obs.Histogram.observe h 1.0
    done
  in
  let spawned = List.init 3 (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join spawned;
  Alcotest.(check int) "no lost observations" (4 * per_domain)
    (Obs.Histogram.count h);
  Alcotest.(check (float 1e-6)) "exact total" (float_of_int (4 * per_domain))
    (Obs.Histogram.total h);
  Alcotest.(check bool) "quantile of constant stream" true
    (Float.abs (Obs.Histogram.quantile h 0.5 -. 1.0) <= alpha +. 1e-6)

(* ---- GC accounting ------------------------------------------------------ *)

let test_gc_accounting () =
  Obs.reset ();
  Obs.use_default_clock ();
  Obs.set_gc_stats true;
  Fun.protect ~finally:(fun () -> Obs.set_gc_stats false) @@ fun () ->
  let captured = ref None in
  let sink = { Obs.on_span = (fun sp -> captured := Some sp) } in
  Obs.register_sink sink;
  Fun.protect ~finally:(fun () -> Obs.unregister_sink sink) @@ fun () ->
  let sum = ref 0.0 in
  Obs.span "test.gc_span" (fun () ->
      (* enough boxed-float allocation to be unmissable on the minor heap *)
      let a = Array.init 50_000 (fun i -> float_of_int i +. 0.5) in
      Array.iter (fun x -> sum := !sum +. x) a);
  let agg name =
    List.find_opt (fun a -> a.Obs.agg_name = name) (Obs.report ()).Obs.r_spans
  in
  (match agg "test.gc_span" with
  | None -> Alcotest.fail "span missing from report"
  | Some a ->
    Alcotest.(check int) "one span" 1 a.Obs.agg_count;
    Alcotest.(check bool) "minor words summed on the span's histogram" true
      (a.Obs.agg_minor_words > 10_000.0));
  (match !captured with
  | None -> Alcotest.fail "no span delivered"
  | Some sp ->
    Alcotest.(check bool) "gc.minor_words attr present" true
      (List.mem_assoc "gc.minor_words" sp.Obs.sp_attrs);
    Alcotest.(check bool) "gc.major_collections attr present" true
      (List.mem_assoc "gc.major_collections" sp.Obs.sp_attrs));
  (* gate closed: no sums *)
  Obs.set_gc_stats false;
  Obs.span "test.gc_off" (fun () -> ignore (Array.init 1000 Fun.id));
  let no_sums name =
    match agg name with
    | None -> false
    | Some a -> a.Obs.agg_minor_words = 0.0 && a.Obs.agg_major_collections = 0
  in
  Alcotest.(check bool) "no sums when disabled" true (no_sums "test.gc_off");
  (* a reset zeroes the sums with the rest of the histogram *)
  Obs.reset ();
  Obs.span "test.gc_span" (fun () -> ());
  Alcotest.(check bool) "reset zeroes the sums" true (no_sums "test.gc_span")

(* the report surfaces allocation aggregates next to the quantiles *)
let test_report_gc_columns () =
  Obs.reset ();
  Obs.use_default_clock ();
  Obs.set_gc_stats true;
  Fun.protect ~finally:(fun () -> Obs.set_gc_stats false) @@ fun () ->
  Obs.span "test.gc_report" (fun () ->
      ignore (Array.init 50_000 (fun i -> float_of_int i +. 0.5)));
  let r = Obs.report () in
  match
    List.find_opt (fun a -> a.Obs.agg_name = "test.gc_report") r.Obs.r_spans
  with
  | None -> Alcotest.fail "span missing from report"
  | Some a ->
    Alcotest.(check bool) "agg minor words" true (a.Obs.agg_minor_words > 0.0);
    let json = Json.parse (Obs.report_to_json r) in
    let gc =
      Json.(member "gc" (member "test.gc_report" (member "spans" json)))
    in
    Alcotest.(check bool) "json minor words" true
      (Json.(to_num (member "minor_words" gc)) > 0.0);
    let text = Obs.report_to_string r in
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec at i =
        i + nn <= nh && (String.sub hay i nn = needle || at (i + 1))
      in
      at 0
    in
    Alcotest.(check bool) "table grows alloc columns" true
      (contains text "minor(w)")

(* ---- structured logging ------------------------------------------------- *)

let test_log_jsonl () =
  with_fake_clock @@ fun () ->
  let path = Filename.temp_file "obs_log" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.close_file ();
      Obs.Log.set_level Obs.Log.Warn;
      Obs.Log.set_stderr_threshold (Some Obs.Log.Warn);
      Sys.remove path)
  @@ fun () ->
  Obs.Log.set_stderr_threshold None;
  Obs.Log.open_file path;
  Obs.Log.set_level Obs.Log.Debug;
  tick 1.5;
  Obs.span "test.logged_span" (fun () ->
      Obs.Log.warn ~attrs:[ ("k", "v \"q\"") ] "inside");
  Obs.Log.set_level Obs.Log.Warn;
  Obs.Log.info "filtered out";
  Obs.Log.error "outside";
  Obs.Log.close_file ();
  let lines =
    String.split_on_char '\n' (String.trim (read_file path))
    |> List.map Json.parse
  in
  Alcotest.(check int) "info below threshold dropped" 2 (List.length lines);
  let first = List.hd lines in
  Alcotest.(check string) "level" "warn" Json.(to_str (member "level" first));
  Alcotest.(check string) "msg" "inside" Json.(to_str (member "msg" first));
  Alcotest.(check string) "span context" "test.logged_span"
    Json.(to_str (member "span" first));
  Alcotest.(check (float 1e-9)) "depth" 1.0
    Json.(to_num (member "depth" first));
  Alcotest.(check (float 1e-9)) "fake-clock timestamp" 1.5
    Json.(to_num (member "ts" first));
  Alcotest.(check string) "attr escaped" "v \"q\""
    Json.(to_str (member "k" (member "attrs" first)));
  let second = List.nth lines 1 in
  Alcotest.(check string) "error kept" "error"
    Json.(to_str (member "level" second));
  (* outside any span the context is null *)
  Alcotest.(check bool) "span null outside spans" true
    (Json.member "span" second = Json.Null)

let test_log_levels () =
  Obs.Log.set_level Obs.Log.Warn;
  Alcotest.(check bool) "debug disabled at warn" false
    (Obs.Log.enabled Obs.Log.Debug);
  Alcotest.(check bool) "error enabled at warn" true
    (Obs.Log.enabled Obs.Log.Error);
  Obs.Log.set_level Obs.Log.Debug;
  Alcotest.(check bool) "debug enabled at debug" true
    (Obs.Log.enabled Obs.Log.Debug);
  Obs.Log.set_level Obs.Log.Warn

(* ---- trace collection and Chrome export ------------------------------- *)

let test_chrome_trace_roundtrip () =
  with_fake_clock @@ fun () ->
  Obs.Trace.clear ();
  Obs.Trace.start ();
  Obs.span "asp.ground" (fun () ->
      tick 0.001;
      Obs.span ~attrs:[ ("k", "v \"quoted\"") ] "asp.ground.delta" (fun () ->
          tick 0.002));
  Obs.span "ilp.learn" (fun () -> tick 0.003);
  let spans = Obs.Trace.stop () in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let path = Filename.temp_file "obs_test" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Trace.write_chrome path spans;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let json = Json.parse (String.trim text) in
  let events = Json.(to_list (member "traceEvents" json)) in
  (* one metadata event + one complete event per span *)
  Alcotest.(check int) "event count" 4 (List.length events);
  let complete =
    List.filter (fun e -> Json.(to_str (member "ph" e)) = "X") events
  in
  let names = List.map (fun e -> Json.(to_str (member "name" e))) complete in
  Alcotest.(check (list string))
    "names in start order"
    [ "asp.ground"; "asp.ground.delta"; "ilp.learn" ]
    names;
  let cats = List.map (fun e -> Json.(to_str (member "cat" e))) complete in
  Alcotest.(check (list string)) "layer categories" [ "asp"; "asp"; "ilp" ] cats;
  let delta = List.nth complete 1 in
  Alcotest.(check (float 1e-6)) "ts is relative microseconds" 1000.0
    Json.(to_num (member "ts" delta));
  Alcotest.(check (float 1e-6)) "dur in microseconds" 2000.0
    Json.(to_num (member "dur" delta));
  (* the escaped attribute survives the round-trip *)
  Alcotest.(check string) "attr escaped" "v \"quoted\""
    Json.(to_str (member "k" (member "args" delta)))

let test_trace_limit () =
  with_fake_clock @@ fun () ->
  Obs.Trace.clear ();
  Obs.Trace.set_limit 2;
  Fun.protect ~finally:(fun () -> Obs.Trace.set_limit 1_000_000) @@ fun () ->
  Obs.Trace.start ();
  for _ = 1 to 5 do
    Obs.span "tiny" (fun () -> tick 0.1)
  done;
  let spans = Obs.Trace.stop () in
  Alcotest.(check int) "capped" 2 (List.length spans);
  Alcotest.(check int) "dropped counted" 3 (Obs.Trace.dropped ())

(* ---- flamegraph exporters ---------------------------------------------- *)

(* A small two-root trace with known self-times:
     a (4ms total: 1ms self before b, then b for 2ms, then 1ms self)
     a;b (2ms)
     a again (1ms)
   Folded self-times: "a" 1+1+1 = 3ms, "a;b" 2ms. *)
let sample_trace () =
  Obs.Trace.clear ();
  Obs.Trace.start ();
  Obs.span "a" (fun () ->
      tick 0.001;
      Obs.span "b" (fun () -> tick 0.002);
      tick 0.001);
  Obs.span "a" (fun () -> tick 0.001);
  Obs.Trace.stop ()

let test_folded_export () =
  with_fake_clock @@ fun () ->
  let spans = sample_trace () in
  Alcotest.(check string) "folded self-time stacks" "a 3000\na;b 2000\n"
    (Obs.Trace.to_folded spans);
  let path = Filename.temp_file "obs_folded" ".folded" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Trace.write_folded path spans;
  Alcotest.(check string) "file matches in-memory form"
    (Obs.Trace.to_folded spans) (read_file path)

let test_speedscope_export () =
  with_fake_clock @@ fun () ->
  let spans = sample_trace () in
  let json = Json.parse (Obs.Trace.to_speedscope_json spans) in
  Alcotest.(check string) "schema"
    "https://www.speedscope.app/file-format-schema.json"
    Json.(to_str (member "$schema" json));
  let frames = Json.(to_list (member "frames" (member "shared" json))) in
  let frame_names =
    List.map (fun f -> Json.(to_str (member "name" f))) frames
  in
  Alcotest.(check (list string)) "frames deduplicated" [ "a"; "b" ] frame_names;
  let profiles = Json.(to_list (member "profiles" json)) in
  Alcotest.(check int) "single-domain trace, one profile" 1
    (List.length profiles);
  let p = List.hd profiles in
  Alcotest.(check string) "evented profile" "evented"
    Json.(to_str (member "type" p));
  Alcotest.(check string) "unit seconds" "seconds"
    Json.(to_str (member "unit" p));
  let events = Json.(to_list (member "events" p)) in
  (* three spans -> three O/C pairs, balanced and non-decreasing in time *)
  Alcotest.(check int) "event count" 6 (List.length events);
  let depth = ref 0 and last_at = ref neg_infinity and ok = ref true in
  List.iter
    (fun e ->
      let at = Json.(to_num (member "at" e)) in
      if at < !last_at then ok := false;
      last_at := at;
      (match Json.(to_str (member "type" e)) with
      | "O" -> incr depth
      | "C" -> decr depth
      | _ -> ok := false);
      if !depth < 0 then ok := false)
    events;
  Alcotest.(check bool) "events balanced and monotone" true
    (!ok && !depth = 0);
  Alcotest.(check (float 1e-9)) "profile spans the whole trace" 0.005
    Json.(to_num (member "endValue" p))

(* ---- aggregate report -------------------------------------------------- *)

let test_report () =
  with_fake_clock @@ fun () ->
  Obs.span "w.a" (fun () -> tick 1.0);
  Obs.span "w.a" (fun () -> tick 3.0);
  Obs.Counter.incr (Obs.Counter.make "w.count") ~by:7;
  let r = Obs.report () in
  (match List.find_opt (fun a -> a.Obs.agg_name = "w.a") r.Obs.r_spans with
  | None -> Alcotest.fail "span missing from report"
  | Some a ->
    Alcotest.(check int) "count" 2 a.Obs.agg_count;
    Alcotest.(check (float 1e-9)) "total" 4.0 a.Obs.agg_total;
    Alcotest.(check (float 1e-9)) "mean" 2.0 a.Obs.agg_mean;
    Alcotest.(check (float 1e-9)) "max" 3.0 a.Obs.agg_max);
  Alcotest.(check (option int)) "counter present" (Some 7)
    (List.assoc_opt "w.count" r.Obs.r_counters);
  (* the rendered report and its JSON form mention both entries *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  let text = Obs.report_to_string r in
  Alcotest.(check bool) "text has span" true (contains text "w.a");
  Alcotest.(check bool) "text has counter" true (contains text "w.count");
  let json = Json.parse (Obs.report_to_json r) in
  Alcotest.(check (float 1e-9)) "json total" 4.0
    Json.(to_num (member "total_s" (member "w.a" (member "spans" json))));
  Alcotest.(check (float 1e-9)) "json counter" 7.0
    Json.(to_num (member "w.count" (member "counters" json)))

(* The engine's named counters move with the work they name: one
   [Solver.solve] of a two-model program grounds once, solves once and
   finds two models. *)
let test_stats_view () =
  Obs.reset ();
  let names = [ "asp.ground.calls"; "asp.solve.calls"; "asp.solve.models" ] in
  let values () =
    List.map (fun n -> Obs.Counter.value (Obs.Counter.make n)) names
  in
  let before = values () in
  let p = Asp.Parser.parse_program "a :- not b. b :- not a." in
  let models = Asp.Solver.solve p in
  Alcotest.(check int) "two models" 2 (List.length models);
  Alcotest.(check (list int))
    "ground calls, solve calls, models move by 1, 1, 2" [ 1; 1; 2 ]
    (List.map2 ( - ) (values ()) before);
  Alcotest.(check int) "one asp.ground span" 1
    (Obs.Histogram.count (Obs.Histogram.make "asp.ground"))

(* ---- qcheck: report totals equal the sum of span durations ------------ *)

let report_totals_prop =
  QCheck.Test.make ~count:100
    ~name:"report per-span totals = sum of span durations"
    QCheck.(small_list (pair (int_bound 3) (int_range 1 1000)))
    (fun spans ->
      with_fake_clock @@ fun () ->
      let name_of i = Printf.sprintf "prop.s%d" i in
      List.iter
        (fun (name_idx, dur_ms) ->
          Obs.span (name_of name_idx) (fun () ->
              tick (float_of_int dur_ms /. 1000.0)))
        spans;
      let r = Obs.report () in
      List.for_all
        (fun idx ->
          let expected =
            List.fold_left
              (fun acc (i, d) ->
                if i = idx then acc +. (float_of_int d /. 1000.0) else acc)
              0.0 spans
          and count = List.length (List.filter (fun (i, _) -> i = idx) spans) in
          match
            List.find_opt (fun a -> a.Obs.agg_name = name_of idx) r.Obs.r_spans
          with
          | None -> count = 0
          | Some a ->
            a.Obs.agg_count = count
            && Float.abs (a.Obs.agg_total -. expected) < 1e-9)
        [ 0; 1; 2; 3 ])

(* Regression for the default clock: a span around a real sleep must
   measure elapsed wall-clock time. The old [Sys.time] default counted
   CPU time, under which a sleeping span reads ~0. *)
let test_default_clock_is_wall_clock () =
  Obs.reset ();
  Obs.use_default_clock ();
  let seen = ref None in
  let sink = { Obs.on_span = (fun s -> seen := Some s) } in
  Obs.register_sink sink;
  Fun.protect
    ~finally:(fun () -> Obs.unregister_sink sink)
    (fun () -> Obs.span "test.sleep" (fun () -> Unix.sleepf 0.05));
  match !seen with
  | None -> Alcotest.fail "span not delivered"
  | Some s ->
    Alcotest.(check bool)
      (Printf.sprintf "sleep of 0.05s measured as %.4fs" s.Obs.sp_dur)
      true
      (s.Obs.sp_dur >= 0.04)

(* ---- rolling windows ---------------------------------------------------- *)

(* Slot-granular expiry under a hand-advanced clock: window 10 s in
   5 slots of 2 s, so an observation expires once its slot's epoch
   falls out of the last 5. *)
let test_window_expiry () =
  with_fake_clock @@ fun () ->
  let w = Obs.Window.make ~slots:5 ~window:10.0 "test.window" in
  Obs.Window.observe w 1.0;
  tick 4.0;
  Obs.Window.observe w 2.0;
  Alcotest.(check int) "both inside the window" 2 (Obs.Window.count w);
  Alcotest.(check (float 1e-9)) "total over live slots" 3.0
    (Obs.Window.total w);
  Alcotest.(check (float 1e-9)) "rate = count / window" 0.2
    (Obs.Window.rate w);
  tick 7.0;
  (* t = 11: the t = 0 slot is 5 epochs old and gone, t = 4 is live *)
  Alcotest.(check int) "old slot expired" 1 (Obs.Window.count w);
  Alcotest.(check (float 1e-9)) "expired value left the total" 2.0
    (Obs.Window.total w);
  tick 20.0;
  Alcotest.(check int) "everything expired" 0 (Obs.Window.count w);
  Alcotest.(check (float 1e-9)) "empty window quantile" 0.0
    (Obs.Window.quantile w 0.5)

(* The satellite property: windowed quantiles match an exact sorted
   oracle (within the shared log-bucket error bound) when every
   observation is still inside the window — the fake clock advances
   less than the window span in total. *)
let window_oracle_prop =
  QCheck.Test.make ~count:100
    ~name:"window quantiles match a sorted oracle on a synthetic clock"
    QCheck.(
      list_of_size Gen.(1 -- 100)
        (pair (int_range 1 1_000_000) (int_bound 300)))
    (fun raw ->
      QCheck.assume (raw <> []);
      with_fake_clock @@ fun () ->
      let w = Obs.Window.make ~window:60.0 "prop.window" in
      let values =
        List.map
          (fun (v, dt_ms) ->
            tick (float_of_int dt_ms /. 1000.0);
            let v = float_of_int v /. 1000.0 in
            Obs.Window.observe w v;
            v)
          raw
      in
      let sorted = List.sort Float.compare values in
      let n = List.length sorted in
      Obs.Window.count w = n
      && List.for_all
           (fun q ->
             let rank =
               let r = int_of_float (Float.ceil (q *. float_of_int n)) in
               if r < 1 then 1 else if r > n then n else r
             in
             let oracle = List.nth sorted (rank - 1) in
             let est = Obs.Window.quantile w q in
             Float.abs (est -. oracle) <= (alpha +. 1e-6) *. oracle)
           [ 0.25; 0.5; 0.9; 0.99 ])

let test_slo_burn () =
  with_fake_clock @@ fun () ->
  let slo = Obs.Slo.make ~objective:0.9 ~window:60.0 ~target:0.1 "test.slo" in
  (* idle: fully compliant, nothing burned *)
  let idle = Obs.Slo.status slo in
  Alcotest.(check (float 1e-9)) "idle compliance" 1.0 idle.Obs.Slo.compliance;
  Alcotest.(check (float 1e-9)) "idle burn" 0.0 idle.Obs.Slo.burn_rate;
  (* 18 in-target + 2 breaches with a 10% budget = burning at exactly
     the sustainable pace *)
  for _ = 1 to 18 do
    Obs.Slo.record slo 0.05
  done;
  for _ = 1 to 2 do
    Obs.Slo.record slo 0.5
  done;
  let st = Obs.Slo.status slo in
  Alcotest.(check int) "total" 20 st.Obs.Slo.total;
  Alcotest.(check int) "breaches" 2 st.Obs.Slo.breaches;
  Alcotest.(check int) "windowed total" 20 st.Obs.Slo.window_total;
  Alcotest.(check (float 1e-6)) "compliance" 0.9 st.Obs.Slo.compliance;
  Alcotest.(check (float 1e-6)) "burn rate" 1.0 st.Obs.Slo.burn_rate;
  Alcotest.(check (float 1e-6)) "budget spent exactly" 0.0
    st.Obs.Slo.budget_remaining;
  (* the window forgets; cumulative totals do not *)
  tick 120.0;
  let later = Obs.Slo.status slo in
  Alcotest.(check int) "window empty after expiry" 0
    later.Obs.Slo.window_total;
  Alcotest.(check (float 1e-9)) "compliant when idle again" 1.0
    later.Obs.Slo.compliance;
  Alcotest.(check int) "cumulative breaches survive" 2 later.Obs.Slo.breaches

(* ---- trace context ------------------------------------------------------ *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let test_trace_context () =
  Alcotest.(check bool) "roots unique" true
    (Obs.Trace_context.new_root_id () <> Obs.Trace_context.new_root_id ());
  Alcotest.(check (option string)) "no ambient context" None
    (Obs.Trace_context.current ());
  Obs.Trace_context.with_id "t-1" (fun () ->
      Alcotest.(check (option string)) "installed" (Some "t-1")
        (Obs.Trace_context.current ());
      let child = Obs.Trace_context.child_id () in
      Alcotest.(check bool)
        (Printf.sprintf "child %s extends parent" child)
        true
        (starts_with ~prefix:"t-1." child);
      Obs.Trace_context.with_opt None (fun () ->
          Alcotest.(check (option string)) "with_opt None masks" None
            (Obs.Trace_context.current ())));
  Alcotest.(check (option string)) "restored after with_id" None
    (Obs.Trace_context.current ());
  (* scope: fresh root at an entry point, reused inside one *)
  Obs.Trace_context.scope (fun id ->
      Alcotest.(check bool) "scope roots an id" true (id <> "");
      Alcotest.(check (option string)) "scope installs it" (Some id)
        (Obs.Trace_context.current ());
      Obs.Trace_context.scope (fun inner ->
          Alcotest.(check string) "nested scope reuses the ambient id" id
            inner));
  (* a child without any context is itself a root *)
  Alcotest.(check bool) "orphan child is a root" true
    (Obs.Trace_context.child_id () <> "")

(* spans finished under a context carry it as a "trace" attribute; spans
   outside any context stay attribute-free *)
let test_span_trace_attr () =
  with_fake_clock @@ fun () ->
  let captured = ref None in
  let sink = { Obs.on_span = (fun sp -> captured := Some sp) } in
  Obs.register_sink sink;
  Fun.protect ~finally:(fun () -> Obs.unregister_sink sink) @@ fun () ->
  Obs.Trace_context.with_id "t-attr" (fun () ->
      Obs.span "test.traced" (fun () -> ()));
  (match !captured with
  | None -> Alcotest.fail "no span delivered"
  | Some sp ->
    Alcotest.(check (option string)) "trace attr carries the id"
      (Some "t-attr")
      (List.assoc_opt "trace" sp.Obs.sp_attrs));
  Obs.span "test.untraced" (fun () -> ());
  match !captured with
  | None -> Alcotest.fail "no span delivered"
  | Some sp ->
    Alcotest.(check (option string)) "no trace attr outside a context" None
      (List.assoc_opt "trace" sp.Obs.sp_attrs)

(* ---- OpenMetrics exposition --------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let test_openmetrics_render () =
  with_fake_clock @@ fun () ->
  Obs.Counter.incr (Obs.Counter.make "om.count") ~by:3;
  Obs.span "om.span" (fun () -> tick 0.25);
  let w = Obs.Window.make "om.window" in
  Obs.Window.observe w 0.5;
  let slo = Obs.Slo.make ~target:0.1 "om.slo" in
  Obs.Slo.record slo 0.2;
  let text =
    Obs.Openmetrics.render ~extra:[ ("om.gauge", [ ("k", "v") ], 7.0) ] ()
  in
  List.iter
    (fun (what, needle) ->
      Alcotest.(check bool) (what ^ ": " ^ needle) true (contains text needle))
    [
      ("counter type", "# TYPE agenp_om_count counter");
      ("counter sample", "agenp_om_count_total 3");
      ("summary type", "# TYPE agenp_om_span_seconds summary");
      ("summary quantile", "agenp_om_span_seconds{quantile=\"0.5\"}");
      ("summary count", "agenp_om_span_seconds_count 1");
      ( "window quantile gauge",
        "agenp_om_window_window_seconds{quantile=\"0.5\",window=\"30s\"}" );
      ("window count gauge", "agenp_om_window_window_count{window=\"30s\"} 1");
      ( "slo compliance",
        "agenp_slo_om_slo_compliance{target=\"0.1\",objective=\"0.99\"}" );
      ( "slo breach counter",
        "agenp_slo_om_slo_breaches_total{target=\"0.1\",objective=\"0.99\"} 1" );
      ("gc gauge", "# TYPE agenp_gc_minor_words gauge");
      ("extra gauge", "agenp_om_gauge{k=\"v\"} 7");
    ];
  let eof = "# EOF\n" in
  Alcotest.(check string) "terminated by # EOF" eof
    (String.sub text (String.length text - String.length eof)
       (String.length eof));
  Alcotest.(check string) "names sanitized"
    "agenp_serve_cache_hit_rate"
    (Obs.Openmetrics.metric "serve.cache-hit rate")

(* ---- policy-health detectors -------------------------------------------- *)

(* Rolling and overall rates, per-version tallies, and reset. *)
let test_health_rates () =
  with_fake_clock @@ fun () ->
  let h = Obs.Health.make "health.rates" in
  (* 20 observations: versions 1 and 2, half positive under v2 *)
  for i = 1 to 10 do
    Obs.Health.observe ~version:1 h false;
    Obs.Health.observe ~version:2 h (i mod 2 = 0)
  done;
  Alcotest.(check int) "observations" 20 (Obs.Health.observations h);
  Alcotest.(check int) "positives" 5 (Obs.Health.positives h);
  Alcotest.(check (float 1e-9)) "overall rate" 0.25 (Obs.Health.overall_rate h);
  Alcotest.(check (float 1e-9)) "rolling rate" 0.25 (Obs.Health.rate h);
  (match Obs.Health.version_rates h with
  | [ (1, n1, r1); (2, n2, r2) ] ->
    Alcotest.(check int) "v1 observations" 10 n1;
    Alcotest.(check (float 1e-9)) "v1 rate" 0.0 r1;
    Alcotest.(check int) "v2 observations" 10 n2;
    Alcotest.(check (float 1e-9)) "v2 rate" 0.5 r2
  | other ->
    Alcotest.failf "expected two version rows, got %d" (List.length other));
  Alcotest.(check bool) "find" true (Obs.Health.find "health.rates" <> None);
  Obs.Health.reset h;
  Alcotest.(check int) "reset observations" 0 (Obs.Health.observations h);
  Alcotest.(check (float 1e-9)) "reset rate" 0.0 (Obs.Health.rate h);
  Alcotest.(check int) "reset versions" 0
    (List.length (Obs.Health.version_rates h))

(* The rolling window forgets old observations: 50 positives then 50
   negatives leaves a window-rate of 0 while the overall rate is 0.5. *)
let test_health_window_forgets () =
  with_fake_clock @@ fun () ->
  let h = Obs.Health.make "health.window" in
  for _ = 1 to 50 do
    Obs.Health.observe h true
  done;
  for _ = 1 to 50 do
    Obs.Health.observe h false
  done;
  Alcotest.(check (float 1e-9)) "window rate" 0.0 (Obs.Health.rate h);
  Alcotest.(check (float 1e-9)) "overall rate" 0.5 (Obs.Health.overall_rate h)

(* The bounded event ring: capacity caps retention, [last] trims, the
   total counts expired events, and sequence numbers stay global. *)
let test_health_ring () =
  with_fake_clock @@ fun () ->
  Fun.protect ~finally:(fun () -> Obs.Health.set_ring_capacity 256)
  @@ fun () ->
  Obs.Health.set_ring_capacity 4;
  let seqs evs = List.map (fun e -> e.Obs.Health.ev_seq) evs in
  for i = 0 to 5 do
    ignore
      (Obs.Health.emit ~signal:"ring.sig" ~kind:"relearn"
         ~detail:(string_of_int i) ()
        : Obs.Health.event)
  done;
  Alcotest.(check int) "events_total" 6 (Obs.Health.events_total ());
  Alcotest.(check (list int))
    "ring keeps newest, oldest first" [ 2; 3; 4; 5 ]
    (seqs (Obs.Health.events ()));
  Alcotest.(check (list int))
    "last trims" [ 4; 5 ]
    (seqs (Obs.Health.events ~last:2 ()));
  Obs.Health.clear_events ();
  Alcotest.(check int) "cleared" 0 (List.length (Obs.Health.events ()))

(* Events survive the JSON line format: to_json |> of_json is the
   identity, and write_jsonl/read_jsonl round-trips a whole ring. *)
let test_health_jsonl_roundtrip () =
  with_fake_clock @@ fun () ->
  tick 12.5;
  ignore
    (Obs.Health.emit ~gpm_version:3 ~observations:42 ~baseline:0.1
       ~current:0.65 ~deviation:2.31 ~old_size:4 ~new_size:6
       ~detail:"violation_rate:updated" ~signal:"padap.relearn"
       ~kind:"relearn" ()
      : Obs.Health.event);
  ignore
    (Obs.Health.emit ~signal:"pep.noncompliance" ~kind:"rate_shift" ()
      : Obs.Health.event);
  let evs = Obs.Health.events () in
  List.iter
    (fun e ->
      Alcotest.(check bool) "to_json |> of_json is the identity" true
        (Obs.Health.event_of_json (Obs.Health.event_to_json e) = e))
    evs;
  let path = Filename.temp_file "obs_health" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Health.write_jsonl path evs;
  Alcotest.(check bool) "file round-trip" true (Obs.Health.read_jsonl path = evs)

(* A hard 0 -> 1 rate shift alarms within a handful of observations,
   and the alarm carries a structured rate_shift event. *)
let test_health_detects_shift () =
  with_fake_clock @@ fun () ->
  let h = Obs.Health.make "health.shift" in
  for _ = 1 to 40 do
    Obs.Health.observe ~version:7 h false
  done;
  Alcotest.(check int) "quiet before the shift" 0 (Obs.Health.alarms h);
  let detected_after = ref 0 in
  (try
     for i = 1 to 10 do
       Obs.Health.observe ~version:7 h true;
       if Obs.Health.alarms h > 0 then begin
         detected_after := i;
         raise Exit
       end
     done
   with Exit -> ());
  Alcotest.(check bool)
    (Printf.sprintf "alarm within 10 observations (fired after %d)"
       !detected_after)
    true
    (!detected_after >= 1 && !detected_after <= 10);
  match
    List.find_opt
      (fun e -> e.Obs.Health.ev_signal = "health.shift")
      (Obs.Health.events ())
  with
  | None -> Alcotest.fail "no rate_shift event in the ring"
  | Some e ->
    Alcotest.(check string) "kind" "rate_shift" e.Obs.Health.ev_kind;
    Alcotest.(check int) "gpm version" 7 e.Obs.Health.ev_gpm_version;
    Alcotest.(check bool) "PH statistic above lambda" true
      (e.Obs.Health.ev_deviation > Obs.Health.default_config.ph_lambda);
    Alcotest.(check int) "observation count on the event"
      (40 + !detected_after) e.Obs.Health.ev_observations

(* qcheck: a periodic stationary stream (one positive every k) never
   alarms, whatever the period or length. *)
let health_stationary_prop =
  QCheck.Test.make ~count:100 ~name:"health: no alarm on stationary stream"
    QCheck.(pair (int_range 2 20) (int_range 50 300))
    (fun (period, len) ->
      with_fake_clock @@ fun () ->
      let h = Obs.Health.make "prop.stationary" in
      for i = 0 to len - 1 do
        Obs.Health.observe h (i mod period = 0)
      done;
      Obs.Health.alarms h = 0)

(* qcheck: after any quiet prefix, a sustained 0 -> 1 shift is caught
   within 10 observations. *)
let health_detection_delay_prop =
  QCheck.Test.make ~count:100 ~name:"health: bounded detection delay"
    QCheck.(int_range 10 100)
    (fun quiet ->
      with_fake_clock @@ fun () ->
      let h = Obs.Health.make "prop.delay" in
      for _ = 1 to quiet do
        Obs.Health.observe h false
      done;
      let delay = ref 0 in
      (try
         for i = 1 to 10 do
           Obs.Health.observe h true;
           if Obs.Health.alarms h > 0 then begin
             delay := i;
             raise Exit
           end
         done
       with Exit -> ());
      !delay >= 1 && !delay <= 10)

(* qcheck: determinism under [set_clock] across pool sizes. Four
   signals each consume the same observation stream; whether the
   streams run on 1, 2, or 4 domains, every signal's final rates,
   alarm count, and ring events are identical. *)
let health_domain_determinism_prop =
  let snapshot names =
    let signal name =
      match Obs.Health.find name with
      | None -> Alcotest.failf "signal %s vanished" name
      | Some h ->
        ( name,
          Obs.Health.observations h,
          Obs.Health.positives h,
          Obs.Health.alarms h,
          Obs.Health.rate h )
    in
    let events =
      Obs.Health.events ()
      |> List.map (fun e ->
             Obs.Health.
               ( e.ev_signal,
                 e.ev_kind,
                 e.ev_observations,
                 e.ev_ts,
                 e.ev_current ))
      |> List.sort compare
    in
    (List.map signal names, events)
  in
  QCheck.Test.make ~count:15
    ~name:"health: deterministic across domains 1/2/4"
    QCheck.(list_of_size (QCheck.Gen.int_range 20 120) bool)
    (fun stream ->
      let names = List.init 4 (fun i -> Printf.sprintf "det.s%d" i) in
      let run degree =
        with_fake_clock @@ fun () ->
        let feed name =
          let h = Obs.Health.make name in
          List.iter (fun b -> Obs.Health.observe h b) stream
        in
        let chunks =
          (* partition the 4 signals round-robin over [degree] domains *)
          List.init degree (fun d ->
              List.filteri (fun i _ -> i mod degree = d) names)
        in
        (match chunks with
        | [] -> ()
        | mine :: others ->
          let spawned =
            List.map
              (fun chunk -> Domain.spawn (fun () -> List.iter feed chunk))
              others
          in
          List.iter feed mine;
          List.iter Domain.join spawned);
        snapshot names
      in
      let s1 = run 1 in
      run 2 = s1 && run 4 = s1)

(* Parallel spans: counters from many domains aggregate exactly, and
   each span records the domain it ran on. *)
let test_domain_safety () =
  Obs.reset ();
  Obs.use_default_clock ();
  let c = Obs.Counter.make "test.par_incrs" in
  let domains = ref [] in
  let sink =
    { Obs.on_span = (fun s -> domains := s.Obs.sp_domain :: !domains) }
  in
  Obs.register_sink sink;
  Fun.protect
    ~finally:(fun () -> Obs.unregister_sink sink)
    (fun () ->
      let worker () =
        for _ = 1 to 1000 do
          Obs.Counter.incr c
        done;
        Obs.span "test.par_span" (fun () -> ())
      in
      let spawned = List.init 3 (fun _ -> Domain.spawn worker) in
      worker ();
      List.iter Domain.join spawned);
  Alcotest.(check int) "atomic increments" 4000 (Obs.Counter.value c);
  Alcotest.(check int) "one span per domain" 4 (List.length !domains);
  Alcotest.(check bool) "main domain recorded" true (List.mem 0 !domains)

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
          Alcotest.test_case "attributes" `Quick test_span_attrs;
          Alcotest.test_case "sink predicate" `Quick test_has_sinks;
          Alcotest.test_case "fine span gating" `Quick test_fine_span_gating;
          Alcotest.test_case "wall clock" `Quick test_default_clock_is_wall_clock;
          Alcotest.test_case "domain safety" `Quick test_domain_safety;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "histograms" `Quick test_histograms;
          Alcotest.test_case "quantiles" `Quick test_quantiles_basic;
          Alcotest.test_case "concurrent observes" `Quick
            test_histogram_domain_safety;
          QCheck_alcotest.to_alcotest quantile_bound_prop;
        ] );
      ( "gc",
        [
          Alcotest.test_case "span accounting" `Quick test_gc_accounting;
          Alcotest.test_case "report columns" `Quick test_report_gc_columns;
        ] );
      ( "log",
        [
          Alcotest.test_case "jsonl sink" `Quick test_log_jsonl;
          Alcotest.test_case "level thresholds" `Quick test_log_levels;
        ] );
      ( "trace",
        [
          Alcotest.test_case "chrome JSON round-trip" `Quick
            test_chrome_trace_roundtrip;
          Alcotest.test_case "span cap" `Quick test_trace_limit;
          Alcotest.test_case "folded stacks" `Quick test_folded_export;
          Alcotest.test_case "speedscope JSON" `Quick test_speedscope_export;
        ] );
      ( "report",
        [
          Alcotest.test_case "aggregation" `Quick test_report;
          Alcotest.test_case "stats view" `Quick test_stats_view;
          QCheck_alcotest.to_alcotest report_totals_prop;
        ] );
      ( "windows",
        [
          Alcotest.test_case "slot expiry" `Quick test_window_expiry;
          QCheck_alcotest.to_alcotest window_oracle_prop;
          Alcotest.test_case "slo burn accounting" `Quick test_slo_burn;
        ] );
      ( "trace-context",
        [
          Alcotest.test_case "ids, nesting, masking" `Quick test_trace_context;
          Alcotest.test_case "span trace attribute" `Quick
            test_span_trace_attr;
        ] );
      ( "openmetrics",
        [
          Alcotest.test_case "exposition shapes" `Quick
            test_openmetrics_render;
        ] );
      ( "health",
        [
          Alcotest.test_case "rates and versions" `Quick test_health_rates;
          Alcotest.test_case "window forgets" `Quick
            test_health_window_forgets;
          Alcotest.test_case "event ring" `Quick test_health_ring;
          Alcotest.test_case "jsonl round-trip" `Quick
            test_health_jsonl_roundtrip;
          Alcotest.test_case "detects rate shift" `Quick
            test_health_detects_shift;
          QCheck_alcotest.to_alcotest health_stationary_prop;
          QCheck_alcotest.to_alcotest health_detection_delay_prop;
          QCheck_alcotest.to_alcotest health_domain_determinism_prop;
        ] );
    ]
