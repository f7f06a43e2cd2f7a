(* Bechamel micro-benchmarks: one Test.make per core operation, grouped.
   Printed as ns/run estimates (OLS against the run counter). *)

open Bechamel

let cav_gpm = lazy (Workloads.Cav.gpm ())

let learned_gpm =
  lazy
    (let space =
       Ilp.Hypothesis_space.generate (Workloads.Cav.modes ~max_body:2 ())
     in
     let examples =
       Workloads.Cav.examples_of (Workloads.Cav.sample ~seed:42 20)
     in
     match Ilp.Asg_learning.learn ~gpm:(Lazy.force cav_gpm) ~space ~examples () with
     | Some l -> l.Ilp.Asg_learning.gpm
     | None -> Lazy.force cav_gpm)

let scenario = lazy (List.hd (Workloads.Cav.sample ~seed:3 1))

let coloring_program n =
  let edges =
    String.concat " "
      (List.init n (fun i -> Printf.sprintf "edge(%d, %d)." i ((i + 1) mod n)))
  in
  Asp.Parser.parse_program
    (Printf.sprintf
       "node(0..%d). %s col(r). col(g). col(b). 1 { color(N, C) : col(C) } 1 \
        :- node(N). :- edge(X, Y), color(X, C), color(Y, C)."
       (n - 1) edges)

let tests () =
  let solve_prog = coloring_program 6 in
  let ground_prog = coloring_program 8 in
  [
    Test.make ~name:"asp-parse"
      (Staged.stage (fun () ->
           Asp.Parser.parse_program "q(X) :- p(X, Y), not r(Y), X > 3. p(1..5, a)."));
    Test.make ~name:"asp-ground"
      (Staged.stage (fun () -> Asp.Grounder.ground ground_prog));
    Test.make ~name:"asp-solve-6cycle"
      (Staged.stage (fun () -> Asp.Solver.solve solve_prog));
    Test.make ~name:"earley-parse"
      (Staged.stage (fun () ->
           Grammar.Earley.parses_sentence
             (Asg.Gpm.cfg (Lazy.force cav_gpm))
             "accept"));
    Test.make ~name:"asg-membership"
      (Staged.stage (fun () ->
           Asg.Membership.accepts_in_context (Lazy.force learned_gpm)
             ~context:(Workloads.Cav.to_context (Lazy.force scenario))
             "accept"));
    Test.make ~name:"pdp-decide"
      (Staged.stage (fun () ->
           Agenp.Pdp.decide (Lazy.force learned_gpm)
             ~context:(Workloads.Cav.to_context (Lazy.force scenario))
             ~options:[ "accept"; "reject" ]));
  ]

(* Seed (pre-rewrite) ns/run numbers for the same workloads, captured
   before the semi-naive grounder and counter-propagation solver landed.
   They are the committed perf baseline that BENCH_asp.json runs compare
   against; re-capture them only when intentionally re-baselining. *)
let baseline_ns : (string * float) list =
  [
    ("asp-parse", 1045.0);
    ("asp-ground", 111461.0);
    ("asp-solve-6cycle", 842024.0);
    ("earley-parse", 695.0);
    ("asg-membership", 39746.0);
    ("pdp-decide", 78676.0);
  ]

(* BENCH_asp.json's [stats] keys, in order, with the registry entries
   each one reads: a sum of named counters, or the total of a span
   histogram (seconds) for the [_seconds] keys. *)
let stat_counters =
  [
    ("ground_calls", [ "asp.ground.calls" ]);
    ("ground_rules", [ "asp.ground.rules" ]);
    ("possible_atoms", [ "asp.ground.possible_atoms" ]);
    ("delta_rounds", [ "asp.ground.delta_rounds" ]);
    ("join_tuples", [ "asp.ground.join_tuples" ]);
    ("solve_calls", [ "asp.solve.calls" ]);
    ("propagations", [ "asp.solve.propagations" ]);
    ("decisions", [ "asp.solve.decisions" ]);
    ("conflicts", [ "asp.solve.conflicts" ]);
    ("gl_checks", [ "asp.solve.gl_checks" ]);
    ("models_found", [ "asp.solve.models" ]);
    ("hypothesis_evals", [ "ilp.hypothesis_evals"; "asg.hypothesis_evals" ]);
  ]

let stat_spans =
  [ ("ground_seconds", "asp.ground"); ("solve_seconds", "asp.solve") ]

let read_stats () =
  let counter name =
    Option.fold ~none:0 ~some:Obs.Counter.value (Obs.Counter.find name)
  in
  let span name =
    Option.fold ~none:0.0 ~some:Obs.Histogram.total (Obs.Histogram.find name)
  in
  ( List.map
      (fun (key, names) ->
        (key, List.fold_left (fun n c -> n + counter c) 0 names))
      stat_counters,
    List.map (fun (key, name) -> (key, span name)) stat_spans )

(** The engine statistics [f ()] accrues: the before/after difference of
    the registry entries behind each [stats] key. *)
let stats_of f =
  let counts0, seconds0 = read_stats () in
  f ();
  let counts1, seconds1 = read_stats () in
  ( List.map2 (fun (key, a) (_, b) -> (key, a - b)) counts1 counts0,
    List.map2 (fun (key, a) (_, b) -> (key, a -. b)) seconds1 seconds0 )

let stats_to_json (counts, seconds) =
  "{"
  ^ String.concat ", "
      (List.map (fun (key, v) -> Printf.sprintf "\"%s\": %d" key v) counts
      @ List.map (fun (key, v) -> Printf.sprintf "\"%s\": %.6f" key v) seconds)
  ^ "}"

(** Persist the benchmark snapshot (baseline, current run, speedups, and
    one instrumented engine pass) as [BENCH_asp.json] in the working
    directory. Schema documented in EXPERIMENTS.md. *)
let write_snapshot (results : (string * float) list) stats =
  let oc = open_out "BENCH_asp.json" in
  let field (name, ns) = Printf.sprintf "\"%s\": %.0f" name ns in
  let speedup (name, ns) =
    match List.assoc_opt name baseline_ns with
    | Some base when ns > 0.0 -> Some (Printf.sprintf "\"%s\": %.2f" name (base /. ns))
    | _ -> None
  in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"bench-asp/1\",\n\
    \  \"baseline_ns_per_run\": {%s},\n\
    \  \"current_ns_per_run\": {%s},\n\
    \  \"speedup\": {%s},\n\
    \  \"stats\": %s\n\
     }\n"
    (String.concat ", " (List.map field baseline_ns))
    (String.concat ", " (List.map field results))
    (String.concat ", " (List.filter_map speedup results))
    (stats_to_json stats);
  close_out oc

(** Measure every micro-bench for [quota] seconds each (default 0.5),
    [runs] times over (default 5), and return [(name, ns_per_run)] in
    test order, keeping each bench's {e minimum} estimate across runs —
    the shared core of the [--timings] report and the [gate] regression
    check. The min, not the mean: Bechamel's OLS is already robust
    within one run, so what remains is environmental noise (scheduler
    pressure, shared-host contention), which only ever inflates the
    estimate. *)
let measure ?(quota = 0.5) ?(runs = 5) () : (string * float) list =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 1000) ()
  in
  let one_run () =
    let collected = ref [] in
    List.iter
      (fun test ->
        let results = Benchmark.all cfg instances test in
        let analysis =
          Analyze.all ols Toolkit.Instance.monotonic_clock results
        in
        Hashtbl.iter
          (fun name ols_result ->
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] -> collected := (name, est) :: !collected
            | _ -> ())
          analysis)
      (tests ());
    List.rev !collected
  in
  let first = one_run () in
  let best = ref first in
  for _ = 2 to runs do
    let next = one_run () in
    best :=
      List.map
        (fun (name, est) ->
          match List.assoc_opt name next with
          | Some est' -> (name, Float.min est est')
          | None -> (name, est))
        !best
  done;
  !best

(** Measure and persist BENCH_asp.json; returns the measurements. The
    gate's [--rebaseline] uses this directly so baseline capture and
    gate checks share identical measurement conditions (same quota,
    runs, and process state — heap effects from running experiments
    first measurably skew the estimates). *)
let snapshot ?quota ?runs () =
  let collected = measure ?quota ?runs () in
  (* one instrumented pass over the benchmark workloads, so the counters
     describe exactly what the numbers above measured *)
  let stats =
    stats_of (fun () ->
        ignore (Asp.Grounder.ground (coloring_program 8));
        ignore (Asp.Solver.solve (coloring_program 6)))
  in
  write_snapshot collected stats;
  (collected, stats)

let run () =
  Fmt.pr "@.==================================================@.";
  Fmt.pr "TIMINGS  Bechamel micro-benchmarks (ns/run, OLS)@.";
  Fmt.pr "==================================================@.";
  let collected, stats = snapshot () in
  List.iter
    (fun (name, est) -> Fmt.pr "%-20s %12.0f ns/run@." name est)
    collected;
  Fmt.pr "@.engine statistics (one asp-ground + one asp-solve pass):@.";
  let counts, seconds = stats in
  List.iter (fun (key, v) -> Fmt.pr "%-20s %12d@." key v) counts;
  List.iter (fun (key, v) -> Fmt.pr "%-20s %12.4f@." key v) seconds;
  Fmt.pr "@.snapshot written to BENCH_asp.json@.";
  List.iter
    (fun (name, est) ->
      match List.assoc_opt name baseline_ns with
      | Some base when est > 0.0 ->
        Fmt.pr "%-20s %12.2fx vs baseline@." name (base /. est)
      | _ -> ())
    collected
