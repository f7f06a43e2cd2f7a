(* The bench regression gate: re-run the Bechamel micro-benches and
   compare against the committed BENCH_asp.json snapshot, plus re-check
   the BENCH_par.json outcome-identity invariant. Exit codes:

     0  every bench within tolerance and par outcomes identical
     1  at least one regression (or identity violation)
     2  missing/malformed baseline file or bad arguments

   The committed [current_ns_per_run] numbers are the baseline here:
   they are what the container measured when the snapshot was taken, so
   "current > committed * (1 + tolerance)" means the code got slower
   since. ([baseline_ns_per_run] in the same file is the *pre-rewrite*
   seed the speedup table is computed against — not what we gate on.) *)

let usage =
  "usage: bench gate [--tolerance F] [--quota SEC] [--runs N] \
   [--baseline-asp FILE] [--baseline-par FILE] [--baseline-serve FILE] \
   [--baseline-serve2 FILE] [--baseline-drift FILE] [--skip-par] \
   [--skip-serve] [--skip-serve2] [--skip-drift] [--rebaseline]"

type opts = {
  tolerance : float;  (** allowed fractional slowdown, default 0.15 *)
  quota : float;  (** Bechamel seconds per bench per run, default 0.5 *)
  runs : int;  (** measurement repetitions, per-bench min kept *)
  baseline_asp : string;
  baseline_par : string;
  baseline_serve : string;
  baseline_serve2 : string;
  baseline_drift : string;
  skip_par : bool;
  skip_serve : bool;
  skip_serve2 : bool;
  skip_drift : bool;
  rebaseline : bool;  (** re-capture BENCH_asp.json instead of checking *)
}

let default_opts =
  {
    tolerance = 0.15;
    quota = 0.5;
    runs = 5;
    baseline_asp = "BENCH_asp.json";
    baseline_par = "BENCH_par.json";
    baseline_serve = "BENCH_serve.json";
    baseline_serve2 = "BENCH_serve2.json";
    baseline_drift = "BENCH_drift.json";
    skip_par = false;
    skip_serve = false;
    skip_serve2 = false;
    skip_drift = false;
    rebaseline = false;
  }

exception Bad_args of string

let parse_args args =
  let rec go o = function
    | [] -> o
    | "--tolerance" :: v :: rest -> (
      match float_of_string_opt v with
      | Some f when f >= 0.0 -> go { o with tolerance = f } rest
      | _ -> raise (Bad_args ("bad --tolerance: " ^ v)))
    | "--quota" :: v :: rest -> (
      match float_of_string_opt v with
      | Some f when f > 0.0 -> go { o with quota = f } rest
      | _ -> raise (Bad_args ("bad --quota: " ^ v)))
    | "--runs" :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> go { o with runs = n } rest
      | _ -> raise (Bad_args ("bad --runs: " ^ v)))
    | "--baseline-asp" :: v :: rest -> go { o with baseline_asp = v } rest
    | "--baseline-par" :: v :: rest -> go { o with baseline_par = v } rest
    | "--baseline-serve" :: v :: rest -> go { o with baseline_serve = v } rest
    | "--baseline-serve2" :: v :: rest ->
      go { o with baseline_serve2 = v } rest
    | "--baseline-drift" :: v :: rest -> go { o with baseline_drift = v } rest
    | "--skip-par" :: rest -> go { o with skip_par = true } rest
    | "--skip-serve" :: rest -> go { o with skip_serve = true } rest
    | "--skip-serve2" :: rest -> go { o with skip_serve2 = true } rest
    | "--skip-drift" :: rest -> go { o with skip_drift = true } rest
    | "--rebaseline" :: rest -> go { o with rebaseline = true } rest
    | a :: _ -> raise (Bad_args ("unknown argument: " ^ a))
  in
  go default_opts args

let read_json path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Obs.Json.parse s

(* load the committed snapshot's per-bench numbers, checking the schema
   tag so a stale or foreign file fails loudly instead of gating against
   garbage *)
let load_asp_baseline path : (string * float) list =
  let j = read_json path in
  (match Obs.Json.(to_str (member "schema" j)) with
  | "bench-asp/1" -> ()
  | other -> failwith (Printf.sprintf "unexpected schema %S" other));
  match Obs.Json.member "current_ns_per_run" j with
  | Obs.Json.Obj kvs -> List.map (fun (k, v) -> (k, Obs.Json.to_num v)) kvs
  | _ -> failwith "current_ns_per_run is not an object"

let load_par_identical path : bool =
  let j = read_json path in
  (match Obs.Json.(to_str (member "schema" j)) with
  | "bench-par/1" -> ()
  | other -> failwith (Printf.sprintf "unexpected schema %S" other));
  Obs.Json.(to_bool (member "identical_outcome" j))

(* the committed serve snapshot: the cached-equals-uncached invariant and
   the warm decision-cache hit rate (which must be strictly positive —
   a snapshot whose caches never hit measured nothing). Both snapshot
   generations load: bench-serve/2 adds the incremental-grounding delta
   section, whose ns_per_ground the gate re-measures and compares under
   the tolerance, and whose delta grounds must not be zero when given (a
   cold workload that grounded nothing has no ns per ground). The
   ground-tier rate and delta section are optional only in bench-serve/1
   files predating them. *)
let load_serve_baseline path :
    bool * float * float option * (int option * float) option =
  let j = read_json path in
  (match Obs.Json.(to_str (member "schema" j)) with
  | "bench-serve/1" | "bench-serve/2" -> ()
  | other -> failwith (Printf.sprintf "unexpected schema %S" other));
  ( Obs.Json.(to_bool (member "identical_outcome" j)),
    Obs.Json.(to_num (member "hit_rate" (member "decision_cache" j))),
    Obs.Json.(
      Option.map (fun g -> to_num (member "hit_rate" g))
        (member_opt "ground_cache" j)),
    Obs.Json.(
      Option.map
        (fun d ->
          ( Option.map
              (fun g -> int_of_float (to_num g))
              (member_opt "grounds" d),
            to_num (member "ns_per_ground" d) ))
        (member_opt "delta" j)) )

(* the committed multi-tenant serve snapshot: the cluster must have
   matched the sequential single-shard path bit-for-bit, routed every
   response to its tenant's shard, actually coalesced duplicate work,
   and never invalidated across tenants. Per-shard tier rates ride
   along for the zero-hit check. *)
let load_serve2_baseline path :
    bool * bool * int * int * (string * float * float) list =
  let j = read_json path in
  (match Obs.Json.(to_str (member "schema" j)) with
  | "bench-serve2/1" -> ()
  | other -> failwith (Printf.sprintf "unexpected schema %S" other));
  let shards =
    match Obs.Json.member "shards" j with
    | Obs.Json.Obj kvs ->
      List.map
        (fun (tenant, v) ->
          ( tenant,
            Obs.Json.(to_num (member "decision_hit_rate" v)),
            Obs.Json.(to_num (member "ground_hit_rate" v)) ))
        kvs
    | _ -> failwith "shards is not an object"
  in
  ( Obs.Json.(to_bool (member "identical_outcome" j)),
    Obs.Json.(to_bool (member "shard_provenance" j)),
    Obs.Json.(int_of_float (to_num (member "coalesced" j))),
    Obs.Json.(int_of_float (to_num (member "cross_tenant_invalidations" j))),
    shards )

(* the committed drift snapshot: the detector must have caught the
   injected mutation, raised nothing on the stationary control, and the
   serve path must have stayed outcome-identical *)
let load_drift_baseline path : bool * int * int * bool =
  let j = read_json path in
  (match Obs.Json.(to_str (member "schema" j)) with
  | "bench-drift/1" -> ()
  | other -> failwith (Printf.sprintf "unexpected schema %S" other));
  ( Obs.Json.(to_bool (member "detected" j)),
    Obs.Json.(int_of_float (to_num (member "false_alarms_on_stationary" j))),
    Obs.Json.(int_of_float (to_num (member "detection_latency_requests" j))),
    Obs.Json.(to_bool (member "identical_outcome" j)) )

let rebaseline o =
  Fmt.pr "bench gate: re-capturing BENCH_asp.json (quota %.2fs, min of %d \
          run(s))@."
    o.quota o.runs;
  let collected, _ = Timings.snapshot ~quota:o.quota ~runs:o.runs () in
  List.iter
    (fun (name, est) -> Fmt.pr "%-20s %12.0f ns/run@." name est)
    collected;
  Fmt.pr "bench gate: snapshot written to BENCH_asp.json@.";
  0

let run args =
  match
    let o = parse_args args in
    if o.rebaseline then `Rebaseline o
    else
      let baseline = load_asp_baseline o.baseline_asp in
      let par_baseline_ok =
        if o.skip_par then None else Some (load_par_identical o.baseline_par)
      in
      let serve_baseline =
        if o.skip_serve then None
        else Some (load_serve_baseline o.baseline_serve)
      in
      let serve2_baseline =
        if o.skip_serve2 then None
        else Some (load_serve2_baseline o.baseline_serve2)
      in
      let drift_baseline =
        if o.skip_drift then None
        else Some (load_drift_baseline o.baseline_drift)
      in
      `Check
        ( o,
          baseline,
          par_baseline_ok,
          serve_baseline,
          serve2_baseline,
          drift_baseline )
  with
  | exception Bad_args msg ->
    Fmt.epr "bench gate: %s@.%s@." msg usage;
    2
  | exception Sys_error msg ->
    Fmt.epr "bench gate: %s@." msg;
    2
  | exception Obs.Json.Parse_error msg ->
    Fmt.epr "bench gate: bad baseline: %s@." msg;
    2
  | exception Failure msg ->
    Fmt.epr "bench gate: bad baseline: %s@." msg;
    2
  | `Rebaseline o -> rebaseline o
  | `Check
      ( o,
        baseline,
        par_baseline_ok,
        serve_baseline,
        serve2_baseline,
        drift_baseline ) ->
    Fmt.pr
      "bench gate: %d bench(es), tolerance %.0f%%, quota %.2fs, min of %d \
       run(s)@."
      (List.length baseline) (o.tolerance *. 100.0) o.quota o.runs;
    let current = Timings.measure ~quota:o.quota ~runs:o.runs () in
    let regressions = ref 0 in
    let missing = ref 0 in
    List.iter
      (fun (name, base) ->
        match List.assoc_opt name current with
        | None ->
          incr missing;
          Fmt.pr "%-20s %12.0f ns baseline, no current measurement  MISSING@."
            name base
        | Some cur ->
          let ratio = if base > 0.0 then cur /. base else infinity in
          let regressed = cur > base *. (1.0 +. o.tolerance) in
          if regressed then incr regressions;
          Fmt.pr "%-20s %12.0f ns -> %10.0f ns (%.2fx)  %s@." name base cur
            ratio
            (if regressed then "REGRESSION" else "ok"))
      baseline;
    let par_ok =
      match par_baseline_ok with
      | None ->
        Fmt.pr "par: skipped@.";
        true
      | Some committed ->
        if not committed then begin
          Fmt.pr "par: committed snapshot has identical_outcome=false  FAIL@.";
          false
        end
        else begin
          let identical = Experiments.par_outcomes_identical () in
          Fmt.pr "par: outcome identity at 1 vs 2 domains: %s@."
            (if identical then "identical" else "DIFFERENT");
          identical
        end
    in
    let serve_ok =
      match serve_baseline with
      | None ->
        Fmt.pr "serve: skipped@.";
        true
      | Some
          ( committed_identical,
            committed_hit_rate,
            committed_ground_rate,
            committed_delta ) ->
        if not committed_identical then begin
          Fmt.pr
            "serve: committed snapshot has identical_outcome=false  FAIL@.";
          false
        end
        else if committed_hit_rate <= 0.0 then begin
          Fmt.pr
            "serve: committed snapshot has warm hit rate 0 — caches never \
             engaged  FAIL@.";
          false
        end
        else begin
          let committed_ground_ok =
            match committed_ground_rate with
            | Some r when r <= 0.0 ->
              Fmt.pr
                "serve: committed snapshot has ground tier rate 0 — the \
                 core cache never engaged  FAIL@.";
              false
            | Some r ->
              Fmt.pr "serve: committed snapshot tier rates: decision %.2f, \
                      ground %.2f@."
                committed_hit_rate r;
              true
            | None ->
              Fmt.pr "serve: committed snapshot predates per-tier rates \
                      (decision %.2f only)@."
                committed_hit_rate;
              true
          in
          let identical, decision_rate, ground_rate =
            Experiments.serve_cached_identical ()
          in
          Fmt.pr
            "serve: cached vs uncached decisions: %s (decision tier %.2f, \
             ground tier %.2f)@."
            (if identical then "identical" else "DIFFERENT")
            decision_rate ground_rate;
          (* a zero-hit tier is fatal since the incremental grounder
             landed: context-independent cores mean even the quick
             differential's distinct contexts must hit the ground tier,
             and the memo must absorb its repeats *)
          List.iter
            (fun (tier, rate) ->
              if rate <= 0.0 then
                Fmt.pr "serve: %s tier never hit on the quick \
                        differential  FAIL@."
                  tier)
            [ ("decision", decision_rate); ("ground", ground_rate) ];
          (* the delta section's ns_per_ground gates like the asp
             benches: re-measure, hold it to the same tolerance and count
             a slowdown with their regressions, not as unsoundness. A
             cold workload that did no delta ground measured nothing,
             which is unsound, not a ratio. *)
          let delta_ok =
            match committed_delta with
            | None ->
              Fmt.pr "serve: committed snapshot predates the delta section \
                      (ns_per_ground not gated)@.";
              true
            | Some (Some 0, _) ->
              Fmt.pr "serve: committed snapshot's cold workload did no \
                      delta ground  FAIL@.";
              false
            | Some (_, base) -> (
              match Experiments.serve_ground_ns () with
              | None ->
                Fmt.pr "serve: cold workload did no delta ground  FAIL@.";
                false
              | Some cur ->
                let ratio = if base > 0.0 then cur /. base else infinity in
                let regressed = cur > base *. (1.0 +. o.tolerance) in
                if regressed then incr regressions;
                Fmt.pr
                  "serve: ns_per_ground %12.0f ns -> %10.0f ns (%.2fx)  %s@."
                  base cur ratio
                  (if regressed then "REGRESSION" else "ok");
                true)
          in
          committed_ground_ok && identical && decision_rate > 0.0
          && ground_rate > 0.0 && delta_ok
        end
    in
    let serve2_ok =
      match serve2_baseline with
      | None ->
        Fmt.pr "serve2: skipped@.";
        true
      | Some (identical, provenance, coalesced, invalidations, shards) ->
        let problems =
          List.filter_map Fun.id
            [
              (if identical then None
               else Some "cluster not outcome-identical to the single-shard \
                          path");
              (if provenance then None
               else Some "responses misrouted (shard_provenance=false)");
              (if coalesced > 0 then None
               else Some "no duplicate work coalesced (coalesced=0)");
              (if invalidations = 0 then None
               else
                 Some
                   (Printf.sprintf "%d cross-tenant invalidation(s)"
                      invalidations));
            ]
          @ List.filter_map
              (fun (tenant, d, g) ->
                if d <= 0.0 || g <= 0.0 then
                  Some
                    (Printf.sprintf
                       "shard %s has a zero-hit tier (decision %.2f, ground \
                        %.2f)"
                       tenant d g)
                else None)
              shards
        in
        (match problems with
        | [] ->
          Fmt.pr
            "serve2: committed snapshot: %d shard(s) outcome-identical, %d \
             coalesced, 0 cross-tenant invalidations@."
            (List.length shards) coalesced
        | ps -> List.iter (fun p -> Fmt.pr "serve2: %s  FAIL@." p) ps);
        problems = []
    in
    let drift_ok =
      match drift_baseline with
      | None ->
        Fmt.pr "drift: skipped@.";
        true
      | Some (detected, false_alarms, latency, identical) ->
        let problems =
          List.filter_map Fun.id
            [
              (if detected then None
               else Some "mutation not detected (detected=false)");
              (if false_alarms = 0 then None
               else
                 Some
                   (Printf.sprintf "%d false alarm(s) on the stationary \
                                    control"
                      false_alarms));
              (if latency >= 1 then None
               else Some "detection latency missing or non-positive");
              (if identical then None
               else Some "serve path not outcome-identical");
            ]
        in
        (match problems with
        | [] ->
          Fmt.pr
            "drift: committed snapshot: detected at latency %d, 0 false \
             alarms, outcomes identical@."
            latency
        | ps -> List.iter (fun p -> Fmt.pr "drift: %s  FAIL@." p) ps);
        problems = []
    in
    if !missing > 0 then begin
      Fmt.epr "bench gate: %d baseline bench(es) have no current \
               counterpart — stale baseline?@."
        !missing;
      2
    end
    else if
      !regressions > 0 || not par_ok || not serve_ok || not serve2_ok
      || not drift_ok
    then begin
      Fmt.pr "bench gate: FAIL (%d regression(s) beyond %.0f%%%s%s%s%s)@."
        !regressions (o.tolerance *. 100.0)
        (if par_ok then "" else "; par outcomes differ")
        (if serve_ok then "" else "; serve caches unsound")
        (if serve2_ok then "" else "; multi-tenant serving unsound")
        (if drift_ok then "" else "; drift detection unsound");
      1
    end
    else begin
      Fmt.pr "bench gate: PASS@.";
      0
    end
