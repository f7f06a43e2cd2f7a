(* The end-to-end benchmark of the AGENP stack.

     main.exe --workload W --seed N --seconds S --trace 0|1

   runs one workload from a single process at one domain, with inputs
   generated from the seed before timing. With --trace 0 it measures
   passes for S seconds and prints the end-to-end metrics; with --trace 1
   it runs an untraced pass, pairs of untraced and gated passes for the
   tracing overheads, and one traced pass, replays the traced pass
   through each layer's public functions and prints the per-layer
   metrics. Both check the outputs outside the timed region. The last
   line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
   with the metrics this workload exercises; run.py checks them against
   BENCHMARK.json. Traces and count records go to perfbench/_out/. *)

let workloads = [ "xacml-steady"; "xacml-drift"; "tenant-stream" ]
let out_dir = Filename.concat "perfbench" "_out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

(* Counts must repeat exactly for a seed: compare with the record the
   previous run of this workload, seed and mode left, then replace it. *)
let compare_counts ~workload ~seed ~trace counts =
  ensure_out_dir ();
  let path =
    Filename.concat out_dir
      (Printf.sprintf "counts-%s-seed%d-trace%d.txt" workload seed
         (Bool.to_int trace))
  in
  let line =
    String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counts)
  in
  let previous =
    if Sys.file_exists path then Some (In_channel.with_open_text path In_channel.input_all)
    else None
  in
  Out_channel.with_open_text path (fun oc -> output_string oc line);
  match previous with
  | None -> Printf.printf "counts: %s (first run of this seed)\n" line
  | Some p when String.equal p line ->
    Printf.printf "counts: %s (repeat the previous run)\n" line
  | Some p ->
    Printf.printf "counts: %s\n" line;
    Printf.printf "FLAG: counts differ from the previous run of this seed: %s\n" p;
    Printf.eprintf "perfbench: FLAG: behaviour counts changed for seed %d\n" seed

let print_trace_tables ~workload ~seed =
  ensure_out_dir ();
  let base = Filename.concat out_dir (Printf.sprintf "%s-seed%d" workload seed) in
  Recorder.write_folded (base ^ ".folded");
  Recorder.write_spans (base ^ ".spans.tsv");
  Printf.printf "\nlayer self time (benchmark-recorded spans)\n";
  Printf.printf "  %-26s %8s %12s %12s\n" "span" "count" "total_s" "self_s";
  List.iter
    (fun (name, (a : Recorder.agg)) ->
      Printf.printf "  %-26s %8d %12.6f %12.6f\n" name a.count a.total a.self)
    (Recorder.aggregate ());
  Printf.printf "folded stacks: %s.folded; spans: %s.spans.tsv\n\n" base base

let json_number name x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith (Printf.sprintf "metric %s is not finite" name)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  let usage =
    "main.exe --workload " ^ String.concat "|" workloads
    ^ " --seed N --seconds S --trace 0|1"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload to run");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured wall time per run");
      ("--trace", Arg.Set_int trace, " 1: traced run with per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workloads) || !trace < 0 || !trace > 1 then begin
    prerr_endline usage;
    exit 2
  end;
  let traced = !trace = 1 in
  let seed = !seed in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n%!" !workload seed
    !seconds !trace;
  let (report : Common.report) =
    match (!workload, traced) with
    | "xacml-steady", false -> Loop.timed_run Loop.Steady ~seed ~seconds:!seconds
    | "xacml-steady", true -> Loop.traced_run Loop.Steady ~seed
    | "xacml-drift", false -> Loop.timed_run Loop.Drift ~seed ~seconds:!seconds
    | "xacml-drift", true -> Loop.traced_run Loop.Drift ~seed
    | _, false -> Tenant.timed_run ~seed ~seconds:!seconds
    | _, true -> Tenant.traced_run ~seed
  in
  let metrics = report.metrics in
  if traced then print_trace_tables ~workload:!workload ~seed;
  List.iter
    (fun (m : Common.metric) ->
      Printf.printf "%-30s %16.6f %-6s %s\n" m.name m.value m.unit m.note)
    metrics;
  compare_counts ~workload:!workload ~seed ~trace:traced report.counts;
  if not report.counts_repeat then
    Printf.printf "FLAG: behaviour counts differ between passes of this run\n";
  Printf.printf "attempted %d, failed %d\n" report.attempted report.failed;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (report.failed = 0 && report.counts_repeat)
    report.attempted report.failed
    (String.concat ", "
       (List.map
          (fun (m : Common.metric) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (json_number m.name m.value) m.unit)
          metrics))
