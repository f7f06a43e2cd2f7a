(* The agenp command-line tool: solve ASP programs, check/generate/learn
   answer set grammars, explain decisions, and drive the AGENP closed
   loop — all from files.

   File formats:
   - ASP programs / contexts: plain ASP text (see lib/asp/parser.ml).
   - Grammars: the ASG syntax of lib/asg/asg_parser.ml.
   - Examples: one per line, [+ sentence | context-program] for positive
     and [- sentence | context-program] for negative (context optional).
   - Hypothesis spaces: one per line, [prod_ids | annotated-rule], e.g.
     [0 | :- result(accept)@1, weather(snow).].
   Blank lines and lines starting with '#' are ignored in both.

   Every subcommand accepts [--trace FILE] (write a Chrome trace_event
   JSON of the run, loadable in chrome://tracing or Perfetto),
   [--flamegraph FILE] (speedscope JSON or folded stacks, by extension),
   [--log FILE] (JSONL structured log at debug level), [--gc-stats]
   (per-span allocation accounting) and [--report] (print the aggregate
   span/counter report on exit). *)

(** A malformed input file; the message carries [path:line:]. *)
exception Cli_input_error of string

let input_error path lineno fmt =
  Printf.ksprintf
    (fun msg ->
      raise (Cli_input_error (Printf.sprintf "%s:%d: %s" path lineno msg)))
    fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(** Lines of [path] with 1-based numbers, blanks and '#' comments
    dropped, leading/trailing whitespace trimmed. *)
let numbered_lines path =
  read_file path
  |> String.split_on_char '\n'
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter (fun (_, line) -> line <> "" && line.[0] <> '#')

(** Parse an embedded ASP fragment, rewrapping engine errors with the
    file position. *)
let parse_asp_at path lineno what text =
  match Asp.Parser.parse_program text with
  | p -> p
  | exception Asp.Parser.Parse_error msg ->
    input_error path lineno "bad %s: %s" what msg
  | exception Asp.Lexer.Lex_error (msg, _) ->
    input_error path lineno "bad %s: %s" what msg

let load_context = function
  | None -> Asp.Program.empty
  | Some path -> Asp.Parser.parse_program (read_file path)

let parse_examples_file path : Ilp.Example.t list =
  numbered_lines path
  |> List.map (fun (lineno, line) ->
         let label, rest =
           match line.[0] with
           | '+' -> (`Pos, String.sub line 1 (String.length line - 1))
           | '-' -> (`Neg, String.sub line 1 (String.length line - 1))
           | _ ->
             input_error path lineno
               "example line must start with '+' or '-': %s" line
         in
         let sentence, ctx =
           match String.index_opt rest '|' with
           | None -> (String.trim rest, "")
           | Some i ->
             ( String.trim (String.sub rest 0 i),
               String.sub rest (i + 1) (String.length rest - i - 1) )
         in
         if sentence = "" then input_error path lineno "empty sentence";
         let context = parse_asp_at path lineno "context program" ctx in
         match label with
         | `Pos -> Ilp.Example.positive ~context sentence
         | `Neg -> Ilp.Example.negative ~context sentence)

let parse_space_file path : Ilp.Hypothesis_space.t =
  numbered_lines path
  |> List.concat_map (fun (lineno, line) ->
         match String.index_opt line '|' with
         | None ->
           input_error path lineno "space line must be 'prods | rule': %s" line
         | Some i ->
           let prods =
             String.sub line 0 i |> String.split_on_char ' '
             |> List.filter_map (fun s ->
                    let s = String.trim s in
                    if s = "" then None
                    else
                      match int_of_string_opt s with
                      | Some n -> Some n
                      | None ->
                        input_error path lineno
                          "production ids must be integers: %s" s)
           in
           let rule =
             String.trim (String.sub line (i + 1) (String.length line - i - 1))
           in
           (* one of_rules call per line so parse errors carry the line *)
           (match Ilp.Hypothesis_space.of_rules [ (rule, prods) ] with
           | space -> space
           | exception Asp.Parser.Parse_error msg ->
             input_error path lineno "bad rule: %s" msg
           | exception Asp.Lexer.Lex_error (msg, _) ->
             input_error path lineno "bad rule: %s" msg))

(* ---- observability ----------------------------------------------------- *)

type obs_opts = {
  trace : string option;
  flamegraph : string option;
  log_file : string option;
  gc_stats : bool;
  report : bool;
  domains : int;
}

(** Run a command body under the requested observability: start trace
    collection (with fine spans) when [--trace] or [--flamegraph] is
    given, open the JSONL structured log for [--log], enable per-span GC
    accounting for [--gc-stats], and emit the trace/flamegraph files and
    aggregate report when the body is done — also on the error path, so
    a failing run still leaves its artifacts behind. Also the single
    place the process-wide parallelism degree ([--domains]) is
    installed, before any library builds the global pool. *)
let with_obs (o : obs_opts) f =
  if o.domains <> Par.Config.domains () then Par.Config.set_domains o.domains;
  if o.trace <> None || o.flamegraph <> None then begin
    Obs.set_detailed true;
    Obs.Trace.start ()
  end;
  if o.gc_stats then Obs.set_gc_stats true;
  (match o.log_file with
  | Some path ->
    Obs.Log.open_file path;
    (* a log file is a request for everything; stderr keeps its
       warn-and-up threshold *)
    Obs.Log.set_level Obs.Log.Debug
  | None -> ());
  let finish () =
    (if o.trace <> None || o.flamegraph <> None then begin
       let spans = Obs.Trace.stop () in
       (match o.trace with
       | Some path ->
         Obs.Trace.write_chrome path spans;
         Fmt.epr "%% trace: %d span(s) -> %s%s@." (List.length spans) path
           (if Obs.Trace.dropped () > 0 then
              Printf.sprintf " (%d dropped)" (Obs.Trace.dropped ())
            else "")
       | None -> ());
       match o.flamegraph with
       | Some path ->
         (* .json gets the speedscope document; anything else the
            flamegraph.pl folded-stacks text *)
         if Filename.check_suffix path ".json" then
           Obs.Trace.write_speedscope path spans
         else Obs.Trace.write_folded path spans;
         Fmt.epr "%% flamegraph: %d span(s) -> %s@." (List.length spans) path
       | None -> ()
     end);
    Obs.Log.close_file ();
    if o.report then Fmt.pr "%s@?" (Obs.report_to_string (Obs.report ()))
  in
  Fun.protect ~finally:finish f

(** Turn input errors into a clean one-line diagnostic (exit code 2)
    instead of an uncaught-exception backtrace. *)
let guard f =
  try f () with
  | Cli_input_error msg | Sys_error msg ->
    Fmt.epr "agenp: %s@." msg;
    2
  | Asp.Parser.Parse_error msg ->
    Fmt.epr "agenp: parse error: %s@." msg;
    2
  | Asp.Lexer.Lex_error (msg, pos) ->
    Fmt.epr "agenp: lex error at offset %d: %s@." pos msg;
    2
  | Asp.Grounder.Unsafe_rule r ->
    Fmt.epr "agenp: unsafe rule: %s@." (Asp.Rule.to_string r);
    2
  | Asp.Grounder.Aggregate_in_rule r ->
    Fmt.epr "agenp: aggregate outside a constraint body: %s@."
      (Asp.Rule.to_string r);
    2

(** [guard] covers the command body; the outer match covers observability
    setup and teardown (an unwritable [--trace]/[--flamegraph]/[--log]
    path raises [Sys_error] outside the body — from [finish] it arrives
    wrapped in [Fun.Finally_raised]). *)
let run obs f =
  match with_obs obs (fun () -> guard f) with
  | code -> code
  | exception (Sys_error msg | Fun.Finally_raised (Sys_error msg)) ->
    Fmt.epr "agenp: %s@." msg;
    2

(* ---- commands --------------------------------------------------------- *)

let solve_cmd obs file models optimal =
  run obs @@ fun () ->
  let program = Asp.Parser.parse_program (read_file file) in
  if optimal then begin
    match Asp.Solver.solve_optimal program with
    | None ->
      Fmt.pr "UNSATISFIABLE@.";
      1
    | Some (ms, cost) ->
      List.iter
        (fun m -> Fmt.pr "Optimal (cost %d): %s@." cost (Asp.Solver.model_to_string m))
        ms;
      0
  end
  else begin
    match Asp.Solver.solve ?limit:models program with
    | [] ->
      Fmt.pr "UNSATISFIABLE@.";
      1
    | ms ->
      List.iteri
        (fun i m -> Fmt.pr "Answer %d: %s@." (i + 1) (Asp.Solver.model_to_string m))
        ms;
      0
  end

let ground_cmd obs file =
  run obs @@ fun () ->
  let program = Asp.Parser.parse_program (read_file file) in
  let gp = Asp.Grounder.ground program in
  List.iter (Fmt.pr "%a@." Asp.Grounder.pp_ground_rule) gp.Asp.Grounder.grules;
  Fmt.pr "%% %d atoms, %d ground rules@."
    (Asp.Grounder.atom_count gp) (Asp.Grounder.size gp);
  0

let check_cmd obs grammar sentence context =
  run obs @@ fun () ->
  let gpm = Asg.Asg_parser.parse (read_file grammar) in
  let context = load_context context in
  if Asg.Membership.accepts_in_context gpm ~context sentence then begin
    Fmt.pr "VALID@.";
    0
  end
  else begin
    Fmt.pr "INVALID@.";
    1
  end

let generate_cmd obs grammar context depth ranked =
  run obs @@ fun () ->
  let gpm = Asg.Asg_parser.parse (read_file grammar) in
  let context = load_context context in
  if ranked then
    List.iter
      (fun (s, c) -> Fmt.pr "%s [cost %d]@." s c)
      (Asg.Language.ranked_sentences_in_context ~max_depth:depth gpm ~context)
  else
    List.iter (Fmt.pr "%s@.")
      (Asg.Language.sentences_in_context ~max_depth:depth gpm ~context);
  0

let learn_cmd obs grammar examples space save max_witnesses =
  run obs @@ fun () ->
  let gpm = Asg.Asg_parser.parse (read_file grammar) in
  let examples = parse_examples_file examples in
  let space = parse_space_file space in
  match Ilp.Asg_learning.learn ~max_witnesses ~gpm ~space ~examples () with
  | None ->
    Fmt.pr "UNSATISFIABLE (no inductive solution)@.";
    1
  | Some learned ->
    (* the truncation warning itself now comes from the learner via
       Obs.Log; the CLI only names the flag that raises the cap *)
    let stats = learned.Ilp.Asg_learning.outcome.Ilp.Learner.stats in
    if stats.Ilp.Learner.truncated > 0 then
      Fmt.epr "%% hint: raise --max-witnesses (currently %d) to recheck@."
        max_witnesses;
    List.iter (Fmt.pr "%s@.") (Ilp.Asg_learning.hypothesis_text learned);
    Fmt.pr "%% cost %d, penalty %d@."
      learned.Ilp.Asg_learning.outcome.Ilp.Learner.cost
      learned.Ilp.Asg_learning.outcome.Ilp.Learner.penalty;
    (match save with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Asg.Asg_parser.render learned.Ilp.Asg_learning.gpm);
      close_out oc;
      Fmt.pr "%% learned grammar written to %s@." path);
    0

let explain_cmd obs grammar sentence context =
  run obs @@ fun () ->
  let gpm = Asg.Asg_parser.parse (read_file grammar) in
  let context = load_context context in
  if Asg.Membership.accepts_in_context gpm ~context sentence then begin
    (match Explain.Why.why gpm ~context sentence with
    | Some m -> Fmt.pr "VALID, witness: %s@." (Asp.Solver.model_to_string m)
    | None -> Fmt.pr "VALID@.");
    0
  end
  else begin
    Fmt.pr "INVALID: %s@."
      (Explain.Why.why_not_to_string (Explain.Why.why_not gpm ~context sentence));
    1
  end

(** Parse a decision-request file: one request per line,
    [opt1 opt2 ... | context-program] with the context optional. *)
let parse_requests_file path : (string list * Asp.Program.t) list =
  numbered_lines path
  |> List.map (fun (lineno, line) ->
         let opts_str, ctx =
           match String.index_opt line '|' with
           | None -> (line, "")
           | Some i ->
             ( String.sub line 0 i,
               String.sub line (i + 1) (String.length line - i - 1) )
         in
         let options =
           String.split_on_char ' ' opts_str
           |> List.filter_map (fun s ->
                  let s = String.trim s in
                  if s = "" then None else Some s)
         in
         if options = [] then input_error path lineno "no options on line";
         let context = parse_asp_at path lineno "context program" ctx in
         (options, context))

(** Serve decision requests from a file through the caching engine.
    Sequential serving prints each decision with its cache provenance
    (deterministic); [--batch] fans the request list across the domain
    pool and prints decisions only, in input order. [--repeat] replays
    the request list, demonstrating the memo warming up.

    The ops-plane flags: [--metrics-port] exposes /metrics over TCP
    while the process runs (plus [--metrics-linger] to stay scrapeable
    after the requests are served), [--metrics-once] prints the
    OpenMetrics snapshot to stdout, [--stats-json] writes the schema'd
    engine statistics, [--audit] exports the decision audit trail as
    JSONL, and [--slo-target]/[--slo-objective]/[--slo-window]
    configure the latency SLO the engine tracks. *)
(* export the global health-event ring as JSONL (mirrors --audit) *)
let write_health_out = function
  | Some path ->
    let events = Obs.Health.events () in
    Obs.Health.write_jsonl path events;
    Fmt.epr "%% health: %d event(s) -> %s@." (List.length events) path
  | None -> ()

let serve_cmd obs grammar requests context repeat stats batch tenants
    queue_depth stats_json audit_out health_out metrics_port metrics_linger
    metrics_once slo_target slo_objective slo_window =
  run obs @@ fun () ->
  if tenants < 1 then
    raise (Cli_input_error "--tenants must be at least 1");
  if queue_depth < 1 then
    raise (Cli_input_error "--queue-depth must be at least 1");
  let gpm = Asg.Asg_parser.parse (read_file grammar) in
  let base = load_context context in
  let reqs =
    parse_requests_file requests
    |> List.map (fun (options, ctx) ->
           Serve.Request.make ~context:(Asp.Program.append base ctx) ~options ())
  in
  let config =
    {
      Serve.Config.default with
      Serve.Config.slo =
        {
          Serve.Config.target = slo_target;
          objective = slo_objective;
          window = slo_window;
        };
    }
  in
  if tenants > 1 then begin
    (* multi-tenant path: one shard per simulated tenant, the request
       stream round-robined across them, served through the cluster's
       flow-controlled ingestion front *)
    let unsupported flag =
      raise
        (Cli_input_error
           (flag ^ " is not supported with --tenants (per-shard state has \
                    no single-engine view)"))
    in
    if batch then unsupported "--batch";
    if stats_json <> None then unsupported "--stats-json";
    if audit_out <> None then unsupported "--audit";
    if metrics_port <> None then unsupported "--metrics-port";
    let names = List.init tenants (fun i -> "t" ^ string_of_int i) in
    let cluster =
      Serve.Cluster.create ~config ~queue_depth
        ~tenants:(List.map (fun n -> (n, gpm)) names)
        ()
    in
    let name_arr = Array.of_list names in
    let tenanted =
      List.mapi
        (fun i (req : Serve.Request.t) ->
          { req with Serve.Request.tenant = name_arr.(i mod tenants) })
        reqs
    in
    for _pass = 1 to repeat do
      List.iter
        (function
          | Serve.Cluster.Served (r : Serve.Response.t) ->
            Fmt.pr "%s [%s %s]@." r.Serve.Response.decision.Serve.Decision.chosen
              r.Serve.Response.shard
              (Serve.provenance_to_string r.Serve.Response.provenance)
          | Serve.Cluster.Rejected reason ->
            Fmt.pr "rejected [%s]@."
              (Serve.Cluster.reject_reason_to_string reason))
        (Serve.Cluster.run cluster tenanted)
    done;
    if stats then begin
      List.iter
        (fun (tenant, s) ->
          Fmt.pr "shard %s:@.%a@." tenant Serve.pp_stats s)
        (Serve.Cluster.stats cluster);
      Fmt.pr "cluster: %d submitted, %d coalesced, %d rejected@."
        (Serve.Cluster.submitted cluster)
        (Serve.Cluster.coalesced cluster)
        (Serve.Cluster.rejected cluster)
    end;
    write_health_out health_out;
    if metrics_once then print_string (Serve.Cluster.openmetrics cluster);
    0
  end
  else begin
  let engine = Serve.create ~config gpm in
  let server =
    Option.map
      (fun port ->
        let s =
          Serve.Metrics.start ~port
            ~render:(fun () -> Serve.openmetrics engine)
            ()
        in
        Fmt.epr "%% metrics: /metrics on port %d@." (Serve.Metrics.port s);
        s)
      metrics_port
  in
  Fun.protect ~finally:(fun () -> Option.iter Serve.Metrics.stop server)
  @@ fun () ->
  for _pass = 1 to repeat do
    if batch then
      List.iter
        (fun (r : Serve.Response.t) ->
          Fmt.pr "%s@." r.Serve.Response.decision.Serve.Decision.chosen)
        (Serve.Batch.run engine reqs)
    else
      List.iter
        (fun req ->
          let r = Serve.decide engine req in
          Fmt.pr "%s [%s]@." r.Serve.Response.decision.Serve.Decision.chosen
            (Serve.provenance_to_string r.Serve.Response.provenance))
        reqs
  done;
  if stats then Fmt.pr "%a@." Serve.pp_stats (Serve.stats engine);
  (match stats_json with
  | Some path ->
    let oc = open_out path in
    output_string oc (Serve.stats_to_json engine);
    output_char oc '\n';
    close_out oc;
    Fmt.epr "%% stats: %s@." path
  | None -> ());
  (match (audit_out, Serve.audit engine) with
  | Some path, Some ring ->
    let records = Serve.Audit.to_list ring in
    Serve.Audit.write_jsonl path records;
    Fmt.epr "%% audit: %d record(s) -> %s@." (List.length records) path
  | Some path, None -> Serve.Audit.write_jsonl path []
  | None, _ -> ());
  write_health_out health_out;
  if metrics_once then print_string (Serve.openmetrics engine);
  (match metrics_linger with
  | Some sec when server <> None ->
    Fmt.epr "%% metrics: lingering %gs@." sec;
    Unix.sleepf sec
  | _ -> ());
  0
  end

(** Query/tail a decision audit trail exported with [serve --audit]. *)
let audit_cmd obs file last trace_filter fallbacks json =
  run obs @@ fun () ->
  let records =
    try Serve.Audit.read_jsonl file
    with Obs.Json.Parse_error msg ->
      raise (Cli_input_error (Printf.sprintf "%s: bad audit JSONL: %s" file msg))
  in
  let records =
    match trace_filter with
    | Some id ->
      List.filter
        (fun (r : Serve.Audit.record) -> String.equal r.trace_id id)
        records
    | None -> records
  in
  let records =
    if fallbacks then
      List.filter (fun (r : Serve.Audit.record) -> r.fallback_used) records
    else records
  in
  let records =
    match last with
    | Some n ->
      let len = List.length records in
      List.filteri (fun i _ -> i >= len - n) records
    | None -> records
  in
  if json then
    List.iter
      (fun r -> Fmt.pr "%s@." (Serve.Audit.record_to_json r))
      records
  else begin
    List.iter
      (fun (r : Serve.Audit.record) ->
        Fmt.pr "%6d %s %s [%s]%s%s %.6fs@." r.seq r.trace_id r.chosen
          r.provenance
          (if r.fallback_used then " fallback" else "")
          (match r.compliant with
          | Some true -> " compliant"
          | Some false -> " violation"
          | None -> "")
          r.latency)
      records;
    Fmt.pr "%% %d record(s)@." (List.length records)
  end;
  0

(** Query a policy-health event trail exported with [--health] (from
    [serve] or [pipeline]): detector rate-shift alarms and PAdaP
    relearn lifecycle events. *)
let health_cmd obs file last since_version json =
  run obs @@ fun () ->
  let events =
    try Obs.Health.read_jsonl file
    with Obs.Json.Parse_error msg ->
      raise
        (Cli_input_error (Printf.sprintf "%s: bad health JSONL: %s" file msg))
  in
  let events =
    match since_version with
    | Some v ->
      List.filter
        (fun (e : Obs.Health.event) -> e.Obs.Health.ev_gpm_version >= v)
        events
    | None -> events
  in
  let events =
    match last with
    | Some n ->
      let len = List.length events in
      List.filteri (fun i _ -> i >= len - n) events
    | None -> events
  in
  if json then
    Fmt.pr "{\"schema\": \"health/1\", \"events\": [%s]}@."
      (String.concat ", " (List.map Obs.Health.event_to_json events))
  else begin
    List.iter
      (fun (e : Obs.Health.event) ->
        Fmt.pr "%6d %-18s %-10s v%-3d n=%-4d %.3f->%.3f (%+.3f)%s@."
          e.Obs.Health.ev_seq e.Obs.Health.ev_signal e.Obs.Health.ev_kind
          e.Obs.Health.ev_gpm_version e.Obs.Health.ev_observations
          e.Obs.Health.ev_baseline e.Obs.Health.ev_current
          e.Obs.Health.ev_deviation
          (if e.Obs.Health.ev_detail = "" then ""
           else " " ^ e.Obs.Health.ev_detail))
      events;
    Fmt.pr "%% %d event(s)@." (List.length events)
  end;
  0

(** Replay requests through an engine and print the rolling-window /
    SLO view of the run — the live-ops counterpart of [serve --stats]. *)
let monitor_cmd obs grammar requests context repeat slo_target slo_objective
    slo_window =
  run obs @@ fun () ->
  let gpm = Asg.Asg_parser.parse (read_file grammar) in
  let base = load_context context in
  let reqs =
    parse_requests_file requests
    |> List.map (fun (options, ctx) ->
           Serve.Request.make ~context:(Asp.Program.append base ctx) ~options ())
  in
  let config =
    {
      Serve.Config.default with
      Serve.Config.slo =
        {
          Serve.Config.target = Some slo_target;
          objective = slo_objective;
          window = slo_window;
        };
    }
  in
  let engine = Serve.create ~config gpm in
  for _pass = 1 to repeat do
    List.iter (fun req -> ignore (Serve.decide engine req)) reqs
  done;
  let s = Serve.stats engine in
  Fmt.pr "served %d request(s): memo rate %.2f, ground rate %.2f@."
    (s.Serve.decisions.Serve.hits + s.Serve.decisions.Serve.misses)
    (Serve.hit_rate s.Serve.decisions)
    (Serve.hit_rate s.Serve.grounds);
  (match Obs.Window.find "serve.decide" with
  | Some w ->
    Fmt.pr
      "window serve.decide (last %.0fs): count %d, rate %.2f/s, p50 %.6fs, \
       p90 %.6fs, p99 %.6fs@."
      (Obs.Window.window_seconds w)
      (Obs.Window.count w) (Obs.Window.rate w)
      (Obs.Window.quantile w 0.50)
      (Obs.Window.quantile w 0.90)
      (Obs.Window.quantile w 0.99)
  | None -> ());
  (match Serve.slo engine with
  | Some slo ->
    let st = Obs.Slo.status slo in
    Fmt.pr "slo serve.decide: target %.6fs, objective %.4f over %.0fs@."
      st.Obs.Slo.slo_target st.Obs.Slo.slo_objective st.Obs.Slo.slo_window;
    Fmt.pr
      "    seen %d, breach(es) %d, compliance %.4f, burn %.2f, budget %.2f@."
      st.Obs.Slo.window_total st.Obs.Slo.window_breaches st.Obs.Slo.compliance
      st.Obs.Slo.burn_rate st.Obs.Slo.budget_remaining
  | None -> ());
  0

(** Drive the XACML request log through the full AGENP closed loop (PIP →
    PDP → PEP → PAdaP), exercising every layer of the stack — the
    workload behind the stock trace/report demonstration. [--serve]
    routes the PDP through the caching engine; the output is identical
    by construction (caches never change decisions). *)
let pipeline_cmd obs requests seed serve health_out =
  run obs @@ fun () ->
  let spec : Agenp.Prep.pbms_spec =
    {
      Agenp.Prep.grammar_text =
        Asg.Asg_parser.render (Workloads.Xacml_logs.gpm ());
      global_constraints = [];
    }
  in
  let space = Ilp.Hypothesis_space.generate (Workloads.Xacml_logs.modes ()) in
  (* ground truth for the request currently being enforced; set from the
     log before each PDP call, read by the monitoring oracle *)
  let truth = ref Policy.Decision.Permit in
  let env : Agenp.Ams.environment =
    {
      Agenp.Ams.options = [ "permit"; "deny" ];
      oracle =
        (fun _context opt ->
          match opt with
          | "deny" -> true (* denying is always safe *)
          | "permit" -> Policy.Decision.equal !truth Policy.Decision.Permit
          | _ -> false);
      audit_rate = 0.0;
    }
  in
  let ams = Agenp.Ams.create ~name:"xacml-ams" ~seed ~spec ~space env in
  if serve then
    Agenp.Ams.attach_engine ams
      (Serve.Engine (Serve.create (Agenp.Ams.gpm ams)));
  let log = Workloads.Xacml_logs.log ~seed ~n:requests () in
  List.iter
    (fun (r, d) ->
      truth := d;
      ignore (Agenp.Ams.handle_request ams (Policy.Request.to_context r)))
    log;
  Fmt.pr "%d request(s), compliance %.3f, %d adaptation(s), %d rule(s) learned@."
    (List.length log)
    (Agenp.Ams.compliance_rate ams)
    (Agenp.Ams.relearn_count ams)
    (List.length (Agenp.Ams.hypothesis ams));
  write_health_out health_out;
  0

let repl_cmd () =
  Fmt.pr "agenp ASP repl — enter rules ending with '.', then:@.";
  Fmt.pr "  :solve [n]   answer sets (up to n)@.";
  Fmt.pr "  :optimal     optimal answer sets@.";
  Fmt.pr "  :ground      show the ground program@.";
  Fmt.pr "  :list        show the program@.";
  Fmt.pr "  :clear       start over@.";
  Fmt.pr "  :quit        leave@.";
  let program = ref Asp.Program.empty in
  let rec loop () =
    Fmt.pr "> @?";
    match In_channel.input_line stdin with
    | None -> 0
    | Some line -> (
      let line = String.trim line in
      match String.split_on_char ' ' line with
      | [ "" ] -> loop ()
      | ":quit" :: _ -> 0
      | ":clear" :: _ ->
        program := Asp.Program.empty;
        loop ()
      | ":list" :: _ ->
        Fmt.pr "%a@." Asp.Program.pp !program;
        loop ()
      | ":ground" :: _ ->
        (try
           let gp = Asp.Grounder.ground !program in
           List.iter
             (Fmt.pr "%a@." Asp.Grounder.pp_ground_rule)
             gp.Asp.Grounder.grules
         with
        | Asp.Grounder.Unsafe_rule r ->
          Fmt.pr "unsafe rule: %a@." Asp.Rule.pp r);
        loop ()
      | ":solve" :: rest ->
        let limit =
          match rest with n :: _ -> int_of_string_opt n | [] -> None
        in
        (try
           match Asp.Solver.solve ?limit !program with
           | [] -> Fmt.pr "UNSATISFIABLE@."
           | ms ->
             List.iteri
               (fun i m ->
                 Fmt.pr "Answer %d: %s@." (i + 1) (Asp.Solver.model_to_string m))
               ms
         with
        | Asp.Grounder.Unsafe_rule r ->
          Fmt.pr "unsafe rule: %a@." Asp.Rule.pp r);
        loop ()
      | ":optimal" :: _ ->
        (try
           match Asp.Solver.solve_optimal !program with
           | None -> Fmt.pr "UNSATISFIABLE@."
           | Some (ms, cost) ->
             List.iter
               (fun m ->
                 Fmt.pr "Optimal (cost %d): %s@." cost
                   (Asp.Solver.model_to_string m))
               ms
         with
        | Asp.Grounder.Unsafe_rule r ->
          Fmt.pr "unsafe rule: %a@." Asp.Rule.pp r);
        loop ()
      | _ -> (
        match Asp.Parser.parse_program line with
        | p ->
          program := Asp.Program.append !program p;
          loop ()
        | exception Asp.Parser.Parse_error msg ->
          Fmt.pr "parse error: %s@." msg;
          loop ()
        | exception Asp.Lexer.Lex_error (msg, pos) ->
          Fmt.pr "lex error at %d: %s@." pos msg;
          loop ()))
  in
  loop ()

(* ---- cmdliner wiring --------------------------------------------------- *)

open Cmdliner

let file_arg ~doc n name = Arg.(required & pos n (some file) None & info [] ~docv:name ~doc)

let obs_t =
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace_event JSON of the run to FILE \
                 (view in chrome://tracing or ui.perfetto.dev). Enables \
                 fine-grained spans.")
  in
  let flamegraph =
    Arg.(value & opt (some string) None & info [ "flamegraph" ] ~docv:"FILE"
           ~doc:"Write a flamegraph of the run to FILE: a speedscope JSON \
                 document when FILE ends in .json (view at speedscope.app), \
                 Brendan-Gregg folded stacks otherwise (input to \
                 flamegraph.pl). Enables fine-grained spans, like --trace.")
  in
  let log_file =
    Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE"
           ~doc:"Write the structured log to FILE as JSON Lines (one object \
                 per record: ts, level, domain, span, depth, msg, attrs) and \
                 lower the log threshold to debug. Warnings still go to \
                 stderr either way.")
  in
  let gc_stats =
    Arg.(value & flag & info [ "gc-stats" ]
           ~doc:"Record per-span GC deltas (minor words, promoted words, \
                 major collections) as span attributes and aggregate them \
                 per span name; --report then grows allocation columns.")
  in
  let report =
    Arg.(value & flag & info [ "report" ]
           ~doc:"Print the aggregate span/counter report after the run.")
  in
  let domains =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N"
           ~doc:"Number of domains (OCaml threads of parallelism) for the \
                 learner's fan-outs. 1 (the default) runs sequentially; \
                 results are identical for every value.")
  in
  Term.(const (fun trace flamegraph log_file gc_stats report domains ->
            { trace; flamegraph; log_file; gc_stats; report; domains })
        $ trace $ flamegraph $ log_file $ gc_stats $ report $ domains)

let context_opt =
  Arg.(value & opt (some file) None & info [ "context"; "c" ] ~docv:"FILE"
         ~doc:"ASP program providing the context facts/rules.")

(* SLO flags shared by [serve] (optional target) and [monitor] (target
   with a default — monitoring always tracks an SLO). *)
let slo_target_opt =
  Arg.(value & opt (some float) None & info [ "slo-target" ] ~docv:"SEC"
         ~doc:"Track a latency SLO with this target in seconds; the \
               engine records breaches, compliance and error-budget burn \
               over the --slo-window.")

let slo_objective_t =
  Arg.(value & opt float 0.99 & info [ "slo-objective" ] ~docv:"FRAC"
         ~doc:"Fraction of requests that must meet the SLO target \
               (e.g. 0.99).")

let slo_window_t =
  Arg.(value & opt float 60.0 & info [ "slo-window" ] ~docv:"SEC"
         ~doc:"Rolling window, in seconds, over which SLO compliance and \
               burn rate are computed.")

let solve_t =
  let models =
    Arg.(value & opt (some int) None & info [ "models"; "n" ] ~docv:"N"
           ~doc:"Stop after N answer sets.")
  in
  let optimal =
    Arg.(value & flag & info [ "optimal" ] ~doc:"Report only optimal models \
                                                 (weak-constraint cost).")
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Compute the answer sets of an ASP program.")
    Term.(const solve_cmd $ obs_t $ file_arg ~doc:"ASP program file." 0 "FILE"
          $ models $ optimal)

let ground_t =
  Cmd.v
    (Cmd.info "ground" ~doc:"Print the ground instantiation of an ASP program.")
    Term.(const ground_cmd $ obs_t $ file_arg ~doc:"ASP program file." 0 "FILE")

let sentence_arg n =
  Arg.(required & pos n (some string) None & info [] ~docv:"SENTENCE"
         ~doc:"Policy sentence (tokens separated by spaces).")

let check_t =
  Cmd.v
    (Cmd.info "check" ~doc:"Check membership of a sentence in an ASG's language.")
    Term.(const check_cmd $ obs_t $ file_arg ~doc:"ASG grammar file." 0 "GRAMMAR"
          $ sentence_arg 1 $ context_opt)

let generate_t =
  let depth =
    Arg.(value & opt int 8 & info [ "depth"; "d" ] ~docv:"N"
           ~doc:"Maximum derivation depth.")
  in
  let ranked =
    Arg.(value & flag & info [ "ranked" ] ~doc:"Rank sentences by \
                                                weak-constraint cost.")
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Generate the valid policies of an ASG (optionally in a context).")
    Term.(const generate_cmd $ obs_t $ file_arg ~doc:"ASG grammar file." 0 "GRAMMAR"
          $ context_opt $ depth $ ranked)

let learn_t =
  let save =
    Arg.(value & opt (some string) None & info [ "save"; "o" ] ~docv:"FILE"
           ~doc:"Write the learned grammar (ASG syntax) to FILE.")
  in
  let max_witnesses =
    Arg.(value & opt int 64 & info [ "max-witnesses" ] ~docv:"N"
           ~doc:"Cap on (parse tree, answer set) witnesses enumerated per \
                 example. A warning is printed when the cap truncates the \
                 enumeration.")
  in
  Cmd.v
    (Cmd.info "learn"
       ~doc:"Learn ASG annotations from context-dependent examples.")
    Term.(const learn_cmd $ obs_t $ file_arg ~doc:"ASG grammar file." 0 "GRAMMAR"
          $ file_arg ~doc:"Examples file (+/- sentence | context)." 1 "EXAMPLES"
          $ file_arg ~doc:"Hypothesis-space file (prods | rule)." 2 "SPACE"
          $ save $ max_witnesses)

let health_out_opt =
  Arg.(value & opt (some string) None & info [ "health" ] ~docv:"FILE"
         ~doc:"Export the policy-health event ring (detector rate-shift \
               alarms, PAdaP relearn lifecycle) to FILE as JSON Lines. \
               Query it with 'agenp health'.")

let pipeline_t =
  let requests =
    Arg.(value & opt int 40 & info [ "requests"; "n" ] ~docv:"N"
           ~doc:"Number of access requests to replay.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.")
  in
  let serve =
    Arg.(value & flag & info [ "serve" ]
           ~doc:"Route PDP decisions through the caching serving engine. \
                 Output is identical either way; only latency changes.")
  in
  Cmd.v
    (Cmd.info "pipeline"
       ~doc:"Replay the XACML request log through the full AGENP closed \
             loop (PIP, PDP, PEP, PAdaP); the go-to workload for --trace.")
    Term.(const pipeline_cmd $ obs_t $ requests $ seed $ serve
          $ health_out_opt)

let serve_t =
  let repeat =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N"
           ~doc:"Serve the request list N times; later passes hit the \
                 decision memo.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print cache hit/miss/eviction statistics after serving.")
  in
  let batch =
    Arg.(value & flag & info [ "batch" ]
           ~doc:"Serve each pass as one batch across the domain pool \
                 (--domains); decisions are printed in input order and \
                 are identical to sequential serving.")
  in
  let tenants =
    Arg.(value & opt int 1 & info [ "tenants" ] ~docv:"N"
           ~doc:"Serve through a sharded multi-tenant cluster of N \
                 simulated tenants (t0..tN-1), round-robining the request \
                 stream across them. Each tenant owns an isolated shard \
                 (its own memo, ground cache, and model stamp); decisions \
                 print with shard provenance. N=1 keeps the single-engine \
                 path.")
  in
  let queue_depth =
    Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N"
           ~doc:"Bound of the cluster ingestion queue (with --tenants > 1): \
                 the flow-controlled stream drains whenever N requests are \
                 queued, coalescing identical (tenant, context, options) \
                 submissions in each window.")
  in
  let stats_json =
    Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE"
           ~doc:"Write the engine statistics to FILE as one JSON object \
                 (schema serve-stats/4: per-tier hits/misses/evictions/\
                 collisions/entries/capacity/hit_rate, delta-grounding \
                 counts, audit-ring occupancy, and the policy-health \
                 signals).")
  in
  let audit_out =
    Arg.(value & opt (some string) None & info [ "audit" ] ~docv:"FILE"
           ~doc:"Export the decision audit trail to FILE as JSON Lines \
                 (one record per served decision: seq, ts, trace, \
                 context_fp, gpm_version, options, chosen, fallback_used, \
                 compliant, provenance, latency_s). Query it with \
                 'agenp audit'.")
  in
  let metrics_port =
    Arg.(value & opt (some int) None & info [ "metrics-port" ] ~docv:"PORT"
           ~doc:"Serve the OpenMetrics exposition at \
                 http://127.0.0.1:PORT/metrics for the lifetime of the \
                 run (PORT 0 picks an ephemeral port; the bound port is \
                 printed to stderr).")
  in
  let metrics_linger =
    Arg.(value & opt (some float) None & info [ "metrics-linger" ] ~docv:"SEC"
           ~doc:"After serving, keep the process (and the --metrics-port \
                 endpoint) alive for SEC seconds so an external scraper \
                 can collect the final exposition.")
  in
  let metrics_once =
    Arg.(value & flag & info [ "metrics-once" ]
           ~doc:"Print the OpenMetrics exposition to stdout once after \
                 serving — the one-shot, no-TCP counterpart of \
                 --metrics-port.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve decision requests from a file through the two-tier \
             caching engine. Requests are lines of the form \
             'opt1 opt2 ... | context-program' (context optional).")
    Term.(const serve_cmd $ obs_t $ file_arg ~doc:"ASG grammar file." 0 "GRAMMAR"
          $ file_arg ~doc:"Requests file (options | context per line)." 1 "REQUESTS"
          $ context_opt $ repeat $ stats $ batch $ tenants $ queue_depth
          $ stats_json $ audit_out
          $ health_out_opt $ metrics_port $ metrics_linger $ metrics_once
          $ slo_target_opt $ slo_objective_t $ slo_window_t)

let audit_t =
  let last =
    Arg.(value & opt (some int) None & info [ "last"; "n" ] ~docv:"N"
           ~doc:"Show only the newest N matching records (a tail).")
  in
  let trace_filter =
    Arg.(value & opt (some string) None & info [ "trace-id" ] ~docv:"ID"
           ~doc:"Show only records with this trace ID.")
  in
  let fallbacks =
    Arg.(value & flag & info [ "fallbacks" ]
           ~doc:"Show only decisions where the model admitted nothing and \
                 the fail-safe fallback was used.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Re-emit the matching records as JSON Lines instead of the \
                 human-readable table.")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Query a decision audit trail exported by 'agenp serve \
             --audit' (filter by trace ID or fallback use, tail the \
             newest N).")
    Term.(const audit_cmd $ obs_t
          $ file_arg ~doc:"Audit JSONL file (from serve --audit)." 0 "FILE"
          $ last $ trace_filter $ fallbacks $ json)

let health_t =
  let last =
    Arg.(value & opt (some int) None & info [ "last"; "n" ] ~docv:"N"
           ~doc:"Show only the newest N matching events (a tail).")
  in
  let since_version =
    Arg.(value & opt (some int) None & info [ "since-version" ] ~docv:"N"
           ~doc:"Show only events attributed to GPM version N or later.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the matching events as one JSON object (schema \
                 health/1) instead of the human-readable table.")
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:"Query a policy-health event trail exported by 'agenp serve \
             --health' or 'agenp pipeline --health': change-point alarms \
             on violation/fallback/non-compliance rates and PAdaP \
             relearn lifecycle events.")
    Term.(const health_cmd $ obs_t
          $ file_arg ~doc:"Health JSONL file (from --health)." 0 "FILE"
          $ last $ since_version $ json)

let monitor_t =
  let repeat =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N"
           ~doc:"Replay the request list N times before reporting.")
  in
  let slo_target =
    Arg.(value & opt float 0.1 & info [ "slo-target" ] ~docv:"SEC"
           ~doc:"Latency SLO target in seconds.")
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:"Replay decision requests and print the rolling-window / SLO \
             ops view: windowed latency quantiles, request rate, error \
             budget and burn rate.")
    Term.(const monitor_cmd $ obs_t
          $ file_arg ~doc:"ASG grammar file." 0 "GRAMMAR"
          $ file_arg ~doc:"Requests file (options | context per line)." 1 "REQUESTS"
          $ context_opt $ repeat $ slo_target $ slo_objective_t
          $ slo_window_t)

let repl_t =
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive ASP session (rules, :solve, :optimal).")
    Term.(const repl_cmd $ const ())

let explain_t =
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Explain why a sentence is (in)valid under a context.")
    Term.(const explain_cmd $ obs_t $ file_arg ~doc:"ASG grammar file." 0 "GRAMMAR"
          $ sentence_arg 1 $ context_opt)

let () =
  let info =
    Cmd.info "agenp" ~version:"1.0.0"
      ~doc:"Generative policies as answer set grammars: solve, check, \
            generate, learn, explain."
  in
  exit
    (Cmd.eval' (Cmd.group info
          [ solve_t; ground_t; check_t; generate_t; learn_t; explain_t;
            serve_t; audit_t; health_t; monitor_t; pipeline_t; repl_t ]))
