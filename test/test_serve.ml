(* Tests for the decision-serving layer: the LRU eviction policy, the
   typed No_options error, cache provenance and the model's shared
   compiled view, the cached-equals-uncached differential property,
   batch determinism across pool sizes, the ops plane, and the
   multi-tenant router. *)

(* ---- fixtures --------------------------------------------------------- *)

(* the weather grammar of the CLI cram test: accept is forbidden in snow *)
let snow_grammar =
  {| start -> decision { :- result(accept)@1, weather(snow). }
     decision -> "accept" { result(accept). }
     decision -> "reject" { result(reject). } |}

(* a stricter variant: accept is only admitted in sun *)
let sun_only_grammar =
  {| start -> decision { :- result(accept)@1, not weather(sun). }
     decision -> "accept" { result(accept). }
     decision -> "reject" { result(reject). } |}

(* no constraints at all: everything is admitted *)
let free_grammar =
  {| start -> decision
     decision -> "accept" { result(accept). }
     decision -> "reject" { result(reject). } |}

let gpm_of text = Asg.Asg_parser.parse text
let ctx text = Asp.Parser.parse_program text

let snow = ctx "weather(snow)."
let sun = ctx "weather(sun)."
let fog = ctx "weather(fog)."

let request ?deadline context options =
  Serve.Request.make ?deadline ~context ~options ()

let decision_t =
  Alcotest.testable Serve.Decision.pp Serve.Decision.equal

(* ---- LRU -------------------------------------------------------------- *)

let test_lru_eviction_order () =
  let l = Serve.Lru.create ~capacity:3 () in
  Alcotest.(check (option string)) "no eviction" None (Serve.Lru.add l "a" 1);
  ignore (Serve.Lru.add l "b" 2);
  ignore (Serve.Lru.add l "c" 3);
  Alcotest.(check (list string))
    "newest first" [ "c"; "b"; "a" ]
    (Serve.Lru.keys_newest_first l);
  (* a hit promotes: "a" becomes newest, "b" becomes the LRU *)
  Alcotest.(check (option int)) "find a" (Some 1) (Serve.Lru.find l "a");
  Alcotest.(check (option string))
    "b evicted, not a" (Some "b")
    (Serve.Lru.add l "d" 4);
  Alcotest.(check (list string))
    "order after eviction" [ "d"; "a"; "c" ]
    (Serve.Lru.keys_newest_first l);
  Alcotest.(check int) "one eviction" 1 (Serve.Lru.evictions l);
  Alcotest.(check bool) "b gone" false (Serve.Lru.mem l "b")

let test_lru_replace_promotes () =
  let l = Serve.Lru.create ~capacity:2 () in
  ignore (Serve.Lru.add l "a" 1);
  ignore (Serve.Lru.add l "b" 2);
  (* replacing "a" promotes it, so the next eviction takes "b" *)
  Alcotest.(check (option string)) "replace, no eviction" None
    (Serve.Lru.add l "a" 10);
  Alcotest.(check (option int)) "replaced value" (Some 10)
    (Serve.Lru.find l "a");
  Alcotest.(check (option string)) "b evicted" (Some "b")
    (Serve.Lru.add l "c" 3)

let test_lru_clear () =
  let l = Serve.Lru.create ~capacity:1 () in
  ignore (Serve.Lru.add l 1 "x");
  ignore (Serve.Lru.add l 2 "y");
  Alcotest.(check int) "eviction counted" 1 (Serve.Lru.evictions l);
  Serve.Lru.clear l;
  Alcotest.(check int) "empty" 0 (Serve.Lru.length l);
  Alcotest.(check int) "evictions reset" 0 (Serve.Lru.evictions l);
  Alcotest.(check (list int)) "no keys" [] (Serve.Lru.keys_newest_first l);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity must be >= 1") (fun () ->
      ignore (Serve.Lru.create ~capacity:0 ()))

(* ---- structural hashing ---------------------------------------------- *)

let test_fingerprint () =
  let p1 = ctx "p(1). q(X) :- p(X)." in
  let p2 = ctx "p(1). q(X) :- p(X)." in
  let p3 = ctx "p(2). q(X) :- p(X)." in
  Alcotest.(check bool) "equal programs" true (Asp.Program.equal p1 p2);
  Alcotest.(check bool)
    "equal fingerprints" true
    (Asp.Program.fingerprint p1 = Asp.Program.fingerprint p2);
  Alcotest.(check bool) "different programs" false (Asp.Program.equal p1 p3);
  Alcotest.(check bool)
    "different fingerprints" false
    (Asp.Program.fingerprint p1 = Asp.Program.fingerprint p3)

(* ---- No_options ------------------------------------------------------- *)

let test_no_options () =
  let gpm = gpm_of snow_grammar in
  Alcotest.check_raises "uncached" Serve.No_options (fun () ->
      ignore (Serve.decide_uncached gpm (request sun [])));
  let engine = Serve.create gpm in
  Alcotest.check_raises "engine" Serve.No_options (fun () ->
      ignore (Serve.decide engine (request sun [])));
  (* the PDP surfaces the same typed error (regression: this used to be
     an untyped Invalid_argument) *)
  Alcotest.check_raises "pdp" Agenp.Pdp.No_options (fun () ->
      ignore (Agenp.Pdp.decide gpm ~context:sun ~options:[]))

(* ---- provenance and the compiled view --------------------------------- *)

let prov = function
  | Serve.Cold -> "cold"
  | Serve.Ground_hit -> "ground"
  | Serve.Memo_hit -> "memo"

let test_provenance () =
  let engine = Serve.create (gpm_of snow_grammar) in
  let req = request snow [ "accept"; "reject" ] in
  let r1 = Serve.decide engine req in
  Alcotest.(check string) "first is cold" "cold" (prov r1.Serve.Response.provenance);
  Alcotest.(check string) "snow rejects" "reject"
    r1.Serve.Response.decision.Serve.Decision.chosen;
  let r2 = Serve.decide engine req in
  Alcotest.(check string) "second is memo" "memo" (prov r2.Serve.Response.provenance);
  Alcotest.check decision_t "identical decision" r1.Serve.Response.decision
    r2.Serve.Response.decision;
  (* a different options list misses the memo but reuses the cores
     compiled for the shared options *)
  let r3 = Serve.decide engine (request snow [ "accept" ]) in
  Alcotest.(check string) "ground tier hit" "ground"
    (prov r3.Serve.Response.provenance);
  Alcotest.(check bool) "accept is the fail-safe here" true
    r3.Serve.Response.decision.Serve.Decision.fallback_used;
  let st = Serve.stats engine in
  Alcotest.(check bool) "memo hits counted" true
    (st.Serve.decisions.Serve.hits > 0);
  Alcotest.(check bool) "ground hits counted" true
    (st.Serve.grounds.Serve.hits > 0)

(* the engine decides on the model value's compiled view, so cores the
   engine-free PDP compiled serve the engine's first request *)
let test_shared_compiled_view () =
  let gpm = gpm_of snow_grammar in
  let options = [ "accept"; "reject" ] in
  let pdp = Agenp.Pdp.decide gpm ~context:snow ~options in
  let engine = Serve.create gpm in
  let r = Serve.decide engine (request snow options) in
  Alcotest.(check string) "first request reads ground" "ground"
    (prov r.Serve.Response.provenance);
  Alcotest.check decision_t "the PDP's decision" pdp r.Serve.Response.decision;
  let st = Serve.stats engine in
  Alcotest.(check int) "nothing compiled" 0 st.Serve.grounds.Serve.misses;
  Alcotest.(check bool) "trees decided" true (st.Serve.grounds.Serve.hits > 0)

let test_set_gpm_invalidates () =
  let g_snow = gpm_of snow_grammar in
  let g_free = gpm_of free_grammar in
  let engine = Serve.create g_snow in
  let req = request snow [ "accept"; "reject" ] in
  Alcotest.(check string) "snow model rejects" "reject"
    (Serve.decide engine req).Serve.Response.decision.Serve.Decision.chosen;
  Serve.set_gpm engine g_free;
  let r = Serve.decide engine req in
  Alcotest.(check string) "fresh model's decision, not the memo's" "accept"
    r.Serve.Response.decision.Serve.Decision.chosen;
  Alcotest.(check bool) "new model version reported" true
    (r.Serve.Response.gpm_version = Asg.Gpm.version g_free);
  (* versions also change through derivation: with_hypothesis on the
     served model must never replay its memo entries *)
  Alcotest.(check bool) "derivations bump versions" false
    (Asg.Gpm.version g_snow = Asg.Gpm.version (Asg.Gpm.with_context g_snow snow))

(* The memo keys on what the model reads: a request that differs from
   an earlier one only in a fact the model cannot read is a memo hit,
   answers as the reference on its own whole context, and is audited
   under the same context fingerprint. *)
let test_memo_keys_on_reads () =
  let gpm = gpm_of snow_grammar in
  let engine = Serve.create gpm in
  let options = [ "accept"; "reject" ] in
  let first = request (ctx "weather(snow). attr(subject, id, u1).") options in
  let second = request (ctx "weather(snow). attr(subject, id, u2).") options in
  let r1 = Serve.decide engine first in
  let r2 = Serve.decide engine second in
  Alcotest.(check string) "first is cold" "cold" (prov r1.Serve.Response.provenance);
  Alcotest.(check string) "second is a memo hit" "memo"
    (prov r2.Serve.Response.provenance);
  Alcotest.check decision_t "the reference on the raw context"
    (Serve.decide_uncached gpm second)
    r2.Serve.Response.decision;
  match Serve.audit engine with
  | None -> Alcotest.fail "default config keeps an audit ring"
  | Some ring -> (
    match Serve.Audit.to_list ring with
    | [ a1; a2 ] ->
      Alcotest.(check int) "one audited fingerprint" a1.Serve.Audit.context_fp
        a2.Serve.Audit.context_fp;
      Alcotest.(check int) "the fingerprint of what the model reads"
        (Asp.Program.fingerprint snow) a2.Serve.Audit.context_fp
    | records ->
      Alcotest.failf "expected 2 audit records, got %d" (List.length records))

(* ---- the differential property ---------------------------------------- *)

(* Random op sequences against one engine with a deliberately tiny memo
   (so evictions happen constantly), with every decision checked against
   the cache-free reference on the same model. Ops: decide on a random
   (context, options), swap the served model. *)
let differential_prop =
  let models =
    [| gpm_of snow_grammar; gpm_of sun_only_grammar; gpm_of free_grammar |]
  in
  (* the next three carry facts some models do not read (a fresh
     predicate, a known one with a foreign constant), so those models
     key and decide them on a projection; the last three carry proper
     rules, so they are decided from scratch instead of by a delta
     ground on the compiled view *)
  let contexts =
    [|
      snow;
      sun;
      fog;
      Asp.Program.empty;
      ctx "weather(snow). attr(subject, id, u1).";
      ctx "attr(subject, id, u2). weather(sun).";
      ctx "weather(hail). weather(snow). weather(hail).";
      ctx "weather(snow) :- cold. cold.";
      ctx "weather(X) :- forecast(X). forecast(sun).";
      ctx "weather(fog) :- not weather(sun).";
    |]
  in
  let option_sets =
    [| [ "accept"; "reject" ]; [ "reject"; "accept" ]; [ "accept" ]; [ "reject" ] |]
  in
  let gen_op =
    QCheck2.Gen.(
      frequency
        [
          ( 6,
            map2
              (fun c o -> `Decide (c, o))
              (int_bound (Array.length contexts - 1))
              (int_bound (Array.length option_sets - 1)) );
          (1, map (fun m -> `Set_gpm m) (int_bound (Array.length models - 1)));
        ])
  in
  QCheck2.Test.make ~name:"cached decisions = uncached, under churn" ~count:40
    ~long_factor:10
    QCheck2.Gen.(list_size (int_range 5 25) gen_op)
    (fun ops ->
      let engine =
        Serve.create
          ~config:
            {
              Serve.Config.default with
              Serve.Config.caching = { Serve.Config.decision_cache = 4 };
            }
          models.(0)
      in
      List.for_all
        (fun op ->
          match op with
          | `Set_gpm m ->
            Serve.set_gpm engine models.(m);
            true
          | `Decide (c, o) ->
            let req = request contexts.(c) option_sets.(o) in
            let cached = (Serve.decide engine req).Serve.Response.decision in
            let reference = Serve.decide_uncached (Serve.gpm engine) req in
            Serve.Decision.equal cached reference)
        ops)

(* ---- batch determinism ------------------------------------------------ *)

let batch_requests () =
  (* decisions must come back in input order at every pool size *)
  [
    request snow [ "accept"; "reject" ];
    request sun [ "accept"; "reject" ];
    request fog [ "accept"; "reject" ];
    request snow [ "reject"; "accept" ];
    request sun [ "reject" ];
    request snow [ "accept"; "reject" ];
  ]

let batch_deadline_requests () =
  [
    request ~deadline:0.2 snow [ "accept"; "reject" ];
    request sun [ "accept"; "reject" ];
    request ~deadline:0.1 fog [ "accept"; "reject" ];
    request ~deadline:0.4 snow [ "reject"; "accept" ];
    request sun [ "reject" ];
    request ~deadline:0.2 snow [ "accept"; "reject" ];
  ]

(* deadlines must not disturb input-order responses or decisions at any
   pool size *)
let test_batch_deadline_determinism () =
  let gpm = gpm_of sun_only_grammar in
  let reqs = batch_deadline_requests () in
  let reference = List.map (Serve.decide_uncached gpm) reqs in
  List.iter
    (fun domains ->
      let pool = Par.create ~domains () in
      let engine = Serve.create gpm in
      let batched =
        List.map
          (fun (r : Serve.Response.t) -> r.Serve.Response.decision)
          (Serve.Batch.run ~pool engine reqs)
      in
      Par.shutdown pool;
      Alcotest.(check (list decision_t))
        (Printf.sprintf "deadlines don't reorder responses at %d domain(s)"
           domains)
        reference batched)
    [ 1; 2; 4 ]

let test_batch_determinism () =
  let gpm = gpm_of sun_only_grammar in
  let reqs = batch_requests () in
  let reference = List.map (Serve.decide_uncached gpm) reqs in
  List.iter
    (fun domains ->
      let pool = Par.create ~domains () in
      let engine = Serve.create gpm in
      let batched =
        List.map
          (fun (r : Serve.Response.t) -> r.Serve.Response.decision)
          (Serve.Batch.run ~pool engine reqs)
      in
      Par.shutdown pool;
      Alcotest.(check (list decision_t))
        (Printf.sprintf "input order preserved at %d domain(s)" domains)
        reference batched)
    [ 1; 2; 4 ];
  (* an empty batch is a no-op, not a pool round-trip *)
  let engine = Serve.create gpm in
  Alcotest.(check int) "empty batch" 0
    (List.length (Serve.Batch.run engine []))

(* ---- the ops plane: trace IDs, audit ring, stats JSON, /metrics ------- *)

(* every response carries a trace ID, and the engine's audit ring
   records the same ID alongside the decision *)
let test_audit_records_decisions () =
  let engine = Serve.create (gpm_of snow_grammar) in
  let r1 = Serve.decide engine (request snow [ "accept"; "reject" ]) in
  let r2 = Serve.decide engine (request sun [ "accept"; "reject" ]) in
  Alcotest.(check bool) "trace ids non-empty" true
    (r1.Serve.Response.trace_id <> "" && r2.Serve.Response.trace_id <> "");
  Alcotest.(check bool) "trace ids unique" true
    (r1.Serve.Response.trace_id <> r2.Serve.Response.trace_id);
  match Serve.audit engine with
  | None -> Alcotest.fail "default config keeps an audit ring"
  | Some ring ->
    let records = Serve.Audit.to_list ring in
    Alcotest.(check int) "one record per decision" 2 (List.length records);
    Alcotest.(check (list string))
      "audit trace ids match the responses"
      [ r1.Serve.Response.trace_id; r2.Serve.Response.trace_id ]
      (List.map (fun (r : Serve.Audit.record) -> r.trace_id) records);
    Alcotest.(check (list string))
      "decisions recorded" [ "reject"; "accept" ]
      (List.map (fun (r : Serve.Audit.record) -> r.chosen) records);
    let r = List.hd records in
    Alcotest.(check int) "context fingerprint recorded"
      (Asp.Program.fingerprint snow) r.Serve.Audit.context_fp;
    Alcotest.(check string) "provenance recorded" "cold"
      r.Serve.Audit.provenance;
    (* a cold decision compiled at least one core; the per-request
       counts land in the audit record *)
    Alcotest.(check bool) "ground misses recorded" true
      (r.Serve.Audit.ground_misses > 0)

(* wraparound: a ring of capacity n keeps exactly the newest n records,
   oldest first, with seq/total still counting everything ever added *)
let test_audit_wraparound () =
  let ring = Serve.Audit.create ~capacity:4 in
  let add i =
    ignore
      (Serve.Audit.add ring ~ts:(float_of_int i) ~trace_id:(string_of_int i)
         ~context_fp:i ~gpm_version:0 ~options:[ "a" ] ~chosen:"a"
         ~fallback_used:false ~compliant:None ~provenance:"cold"
         ~ground_hits:0 ~ground_misses:0 ~latency:0.0)
  in
  for i = 0 to 9 do
    add i
  done;
  Alcotest.(check int) "total counts everything" 10 (Serve.Audit.total ring);
  Alcotest.(check int) "length is the capacity" 4 (Serve.Audit.length ring);
  Alcotest.(check (list int))
    "newest 4 in order" [ 6; 7; 8; 9 ]
    (List.map
       (fun (r : Serve.Audit.record) -> r.seq)
       (Serve.Audit.to_list ring));
  Alcotest.(check (list int))
    "to_list ~last tails further" [ 8; 9 ]
    (List.map
       (fun (r : Serve.Audit.record) -> r.seq)
       (Serve.Audit.to_list ~last:2 ring))

(* the JSONL export round-trips every field, including the hex-encoded
   fingerprint and the three-valued compliance verdict *)
let test_audit_jsonl_roundtrip () =
  let mk seq compliant =
    {
      Serve.Audit.seq;
      ts = 12.5;
      trace_id = Printf.sprintf "abc-%06d" seq;
      context_fp = Asp.Program.fingerprint snow;
      gpm_version = 3;
      options = [ "accept"; "reject" ];
      chosen = "reject";
      fallback_used = seq = 1;
      compliant;
      provenance = "memo";
      ground_hits = seq;
      ground_misses = 2 - seq;
      latency = 0.25;
    }
  in
  let records = [ mk 0 None; mk 1 (Some true); mk 2 (Some false) ] in
  let path = Filename.temp_file "serve_audit" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Serve.Audit.write_jsonl path records;
  let back = Serve.Audit.read_jsonl path in
  Alcotest.(check int) "all lines parsed" 3 (List.length back);
  List.iter2
    (fun (a : Serve.Audit.record) (b : Serve.Audit.record) ->
      Alcotest.(check bool)
        (Printf.sprintf "record %d round-trips" a.seq)
        true (a = b))
    records back

(* batch fan-out: every response gets its own child trace ID, unique
   across the batch and recorded in the audit trail, at every pool size *)
let test_batch_trace_ids () =
  let gpm = gpm_of sun_only_grammar in
  let reqs = batch_requests () in
  List.iter
    (fun domains ->
      let pool = Par.create ~domains () in
      let engine = Serve.create gpm in
      let responses = Serve.Batch.run ~pool engine reqs in
      Par.shutdown pool;
      let ids =
        List.map (fun (r : Serve.Response.t) -> r.Serve.Response.trace_id)
          responses
      in
      Alcotest.(check bool)
        (Printf.sprintf "no empty ids at %d domain(s)" domains)
        true
        (List.for_all (fun id -> id <> "") ids);
      Alcotest.(check int)
        (Printf.sprintf "ids unique across the batch at %d domain(s)" domains)
        (List.length ids)
        (List.length (List.sort_uniq String.compare ids));
      match Serve.audit engine with
      | None -> Alcotest.fail "audit ring expected"
      | Some ring ->
        let audited =
          List.map
            (fun (r : Serve.Audit.record) -> r.trace_id)
            (Serve.Audit.to_list ring)
        in
        Alcotest.(check (list string))
          (Printf.sprintf "audit ids = response ids at %d domain(s)" domains)
          (List.sort String.compare ids)
          (List.sort String.compare audited))
    [ 1; 2; 4 ]

let test_stats_json () =
  let engine = Serve.create (gpm_of snow_grammar) in
  let req = request snow [ "accept"; "reject" ] in
  ignore (Serve.decide engine req);
  ignore (Serve.decide engine req);
  let j = Obs.Json.parse (Serve.stats_to_json engine) in
  Alcotest.(check string) "schema" "serve-stats/5"
    Obs.Json.(to_str (member "schema" j));
  Alcotest.(check (float 1e-9)) "requests" 2.0
    Obs.Json.(to_num (member "requests" j));
  let d = Obs.Json.member "decision_cache" j in
  Alcotest.(check (float 1e-9)) "memo hits" 1.0
    Obs.Json.(to_num (member "hits" d));
  Alcotest.(check (float 1e-9)) "memo hit rate" 0.5
    Obs.Json.(to_num (member "hit_rate" d));
  (* collisions are their own field, not folded into evictions *)
  Alcotest.(check (float 1e-9)) "no memo collisions" 0.0
    Obs.Json.(to_num (member "collisions" d));
  (* serve-stats/5: the ground tier is a view with no capacity, so it
     reports lookups only *)
  let g = Obs.Json.member "ground_cache" j in
  Alcotest.(check (float 1e-9)) "one core compiled per option" 2.0
    Obs.Json.(to_num (member "misses" g));
  Alcotest.(check bool) "no ground capacity" true
    (Obs.Json.member_opt "capacity" g = None);
  (* the snow context is fact-only, so the one cold decision ran as
     delta grounds over frozen cores, never a fallback *)
  let delta = Obs.Json.member "delta" j in
  Alcotest.(check bool) "delta grounds counted" true
    Obs.Json.(to_num (member "grounds" delta) > 0.0);
  Alcotest.(check bool) "delta facts counted" true
    Obs.Json.(to_num (member "facts" delta) > 0.0);
  Alcotest.(check (float 1e-9)) "no fallbacks" 0.0
    Obs.Json.(to_num (member "fallbacks" delta));
  Alcotest.(check (float 1e-9)) "audit retained" 2.0
    Obs.Json.(to_num (member "retained" (member "audit" j)));
  (* the health section: the process-wide signal list and
     the total event count are always present *)
  let health = Obs.Json.member "health" j in
  Alcotest.(check bool) "health signals is a list" true
    (match Obs.Json.member "signals" health with
    | Obs.Json.List _ -> true
    | _ -> false);
  Alcotest.(check bool) "health events counted" true
    Obs.Json.(to_num (member "events" health) >= 0.0)

(* an engine with the trail disabled serves fine and reports it as null *)
let test_audit_disabled () =
  let engine =
    Serve.create
      ~config:
        { Serve.Config.default with Serve.Config.audit = { Serve.Config.capacity = 0 } }
      (gpm_of snow_grammar)
  in
  ignore (Serve.decide engine (request snow [ "accept"; "reject" ]));
  Alcotest.(check bool) "no ring" true (Serve.audit engine = None);
  let j = Obs.Json.parse (Serve.stats_to_json engine) in
  Alcotest.(check bool) "audit is null" true
    (Obs.Json.member "audit" j = Obs.Json.Null)

(* a live scrape: start the exposition server on an ephemeral port,
   fetch /metrics over a raw socket, and check the document shape; with
   [timeout], a read that waits longer raises instead of blocking *)
let http_get ?timeout ~port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close sock) @@ fun () ->
  Option.iter (Unix.setsockopt_float sock Unix.SO_RCVTIMEO) timeout;
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n" path in
  ignore (Unix.write_substring sock req 0 (String.length req));
  let b = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read sock chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      drain ()
  in
  drain ();
  Buffer.contents b

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let test_metrics_scrape () =
  (* counters are process-wide; zero them so sample values are exact *)
  Obs.reset ();
  let engine = Serve.create (gpm_of snow_grammar) in
  ignore (Serve.decide engine (request snow [ "accept"; "reject" ]));
  let server =
    Serve.Metrics.start ~port:0 ~render:(fun () -> Serve.openmetrics engine) ()
  in
  Fun.protect ~finally:(fun () -> Serve.Metrics.stop server) @@ fun () ->
  let port = Serve.Metrics.port server in
  Alcotest.(check bool) "ephemeral port resolved" true (port > 0);
  let resp = http_get ~port "/metrics" in
  Alcotest.(check bool) "200" true (contains resp "HTTP/1.1 200 OK");
  Alcotest.(check bool) "content type" true
    (contains resp Obs.Openmetrics.content_type);
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("body has " ^ needle) true (contains resp needle))
    [
      "agenp_serve_requests_total 1";
      "agenp_serve_decide_seconds{quantile=\"0.5\"}";
      "agenp_serve_decide_window_count";
      "agenp_serve_cache_hit_rate{tier=\"decision\"}";
      "agenp_serve_cache_hit_rate{tier=\"ground\"}";
      "# EOF";
    ];
  (* consecutive scrapes work (connection-per-request) and other paths
     are 404s *)
  Alcotest.(check bool) "second scrape" true
    (contains (http_get ~port "/metrics") "# EOF");
  Alcotest.(check bool) "404 elsewhere" true
    (contains (http_get ~port "/nope") "404")

(* a client that connects and never sends its request must not wedge
   the server: the next scrape is answered and [stop] returns, each
   within a client-side bound so a wedged server fails the test instead
   of hanging it *)
let test_metrics_silent_client () =
  let server = Serve.Metrics.start ~port:0 ~render:(fun () -> "# EOF\n") () in
  let port = Serve.Metrics.port server in
  let silent = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect silent (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let scraped =
    match http_get ~timeout:3.0 ~port "/metrics" with
    | resp -> contains resp "# EOF"
    | exception Unix.Unix_error _ -> false
  in
  let stopped = Atomic.make false in
  let stopper =
    Thread.create
      (fun () ->
        Serve.Metrics.stop server;
        Atomic.set stopped true)
      ()
  in
  let deadline = Unix.gettimeofday () +. 3.0 in
  while (not (Atomic.get stopped)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  let stopped_in_time = Atomic.get stopped in
  (* closing the silent client releases a wedged server, so the join
     returns either way *)
  Unix.close silent;
  Thread.join stopper;
  Alcotest.(check bool) "scrape answered past a silent client" true scraped;
  Alcotest.(check bool) "stop returns past a silent client" true
    stopped_in_time

(* ---- the multi-tenant cluster ----------------------------------------- *)

let treq tenant context options =
  Serve.Request.make ~tenant ~context ~options ()

let served_exn = function
  | Serve.Cluster.Served r -> r
  | Serve.Cluster.Rejected reason ->
    Alcotest.failf "unexpected rejection: %s"
      (Serve.Cluster.reject_reason_to_string reason)

(* construction is strict: no tenants, duplicate tenants, and a
   zero-depth queue are caller bugs, not runtime states *)
let test_cluster_create_validation () =
  let gpm = gpm_of free_grammar in
  Alcotest.check_raises "empty tenants"
    (Invalid_argument "Serve.Cluster.create: at least one tenant required")
    (fun () -> ignore (Serve.Cluster.create ~tenants:[] ()));
  Alcotest.check_raises "duplicate tenant"
    (Invalid_argument "Serve.Cluster.create: duplicate tenant a") (fun () ->
      ignore (Serve.Cluster.create ~tenants:[ ("a", gpm); ("a", gpm) ] ()));
  Alcotest.check_raises "queue depth"
    (Invalid_argument "Serve.Cluster.create: queue_depth must be >= 1")
    (fun () ->
      ignore (Serve.Cluster.create ~queue_depth:0 ~tenants:[ ("a", gpm) ] ()))

(* an unowned tenant id is rejected on both the streamed and the
   synchronous path; the rest of the stream is still served *)
let test_cluster_unknown_tenant () =
  let cluster =
    Serve.Cluster.create ~tenants:[ ("a", gpm_of free_grammar) ] ()
  in
  let req = treq "ghost" snow [ "accept"; "reject" ] in
  (match Serve.Cluster.run cluster [ req; treq "a" snow [ "accept" ] ] with
  | [ Serve.Cluster.Rejected Serve.Cluster.Unknown_tenant;
      Serve.Cluster.Served r ] ->
    Alcotest.(check string) "known tenant served" "a" r.Serve.Response.shard
  | _ -> Alcotest.fail "run should reject only the unknown tenant");
  (match Serve.Cluster.decide cluster req with
  | Serve.Cluster.Rejected Serve.Cluster.Unknown_tenant -> ()
  | _ -> Alcotest.fail "decide should reject an unknown tenant");
  Alcotest.(check int) "rejections counted" 2 (Serve.Cluster.rejected cluster)

(* identical (tenant, context, options) requests in one window resolve
   from a single computation; distinct tenants never coalesce, and
   neither do requests in different windows *)
let test_cluster_coalescing () =
  let gpm = gpm_of snow_grammar in
  let cluster = Serve.Cluster.create ~tenants:[ ("a", gpm); ("b", gpm) ] () in
  let req tenant = treq tenant snow [ "accept"; "reject" ] in
  let a_rs, b_r =
    match
      List.map served_exn
        (Serve.Cluster.run cluster [ req "a"; req "a"; req "a"; req "b" ])
    with
    | [ a1; a2; a3; b ] -> ([ a1; a2; a3 ], b)
    | _ -> Alcotest.fail "one outcome per request"
  in
  (* 3 identical "a" requests -> 1 computation; "b" is a different
     tenant so it computes on its own shard *)
  Alcotest.(check int) "two duplicates coalesced" 2
    (Serve.Cluster.coalesced cluster);
  let first = List.hd a_rs in
  List.iter
    (fun (r : Serve.Response.t) ->
      Alcotest.check decision_t "coalesced decisions equal"
        first.Serve.Response.decision r.Serve.Response.decision;
      Alcotest.(check string) "coalesced share one trace"
        first.Serve.Response.trace_id r.Serve.Response.trace_id)
    a_rs;
  Alcotest.(check bool) "b computed separately" true
    (b_r.Serve.Response.trace_id <> first.Serve.Response.trace_id);
  Alcotest.(check string) "b's shard" "b" b_r.Serve.Response.shard;
  (* only a's shard holds a's memo entry *)
  (match Serve.Cluster.stats cluster with
  | [ ("a", a_st); ("b", b_st) ] ->
    Alcotest.(check int) "one memo entry per shard" 1
      a_st.Serve.decisions.Serve.entries;
    Alcotest.(check int) "b has its own entry" 1
      b_st.Serve.decisions.Serve.entries
  | _ -> Alcotest.fail "stats must list tenants in declaration order");
  (* windows of 2: the third duplicate opens a window of its own *)
  let windowed = Serve.Cluster.create ~queue_depth:2 ~tenants:[ ("a", gpm) ] () in
  ignore (Serve.Cluster.run windowed [ req "a"; req "a"; req "a" ]);
  Alcotest.(check int) "coalesced within a window only" 1
    (Serve.Cluster.coalesced windowed)

(* swapping one tenant's model touches only that shard: the other
   tenant's memo entries survive and still hit *)
let test_cluster_isolated_invalidation () =
  let g_snow = gpm_of snow_grammar in
  let cluster =
    Serve.Cluster.create ~tenants:[ ("a", g_snow); ("b", g_snow) ] ()
  in
  let warm tenant =
    served_exn (Serve.Cluster.decide cluster (treq tenant snow [ "accept"; "reject" ]))
  in
  ignore (warm "a");
  ignore (warm "b");
  let b_entries () =
    (List.assoc "b" (Serve.Cluster.stats cluster)).Serve.decisions.Serve.entries
  in
  Alcotest.(check int) "b's memo warmed" 1 (b_entries ());
  (* a version-bumped model for a: clears a's memo, must not touch b *)
  Serve.Cluster.set_gpm cluster ~tenant:"a"
    (Asg.Gpm.with_context g_snow Asp.Program.empty);
  Alcotest.(check int) "b's memo untouched" 1 (b_entries ());
  Alcotest.(check int) "a's memo cleared" 0
    (List.assoc "a" (Serve.Cluster.stats cluster)).Serve.decisions.Serve.entries;
  let rb = warm "b" in
  Alcotest.(check string) "b still served from its memo" "memo"
    (prov rb.Serve.Response.provenance);
  Alcotest.check_raises "unknown tenant"
    (Invalid_argument "Serve.Cluster.set_gpm: unknown tenant ghost")
    (fun () -> Serve.Cluster.set_gpm cluster ~tenant:"ghost" g_snow)

(* the tenant-isolation differential: random multi-tenant streams over
   shards running different models — and t3 sharing t0's model value,
   so its compiled view — must, at every pool size, return exactly what
   each tenant's own model returns uncached: shard state never leaks
   across tenants, and outcomes never depend on domains *)
let cluster_differential_prop =
  let grammars = [| snow_grammar; sun_only_grammar; free_grammar |] in
  let tenant_names = [| "t0"; "t1"; "t2"; "t3" |] in
  let tenant_model = [| 0; 1; 2; 0 |] in
  let contexts = [| snow; sun; fog; Asp.Program.empty |] in
  let option_sets =
    [| [ "accept"; "reject" ]; [ "reject"; "accept" ]; [ "accept" ] |]
  in
  let gen_req =
    QCheck2.Gen.(
      map2
        (fun t (c, o) -> (t, c, o))
        (int_bound (Array.length tenant_names - 1))
        (pair
           (int_bound (Array.length contexts - 1))
           (int_bound (Array.length option_sets - 1))))
  in
  QCheck2.Test.make
    ~name:"cluster decisions = each tenant's uncached model, at 1/2/4 domains"
    ~count:15
    QCheck2.Gen.(list_size (int_range 4 20) gen_req)
    (fun stream ->
      let models = Array.map gpm_of grammars in
      let reqs =
        List.map
          (fun (t, c, o) ->
            treq tenant_names.(t) contexts.(c) option_sets.(o))
          stream
      in
      let reference =
        List.map
          (fun (t, c, o) ->
            Serve.decide_uncached models.(tenant_model.(t))
              (request contexts.(c) option_sets.(o)))
          stream
      in
      List.for_all
        (fun domains ->
          let pool = Par.create ~domains () in
          let cluster =
            Serve.Cluster.create ~queue_depth:4
              ~tenants:
                (Array.to_list
                   (Array.map2
                      (fun n m -> (n, models.(m)))
                      tenant_names tenant_model))
              ()
          in
          let outcomes = Serve.Cluster.run ~pool cluster reqs in
          Par.shutdown pool;
          List.for_all2
            (fun (t, _, _) (reference, outcome) ->
              match outcome with
              | Serve.Cluster.Rejected _ -> false
              | Serve.Cluster.Served r ->
                Serve.Decision.equal reference r.Serve.Response.decision
                && r.Serve.Response.shard = tenant_names.(t))
            stream
            (List.combine reference outcomes))
        [ 1; 2; 4 ])

(* ---- an AMS routed through a tenant shard ----------------------------- *)

(* An AMS whose PDP routes through its shard of a cluster (which also
   serves another tenant) makes the same decision at every request, and
   relearns as often, as the same AMS deciding without the cluster:
   adaptations reach the shard through [set_gpm]. The truth admits
   accept only in sun; the initial model forbids it only in snow. *)
let ams_shard_prop =
  let spec : Agenp.Prep.pbms_spec =
    { Agenp.Prep.grammar_text = snow_grammar; global_constraints = [] }
  in
  let space =
    Ilp.Hypothesis_space.of_rules
      [
        (":- result(accept)@1, weather(fog).", [ 0 ]);
        (":- result(accept)@1, weather(snow).", [ 0 ]);
        (":- result(reject)@1, weather(sun).", [ 0 ]);
      ]
  in
  let contexts =
    [|
      snow; sun; fog; Asp.Program.empty;
      ctx "weather(sun). attr(subject, id, u1).";
    |]
  in
  let weather_sun = Asp.Atom.make "weather" [ Asp.Term.Fun ("sun", []) ] in
  let env audit_rate : Agenp.Ams.environment =
    {
      Agenp.Ams.options = [ "accept"; "reject" ];
      oracle =
        (fun context opt ->
          let sunny =
            List.exists (Asp.Atom.equal weather_sun) (Asp.Program.facts context)
          in
          if opt = "accept" then sunny else not sunny);
      audit_rate;
    }
  in
  QCheck2.Test.make ~name:"ams through a tenant shard = without" ~count:40
    ~long_factor:10
    ~print:QCheck2.Print.(triple int float (list (option int)))
    QCheck2.Gen.(
      triple (int_bound 1000) (oneofl [ 0.0; 0.5 ])
        (list_size (int_range 5 40)
           (frequency
              [
                (8, map Option.some (int_bound (Array.length contexts - 1)));
                (1, return None);
              ])))
    (fun (seed, audit_rate, stream) ->
      let run ~routed =
        let padap_config =
          { (Agenp.Padap.default_config space) with Agenp.Padap.window = 4 }
        in
        let ams =
          Agenp.Ams.create ~name:"m" ~seed ~spec ~space ~padap_config
            (env audit_rate)
        in
        if routed then begin
          let cluster =
            Serve.Cluster.create
              ~tenants:
                [ ("other", gpm_of sun_only_grammar); ("m", Agenp.Ams.gpm ams) ]
              ()
          in
          Agenp.Ams.attach_engine ams (Serve.Tenant (cluster, "m"))
        end;
        let decisions =
          List.filter_map
            (function
              | None ->
                Agenp.Ams.signal_context_change ams;
                None
              | Some c ->
                let record = Agenp.Ams.handle_request ams contexts.(c) in
                Some record.Agenp.Pep.decision)
            stream
        in
        (decisions, Agenp.Ams.relearn_count ams)
      in
      let decisions, relearns = run ~routed:false in
      let routed_decisions, routed_relearns = run ~routed:true in
      List.equal Serve.Decision.equal decisions routed_decisions
      && relearns = routed_relearns)

let () =
  Alcotest.run "serve"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "replace promotes" `Quick test_lru_replace_promotes;
          Alcotest.test_case "clear" `Quick test_lru_clear;
        ] );
      ( "hashing",
        [
          Alcotest.test_case "program fingerprint" `Quick test_fingerprint;
        ] );
      ( "engine",
        [
          Alcotest.test_case "no options" `Quick test_no_options;
          Alcotest.test_case "provenance" `Quick test_provenance;
          Alcotest.test_case "shared compiled view" `Quick
            test_shared_compiled_view;
          Alcotest.test_case "set_gpm invalidates" `Quick test_set_gpm_invalidates;
          Alcotest.test_case "memo keys on reads" `Quick test_memo_keys_on_reads;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest differential_prop ]);
      ( "batch",
        [
          Alcotest.test_case "determinism" `Quick test_batch_determinism;
          Alcotest.test_case "deadline determinism" `Quick
            test_batch_deadline_determinism;
        ] );
      ( "ops",
        [
          Alcotest.test_case "audit records decisions" `Quick
            test_audit_records_decisions;
          Alcotest.test_case "audit wraparound" `Quick test_audit_wraparound;
          Alcotest.test_case "audit JSONL round-trip" `Quick
            test_audit_jsonl_roundtrip;
          Alcotest.test_case "batch trace ids" `Quick test_batch_trace_ids;
          Alcotest.test_case "stats JSON" `Quick test_stats_json;
          Alcotest.test_case "audit disabled" `Quick test_audit_disabled;
          Alcotest.test_case "live /metrics scrape" `Quick test_metrics_scrape;
          Alcotest.test_case "silent /metrics client" `Quick
            test_metrics_silent_client;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "create validation" `Quick
            test_cluster_create_validation;
          Alcotest.test_case "unknown tenant" `Quick
            test_cluster_unknown_tenant;
          Alcotest.test_case "coalescing" `Quick test_cluster_coalescing;
          Alcotest.test_case "isolated invalidation" `Quick
            test_cluster_isolated_invalidation;
          QCheck_alcotest.to_alcotest cluster_differential_prop;
          QCheck_alcotest.to_alcotest ams_shard_prop;
        ] );
    ]
