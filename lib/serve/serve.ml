(* The decision-serving engine. See serve.mli for the design; the
   invariant that matters throughout is that the decision memo holds a
   pure function of its key — decisions of (model version, context
   projected onto what the model reads, options) — so it can change
   latency and provenance but never the decision. The same holds for
   the model's compiled view, which the engine decides through and
   keeps no copy of. It carries to the multi-tenant cluster: shards
   share no mutable state of their own, so sharding and coalescing
   change scheduling, never outcomes. *)

module Lru = Lru
module Audit = Audit
module Metrics = Metrics

exception No_options

module Request = struct
  type t = {
    context : Asp.Program.t;
    options : string list;
    deadline : float option;
    tenant : string;
  }

  let make ?deadline ?(tenant = "default") ~context ~options () =
    { context; options; deadline; tenant }
end

module Decision = struct
  type t = {
    chosen : string;
    valid_options : string list;
    fallback_used : bool;
    compliant : bool option;
  }

  let equal a b =
    String.equal a.chosen b.chosen
    && List.equal String.equal a.valid_options b.valid_options
    && Bool.equal a.fallback_used b.fallback_used
    && Option.equal Bool.equal a.compliant b.compliant

  let pp ppf d =
    Fmt.pf ppf "%s%s%a" d.chosen
      (if d.fallback_used then " (fallback)" else "")
      (fun ppf -> function
        | None -> ()
        | Some c -> Fmt.pf ppf " [%s]" (if c then "compliant" else "violation"))
      d.compliant
end

type provenance = Cold | Ground_hit | Memo_hit

let provenance_to_string = function
  | Cold -> "cold"
  | Ground_hit -> "ground"
  | Memo_hit -> "memo"

module Response = struct
  type t = {
    decision : Decision.t;
    trace_id : string;
    provenance : provenance;
    latency : float;
    gpm_version : int;
    deadline_missed : bool;
    shard : string;
  }
end

module Config = struct
  type caching = { decision_cache : int }
  type audit = { capacity : int }
  type slo = { target : float option; objective : float; window : float }
  type t = { caching : caching; audit : audit; slo : slo }

  let default =
    {
      caching = { decision_cache = 256 };
      audit = { capacity = 1024 };
      slo = { target = None; objective = 0.99; window = 60.0 };
    }
end

type tier_stats = {
  hits : int;
  misses : int;
  evictions : int;
  collisions : int;
  entries : int;
  cap : int;
}

type ground_stats = { hits : int; misses : int }

type delta_stats = {
  delta_grounds : int;
  delta_facts : int;
  delta_rules : int;
  fallbacks : int;
}

type stats = {
  decisions : tier_stats;
  grounds : ground_stats;
  delta : delta_stats;
}

let rate hits misses =
  let n = hits + misses in
  if n = 0 then 0.0 else float_of_int hits /. float_of_int n

let hit_rate (s : tier_stats) = rate s.hits s.misses
let ground_hit_rate (s : ground_stats) = rate s.hits s.misses

let pp_stats ppf s =
  let d = s.decisions and g = s.grounds and x = s.delta in
  Fmt.pf ppf
    "decisions: %d/%d entries, %d hit(s), %d miss(es), %d eviction(s), %d \
     collision(s), rate %.2f@."
    d.entries d.cap d.hits d.misses d.evictions d.collisions (hit_rate d);
  Fmt.pf ppf "grounds:   %d hit(s), %d miss(es), rate %.2f@." g.hits g.misses
    (ground_hit_rate g);
  Fmt.pf ppf "delta:     %d ground(s), %d fact(s), %d rule(s) added, %d \
              fallback(s)"
    x.delta_grounds x.delta_facts x.delta_rules x.fallbacks

(* Process-wide counters, created on first engine use rather than at
   module initialization so that runs that never serve (plain `agenp
   solve` etc.) keep their counter tables unchanged. *)
type counters = {
  c_requests : Obs.Counter.t;
  cd_hits : Obs.Counter.t;
  cd_misses : Obs.Counter.t;
  cd_evictions : Obs.Counter.t;
  cd_collisions : Obs.Counter.t;
  cg_hits : Obs.Counter.t;
  cg_misses : Obs.Counter.t;
  cs_delta_grounds : Obs.Counter.t;
  cs_delta_facts : Obs.Counter.t;
  cs_delta_rules : Obs.Counter.t;
  cs_delta_fallbacks : Obs.Counter.t;
  w_decide : Obs.Window.t;
}

let counters =
  lazy
    {
      c_requests = Obs.Counter.make "serve.requests";
      cd_hits = Obs.Counter.make "serve.decision_cache.hits";
      cd_misses = Obs.Counter.make "serve.decision_cache.misses";
      cd_evictions = Obs.Counter.make "serve.decision_cache.evictions";
      cd_collisions = Obs.Counter.make "serve.decision_cache.collisions";
      cg_hits = Obs.Counter.make "serve.ground_cache.hits";
      cg_misses = Obs.Counter.make "serve.ground_cache.misses";
      cs_delta_grounds = Obs.Counter.make "serve.delta.grounds";
      cs_delta_facts = Obs.Counter.make "serve.delta.facts";
      cs_delta_rules = Obs.Counter.make "serve.delta.rules";
      cs_delta_fallbacks = Obs.Counter.make "serve.delta.fallbacks";
      w_decide = Obs.Window.make "serve.decide";
    }

(* ---- the decision core ------------------------------------------------ *)

let decide_with ~(membership : string -> bool) (options : string list) :
    Decision.t =
  if options = [] then raise No_options;
  let valid_options = List.filter membership options in
  match valid_options with
  | chosen :: _ ->
    { Decision.chosen; valid_options; fallback_used = false; compliant = None }
  | [] ->
    let fallback = List.hd (List.rev options) in
    {
      Decision.chosen = fallback;
      valid_options = [];
      fallback_used = true;
      compliant = None;
    }

let decide_uncached (gpm : Asg.Gpm.t) (req : Request.t) : Decision.t =
  decide_with req.options
    ~membership:(fun opt ->
      Asg.Membership.accepts_uncompiled ~context:req.context gpm
        (Asg.Membership.tokenize opt))

(* ---- the engine ------------------------------------------------------- *)

type memo_key = int * int * string list
(* (gpm version, context fingerprint, options) *)

type t = {
  name : string;  (** shard provenance on responses *)
  mutable gpm : Asg.Gpm.t;
  cfg : Config.t;
  memo : (memo_key, Asp.Program.t * Decision.t) Lru.t;
      (** the stored context confirms fingerprint hits *)
  mu : Mutex.t;  (** guards the memo and the stat mirrors *)
  mutable d_hits : int;
  mutable d_misses : int;
  mutable d_collisions : int;
      (** memo entries displaced by fingerprint-collision replacement
          (resident key, structurally different context) *)
  mutable g_hits : int;
  mutable g_misses : int;
  mutable n_delta_grounds : int;
  mutable n_delta_facts : int;
  mutable n_delta_rules : int;
  mutable n_fallbacks : int;
  audit : Audit.t option;
  slo : Obs.Slo.t option;
}

let create ?(name = "default") ?(config = Config.default) gpm =
  ignore (Lazy.force counters);
  {
    name;
    gpm;
    cfg = config;
    memo = Lru.create ~capacity:config.Config.caching.Config.decision_cache ();
    mu = Mutex.create ();
    d_hits = 0;
    d_misses = 0;
    d_collisions = 0;
    g_hits = 0;
    g_misses = 0;
    n_delta_grounds = 0;
    n_delta_facts = 0;
    n_delta_rules = 0;
    n_fallbacks = 0;
    audit =
      (if config.Config.audit.Config.capacity > 0 then
         Some (Audit.create ~capacity:config.Config.audit.Config.capacity)
       else None);
    slo =
      Option.map
        (fun target ->
          Obs.Slo.make ~objective:config.Config.slo.Config.objective
            ~window:config.Config.slo.Config.window ~target "serve.decide")
        config.Config.slo.Config.target;
  }

let name t = t.name
let gpm t = t.gpm
let config t = t.cfg
let audit t = t.audit
let slo t = t.slo

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let set_gpm t gpm =
  if Asg.Gpm.version gpm <> Asg.Gpm.version t.gpm then begin
    t.gpm <- gpm;
    (* the version key already makes old entries unreachable; clearing
       reclaims their memory immediately (adaptation is rare, requests
       are not) *)
    locked t (fun () -> Lru.clear t.memo)
  end

let stats t =
  locked t (fun () ->
      {
        decisions =
          {
            hits = t.d_hits;
            misses = t.d_misses;
            evictions = Lru.evictions t.memo;
            collisions = t.d_collisions;
            entries = Lru.length t.memo;
            cap = Lru.capacity t.memo;
          };
        grounds = { hits = t.g_hits; misses = t.g_misses };
        delta =
          {
            delta_grounds = t.n_delta_grounds;
            delta_facts = t.n_delta_facts;
            delta_rules = t.n_delta_rules;
            fallbacks = t.n_fallbacks;
          };
      })

let stats_to_json t =
  let s = stats t in
  let d = s.decisions in
  let audit_part =
    match t.audit with
    | Some ring ->
      Printf.sprintf "{\"capacity\": %d, \"retained\": %d, \"total\": %d}"
        (Audit.capacity ring) (Audit.length ring) (Audit.total ring)
    | None -> "null"
  in
  let health_part =
    let signal h =
      Printf.sprintf
        "{\"signal\": \"%s\", \"observations\": %d, \"positives\": %d, \
         \"rate\": %.6f, \"overall_rate\": %.6f, \"alarms\": %d}"
        (Obs.Health.name h)
        (Obs.Health.observations h)
        (Obs.Health.positives h) (Obs.Health.rate h)
        (Obs.Health.overall_rate h)
        (Obs.Health.alarms h)
    in
    let signals =
      List.filter (fun h -> Obs.Health.observations h > 0) (Obs.Health.all ())
    in
    Printf.sprintf "{\"signals\": [%s], \"events\": %d}"
      (String.concat ", " (List.map signal signals))
      (Obs.Health.events_total ())
  in
  Printf.sprintf
    "{\"schema\": \"serve-stats/5\", \"gpm_version\": %d, \"requests\": %d, \
     \"decision_cache\": {\"hits\": %d, \"misses\": %d, \"evictions\": %d, \
     \"collisions\": %d, \"entries\": %d, \"capacity\": %d, \"hit_rate\": \
     %.6f}, \"ground_cache\": {\"hits\": %d, \"misses\": %d, \"hit_rate\": \
     %.6f}, \"delta\": {\"grounds\": %d, \"facts\": %d, \"rules_added\": %d, \
     \"fallbacks\": %d}, \"audit\": %s, \"health\": %s}"
    (Asg.Gpm.version t.gpm) (d.hits + d.misses) d.hits d.misses d.evictions
    d.collisions d.entries d.cap (hit_rate d) s.grounds.hits s.grounds.misses
    (ground_hit_rate s.grounds) s.delta.delta_grounds s.delta.delta_facts
    s.delta.delta_rules s.delta.fallbacks audit_part health_part

let openmetrics t =
  let s = stats t in
  let tier = [ ("tier", "decision") ] in
  Obs.Openmetrics.render
    ~extra:
      [
        ("serve.cache.entries", tier, float_of_int s.decisions.entries);
        ("serve.cache.capacity", tier, float_of_int s.decisions.cap);
        ("serve.cache.hit_rate", tier, hit_rate s.decisions);
        ( "serve.cache.hit_rate",
          [ ("tier", "ground") ],
          ground_hit_rate s.grounds );
        ("serve.cache.collisions", tier, float_of_int s.decisions.collisions);
      ]
    ()

let decide t (req : Request.t) : Response.t =
  let c = Lazy.force counters in
  (* the request-scoped identity: reuse the ambient trace (a batch or
     PDP scope) or root a fresh one, so the serve.decide span, any
     membership/grounder/solver spans and log lines beneath it, and the
     audit record all carry the same ID *)
  Obs.Trace_context.scope @@ fun trace_id ->
  Obs.span "serve.decide"
    ~attrs:[ ("options", string_of_int (List.length req.options)) ]
  @@ fun () ->
  Obs.Counter.incr c.c_requests;
  let t0 = Obs.now () in
  if req.options = [] then raise No_options;
  let gpm = t.gpm in
  let version = Asg.Gpm.version gpm in
  (* the memo keys on what the model reads: requests that differ only
     in facts the model cannot read share one entry *)
  let context = Asg.Membership.project gpm req.context in
  let ctx_fp = Asp.Program.fingerprint context in
  let key = (version, ctx_fp, req.options) in
  let memo = locked t (fun () -> Lru.find t.memo key) in
  (* the compiled view's work for this request: every tree it decided,
     and the cores it had to compile first *)
  let tally = Asg.Membership.tally () in
  let decision, provenance =
    match memo with
    | Some (ctx0, d) when Asp.Program.equal ctx0 context ->
      locked t (fun () -> t.d_hits <- t.d_hits + 1);
      Obs.Counter.incr c.cd_hits;
      (d, Memo_hit)
    | _ ->
      (* a resident entry that failed the equality confirm is a
         fingerprint collision; the add below replaces it in place *)
      let collision = Option.is_some memo in
      Obs.Counter.incr c.cd_misses;
      if collision then Obs.Counter.incr c.cd_collisions;
      let d =
        decide_with req.options
          ~membership:(Asg.Membership.accepts_in_context ~tally gpm ~context)
      in
      (* a rule-bearing context decides from scratch and leaves the
         tally at zero; tree checks under a non-empty fact context are
         delta grounds *)
      let delta_grounds, fallbacks =
        match Asp.Program.ground_facts context with
        | None -> (0, 1)
        | Some [] -> (0, 0)
        | Some _ -> (tally.trees, 0)
      in
      let g_hits = tally.trees - tally.compiles in
      locked t (fun () ->
          t.d_misses <- t.d_misses + 1;
          if collision then t.d_collisions <- t.d_collisions + 1;
          t.g_hits <- t.g_hits + g_hits;
          t.g_misses <- t.g_misses + tally.compiles;
          t.n_delta_grounds <- t.n_delta_grounds + delta_grounds;
          t.n_delta_facts <- t.n_delta_facts + tally.facts;
          t.n_delta_rules <- t.n_delta_rules + tally.rules;
          t.n_fallbacks <- t.n_fallbacks + fallbacks;
          match Lru.add t.memo key (context, d) with
          | Some _ -> Obs.Counter.incr c.cd_evictions
          | None -> ());
      Obs.Counter.incr c.cg_hits ~by:g_hits;
      Obs.Counter.incr c.cg_misses ~by:tally.compiles;
      Obs.Counter.incr c.cs_delta_grounds ~by:delta_grounds;
      Obs.Counter.incr c.cs_delta_facts ~by:tally.facts;
      Obs.Counter.incr c.cs_delta_rules ~by:tally.rules;
      Obs.Counter.incr c.cs_delta_fallbacks ~by:fallbacks;
      (* a [Ground_hit] decided at least one tree and compiled none *)
      (d, if tally.trees > 0 && tally.compiles = 0 then Ground_hit else Cold)
  in
  let latency = Obs.now () -. t0 in
  Obs.set_attr "provenance" (provenance_to_string provenance);
  Obs.Window.observe c.w_decide latency;
  Option.iter (fun slo -> Obs.Slo.record slo latency) t.slo;
  (match t.audit with
  | Some ring ->
    ignore
      (Audit.add ring ~ts:(Obs.now ()) ~trace_id ~context_fp:ctx_fp
         ~gpm_version:version ~options:req.options
         ~chosen:decision.Decision.chosen
         ~fallback_used:decision.Decision.fallback_used
         ~compliant:decision.Decision.compliant
         ~provenance:(provenance_to_string provenance)
         ~ground_hits:(tally.trees - tally.compiles)
         ~ground_misses:tally.compiles ~latency)
  | None -> ());
  {
    Response.decision;
    trace_id;
    provenance;
    latency;
    gpm_version = version;
    deadline_missed =
      (match req.deadline with Some d -> latency > d | None -> false);
    shard = t.name;
  }

module Batch = struct
  let run ?pool t (reqs : Request.t list) : Response.t list =
    match reqs with
    | [] -> []
    | _ ->
      (* the batch runs under one trace scope; each request gets its
         own child ID at submission time (deterministic in input
         order), installed around its decide on whichever pool domain
         runs it — IDs stay unique per request and chain to the batch *)
      Obs.Trace_context.scope @@ fun _batch_id ->
      Obs.span "serve.batch"
        ~attrs:[ ("requests", string_of_int (List.length reqs)) ]
      @@ fun () ->
      let pool = match pool with Some p -> p | None -> Par.Config.pool () in
      let submitted =
        Array.map
          (fun req -> (Obs.Trace_context.child_id (), req))
          (Array.of_list reqs)
      in
      Array.to_list
        (Par.parallel_map pool
           (fun (id, req) -> Obs.Trace_context.with_id id (fun () -> decide t req))
           submitted)
end

(* ---- sharded multi-tenant serving ------------------------------------- *)

type engine = t

let engine_stats = stats

module Shard = struct
  type t = {
    sh_tenant : string;
    sh_engine : engine;
    sh_window : Obs.Window.t;  (** per-tenant rolling latency *)
    sh_fallbacks : Obs.Health.t;  (** per-tenant fallback signal *)
    sh_served : int Atomic.t;
  }

  let make ?config tenant gpm =
    {
      sh_tenant = tenant;
      sh_engine = create ~name:tenant ?config gpm;
      sh_window = Obs.Window.make ("serve.shard." ^ tenant);
      sh_fallbacks = Obs.Health.make ("serve.shard." ^ tenant ^ ".fallbacks");
      sh_served = Atomic.make 0;
    }

  let tenant sh = sh.sh_tenant
  let engine sh = sh.sh_engine
  let served sh = Atomic.get sh.sh_served

  (* The shard-owned serve path: the engine decides, the shard's own
     telemetry observes. Called from pool domains during a run. *)
  let serve sh (req : Request.t) : Response.t =
    let r = decide sh.sh_engine req in
    Obs.Window.observe sh.sh_window r.Response.latency;
    Obs.Health.observe ~version:r.Response.gpm_version sh.sh_fallbacks
      r.Response.decision.Decision.fallback_used;
    Atomic.incr sh.sh_served;
    r
end

module Cluster = struct
  type reject_reason = Unknown_tenant

  let reject_reason_to_string Unknown_tenant = "unknown_tenant"

  type outcome = Served of Response.t | Rejected of reject_reason

  type t = {
    cl_shards : (string * Shard.t) list;  (** tenant declaration order *)
    cl_window : int;  (** requests per coalescing window *)
    cl_coalesced : int Atomic.t;
    cl_rejected : int Atomic.t;
    c_coalesced : Obs.Counter.t;
        (** the process-wide [serve.cluster.*] counters, registered when
            a cluster is created, not by every engine *)
    c_rejected : Obs.Counter.t;
  }

  let create ?config ?(queue_depth = 64) ~tenants () =
    if tenants = [] then
      invalid_arg "Serve.Cluster.create: at least one tenant required";
    if queue_depth < 1 then
      invalid_arg "Serve.Cluster.create: queue_depth must be >= 1";
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (name, _) ->
        if Hashtbl.mem seen name then
          invalid_arg ("Serve.Cluster.create: duplicate tenant " ^ name);
        Hashtbl.add seen name ())
      tenants;
    {
      cl_shards =
        List.map (fun (name, gpm) -> (name, Shard.make ?config name gpm)) tenants;
      cl_window = queue_depth;
      cl_coalesced = Atomic.make 0;
      cl_rejected = Atomic.make 0;
      c_coalesced = Obs.Counter.make "serve.cluster.coalesced";
      c_rejected = Obs.Counter.make "serve.cluster.rejected";
    }

  let tenants t = List.map fst t.cl_shards
  let shard t tenant = List.assoc_opt tenant t.cl_shards
  let shards t = List.map snd t.cl_shards
  let queue_depth t = t.cl_window
  let coalesced t = Atomic.get t.cl_coalesced
  let rejected t = Atomic.get t.cl_rejected

  let set_gpm t ~tenant gpm =
    match shard t tenant with
    | Some sh -> set_gpm (Shard.engine sh) gpm
    | None -> invalid_arg ("Serve.Cluster.set_gpm: unknown tenant " ^ tenant)

  let reject t =
    Atomic.incr t.cl_rejected;
    Obs.Counter.incr t.c_rejected;
    Rejected Unknown_tenant

  let decide t (req : Request.t) : outcome =
    match shard t req.Request.tenant with
    | None -> reject t
    | Some sh -> Served (Shard.serve sh req)

  (* Serve one window of routed requests into [out]. Each request gets
     its child trace ID in stream order. Identical (tenant, context
     fingerprint, options) requests coalesce onto their first
     occurrence, with the context confirmed by structural equality — a
     fingerprint collision never merges two distinct requests. The
     representatives fan across the pool in first-occurrence order, and
     every member takes its representative's response. *)
  let serve_window pool t (out : outcome array)
      (window : (int * Request.t * Shard.t) list) =
    let groups = Hashtbl.create 16 in
    let reps = ref [] and n_reps = ref 0 in
    let members =
      List.map
        (fun (i, (req : Request.t), sh) ->
          let id = Obs.Trace_context.child_id () in
          let key =
            (req.tenant, Asp.Program.fingerprint req.context, req.options)
          in
          let bucket = Option.value ~default:[] (Hashtbl.find_opt groups key) in
          match
            List.find_opt
              (fun (ctx, _) -> Asp.Program.equal ctx req.context)
              bucket
          with
          | Some (_, rep) -> (i, rep)
          | None ->
            let rep = !n_reps in
            incr n_reps;
            Hashtbl.replace groups key ((req.context, rep) :: bucket);
            reps := (id, req, sh) :: !reps;
            (i, rep))
        window
    in
    let n_coalesced = List.length window - !n_reps in
    if n_coalesced > 0 then begin
      ignore (Atomic.fetch_and_add t.cl_coalesced n_coalesced);
      Obs.Counter.incr t.c_coalesced ~by:n_coalesced
    end;
    let responses =
      Par.parallel_map pool
        (fun (id, req, sh) ->
          Obs.Trace_context.with_id id (fun () -> Shard.serve sh req))
        (Array.of_list (List.rev !reps))
    in
    List.iter (fun (i, rep) -> out.(i) <- Served responses.(rep)) members

  let run ?pool t (reqs : Request.t list) : outcome list =
    Obs.Trace_context.scope @@ fun _run_id ->
    let pool = match pool with Some p -> p | None -> Par.Config.pool () in
    let out = Array.make (List.length reqs) (Rejected Unknown_tenant) in
    let window = ref [] and len = ref 0 in
    let flush () =
      if !len > 0 then serve_window pool t out (List.rev !window);
      window := [];
      len := 0
    in
    List.iteri
      (fun i (req : Request.t) ->
        match shard t req.Request.tenant with
        | None -> out.(i) <- reject t
        | Some sh ->
          window := (i, req, sh) :: !window;
          incr len;
          if !len = t.cl_window then flush ())
      reqs;
    flush ();
    Array.to_list out

  let stats t =
    List.map (fun (name, sh) -> (name, engine_stats (Shard.engine sh))) t.cl_shards

  let openmetrics t =
    let shard_extra =
      List.concat_map
        (fun (tenant, sh) ->
          let s = engine_stats (Shard.engine sh) in
          let labels tier = [ ("tenant", tenant); ("tier", tier) ] in
          [
            ( "serve.shard.requests",
              [ ("tenant", tenant) ],
              float_of_int (Shard.served sh) );
            ( "serve.shard.cache.entries",
              labels "decision",
              float_of_int s.decisions.entries );
            ("serve.shard.cache.hit_rate", labels "decision", hit_rate s.decisions);
            ( "serve.shard.cache.collisions",
              labels "decision",
              float_of_int s.decisions.collisions );
            ( "serve.shard.cache.hit_rate",
              labels "ground",
              ground_hit_rate s.grounds );
          ])
        t.cl_shards
    in
    Obs.Openmetrics.render
      ~extra:
        (("serve.cluster.queue.depth", [], float_of_int t.cl_window)
        :: shard_extra)
      ()
end

type target = Engine of t | Tenant of Cluster.t * string
