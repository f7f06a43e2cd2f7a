(* The decision-serving engine. See serve.mli for the cache design; the
   invariant that matters throughout is that every cached artifact is a
   pure function of its key — ground programs of the induced program,
   decisions of (model version, context, options) — so caching can change
   latency and provenance but never the decision. The same invariant
   carries to the multi-tenant cluster: shards share nothing mutable, so
   sharding and coalescing change scheduling, never outcomes. *)

module Lru = Lru
module Audit = Audit
module Metrics = Metrics

exception No_options

module Request = struct
  type t = {
    context : Asp.Program.t;
    options : string list;
    priority : int;
    deadline : float option;
    tenant : string;
  }

  let make ?(priority = 0) ?deadline ?(tenant = "default") ~context ~options
      () =
    { context; options; priority; deadline; tenant }
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
  type caching = { decision_cache : int; ground_cache : int }
  type audit = { capacity : int }
  type slo = { target : float option; objective : float; window : float }
  type t = { caching : caching; audit : audit; slo : slo }

  let default =
    {
      caching = { decision_cache = 256; ground_cache = 512 };
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

type delta_stats = {
  delta_grounds : int;
  delta_facts : int;
  delta_rules : int;
  fallbacks : int;
}

type stats = {
  decisions : tier_stats;
  grounds : tier_stats;
  delta : delta_stats;
}

let hit_rate (s : tier_stats) =
  let n = s.hits + s.misses in
  if n = 0 then 0.0 else float_of_int s.hits /. float_of_int n

let pp_tier ppf (s : tier_stats) =
  Fmt.pf ppf
    "%d/%d entries, %d hit(s), %d miss(es), %d eviction(s), %d collision(s), \
     rate %.2f"
    s.entries s.cap s.hits s.misses s.evictions s.collisions (hit_rate s)

let pp_delta ppf (d : delta_stats) =
  Fmt.pf ppf "%d ground(s), %d fact(s), %d rule(s) added, %d fallback(s)"
    d.delta_grounds d.delta_facts d.delta_rules d.fallbacks

let pp_stats ppf s =
  Fmt.pf ppf "decisions: %a@.grounds:   %a@.delta:     %a" pp_tier s.decisions
    pp_tier s.grounds pp_delta s.delta

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
  cg_evictions : Obs.Counter.t;
  cg_collisions : Obs.Counter.t;
  cs_delta_grounds : Obs.Counter.t;
  cs_delta_facts : Obs.Counter.t;
  cs_delta_rules : Obs.Counter.t;
  cs_delta_fallbacks : Obs.Counter.t;
  cl_coalesced : Obs.Counter.t;
  cl_rejected : Obs.Counter.t;
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
      cg_evictions = Obs.Counter.make "serve.ground_cache.evictions";
      cg_collisions = Obs.Counter.make "serve.ground_cache.collisions";
      cs_delta_grounds = Obs.Counter.make "serve.delta.grounds";
      cs_delta_facts = Obs.Counter.make "serve.delta.facts";
      cs_delta_rules = Obs.Counter.make "serve.delta.rules";
      cs_delta_fallbacks = Obs.Counter.make "serve.delta.fallbacks";
      cl_coalesced = Obs.Counter.make "serve.cluster.coalesced";
      cl_rejected = Obs.Counter.make "serve.cluster.rejected";
      w_decide = Obs.Window.make "serve.decide";
    }

(* ---- the decision core ------------------------------------------------ *)

(** First valid option, or the last option as a flagged fail-safe —
    exactly the PDP semantics, shared by cached and uncached paths.
    [membership] decides one option. *)
let decide_core ~(membership : string -> bool) (options : string list) :
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
  decide_core req.options
    ~membership:(fun opt ->
      Asg.Membership.accepts_in_context gpm ~context:req.context opt)

(* ---- the engine ------------------------------------------------------- *)

type memo_key = int * int * string list
(* (gpm version, context fingerprint, options) *)

(* Per-request ground-cache accounting: every membership check of a
   request (one per parse tree per option) bumps exactly one of these, so
   provenance can be derived from the full set instead of a single
   any-tree-hit flag. *)
type req_counts = { mutable rq_hits : int; mutable rq_misses : int }

(* A ground-cache entry: the frozen incremental core plus its precompiled
   solver state, so the hot path pays neither regrounding nor solver-core
   recompilation. Both halves are immutable and keyed by the same core
   program. *)
type centry = {
  ce_core : Asp.Grounder.Incremental.core;
  ce_prepared : Asp.Solver.prepared;
}

type t = {
  name : string;  (** shard provenance on responses *)
  mutable gpm : Asg.Gpm.t;
  cfg : Config.t;
  memo : (memo_key, Asp.Program.t * Decision.t) Lru.t;
      (** the stored context confirms fingerprint hits *)
  grounds : (int, centry) Lru.t;
      (** {e core}-program fingerprint -> frozen incremental core with
          its prepared solver state; the stored core's program confirms
          fingerprint hits *)
  trees :
    ( int * string,
      (Grammar.Parse_tree.t * Asp.Program.t * int) list )
    Hashtbl.t;
      (** (gpm version, option) -> parse trees with their context-free
          induced programs and the programs' fingerprints (precomputed:
          they key the ground cache on every membership check); bounded
          by the option vocabulary *)
  mu : Mutex.t;  (** guards all tiers and the stat mirrors *)
  mutable d_hits : int;
  mutable d_misses : int;
  mutable d_collisions : int;
      (** memo entries displaced by fingerprint-collision replacement
          (resident key, structurally different context) *)
  mutable g_hits : int;
  mutable g_misses : int;
  mutable g_collisions : int;
      (** ground entries displaced by fingerprint-collision replacement
          (the [Lru.add] value-replace path, invisible to
          [Lru.evictions] — and not a capacity eviction) *)
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
    grounds = Lru.create ~capacity:config.Config.caching.Config.ground_cache ();
    trees = Hashtbl.create 16;
    mu = Mutex.create ();
    d_hits = 0;
    d_misses = 0;
    d_collisions = 0;
    g_hits = 0;
    g_misses = 0;
    g_collisions = 0;
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
    locked t (fun () ->
        Lru.clear t.memo;
        Hashtbl.reset t.trees)
  end

let invalidate t =
  locked t (fun () ->
      Lru.clear t.memo;
      Lru.clear t.grounds;
      Hashtbl.reset t.trees)

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
        grounds =
          {
            hits = t.g_hits;
            misses = t.g_misses;
            evictions = Lru.evictions t.grounds;
            collisions = t.g_collisions;
            entries = Lru.length t.grounds;
            cap = Lru.capacity t.grounds;
          };
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
  let tier (ts : tier_stats) =
    Printf.sprintf
      "{\"hits\": %d, \"misses\": %d, \"evictions\": %d, \"collisions\": %d, \
       \"entries\": %d, \"capacity\": %d, \"hit_rate\": %.6f}"
      ts.hits ts.misses ts.evictions ts.collisions ts.entries ts.cap
      (hit_rate ts)
  in
  let audit_part =
    match t.audit with
    | Some ring ->
      Printf.sprintf "{\"capacity\": %d, \"retained\": %d, \"total\": %d}"
        (Audit.capacity ring) (Audit.length ring) (Audit.total ring)
    | None -> "null"
  in
  let delta_part =
    Printf.sprintf
      "{\"grounds\": %d, \"facts\": %d, \"rules_added\": %d, \"fallbacks\": \
       %d}"
      s.delta.delta_grounds s.delta.delta_facts s.delta.delta_rules
      s.delta.fallbacks
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
    "{\"schema\": \"serve-stats/4\", \"gpm_version\": %d, \"requests\": %d, \
     \"decision_cache\": %s, \"ground_cache\": %s, \"delta\": %s, \"audit\": \
     %s, \"health\": %s}"
    (Asg.Gpm.version t.gpm)
    (s.decisions.hits + s.decisions.misses)
    (tier s.decisions) (tier s.grounds) delta_part audit_part health_part

let openmetrics t =
  let s = stats t in
  let tier name (ts : tier_stats) =
    [
      ("serve.cache.entries", [ ("tier", name) ], float_of_int ts.entries);
      ("serve.cache.capacity", [ ("tier", name) ], float_of_int ts.cap);
      ("serve.cache.hit_rate", [ ("tier", name) ], hit_rate ts);
      ("serve.cache.collisions", [ ("tier", name) ], float_of_int ts.collisions);
    ]
  in
  Obs.Openmetrics.render
    ~extra:(tier "decision" s.decisions @ tier "ground" s.grounds)
    ()

(** The frozen incremental core for program [p], through the
    fingerprint-keyed cache. A resident entry whose program is not
    structurally equal to [p] is a fingerprint collision: freezing [p]
    and [Lru.add]ing it displaces the resident through the value-replace
    path, which [Lru.evictions] cannot see — the displacement gets its
    own [collisions] count (it is not a capacity eviction: the cache
    never ran out of room). *)
let core_cached t (p : Asp.Program.t) ~(fp : int) ~(counts : req_counts) :
    centry =
  let c = Lazy.force counters in
  let resident = locked t (fun () -> Lru.find t.grounds fp) in
  match resident with
  | Some e
    when Asp.Program.equal
           (Asp.Grounder.Incremental.core_program e.ce_core)
           p ->
    locked t (fun () -> t.g_hits <- t.g_hits + 1);
    Obs.Counter.incr c.cg_hits;
    counts.rq_hits <- counts.rq_hits + 1;
    e
  | _ ->
    let collision = Option.is_some resident in
    let core = Asp.Grounder.Incremental.freeze p in
    let e =
      {
        ce_core = core;
        ce_prepared =
          Asp.Solver.prepare (Asp.Grounder.Incremental.core_ground core);
      }
    in
    locked t (fun () ->
        t.g_misses <- t.g_misses + 1;
        if collision then t.g_collisions <- t.g_collisions + 1;
        match Lru.add t.grounds fp e with
        | Some _ -> Obs.Counter.incr c.cg_evictions
        | None -> ());
    if collision then Obs.Counter.incr c.cg_collisions;
    Obs.Counter.incr c.cg_misses;
    counts.rq_misses <- counts.rq_misses + 1;
    e

(** A context consisting solely of ground facts — the common case, and
    the one that delta-grounds instead of regrounding: the induced core
    program is context-free, so the cache can finally hit across
    requests with distinct contexts. *)
let fact_only_context (p : Asp.Program.t) : Asp.Atom.t list option =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | (r : Asp.Rule.t) :: rest -> (
      match (r.head, r.body) with
      | Asp.Rule.Head a, [] when Asp.Atom.is_ground a -> go (a :: acc) rest
      | _ -> None)
  in
  go [] (Asp.Program.rules p)

(** Parse trees of [opt] under the served grammar with their
    context-free induced programs, cached per (version, option): the
    Earley parse and program induction are context-independent, so on
    the hot path they are paid once per option per model version. *)
let trees_for t (gpm : Asg.Gpm.t) (opt : string) :
    (Grammar.Parse_tree.t * Asp.Program.t * int) list =
  let key = (Asg.Gpm.version gpm, opt) in
  match locked t (fun () -> Hashtbl.find_opt t.trees key) with
  | Some l -> l
  | None ->
    let l =
      List.map
        (fun (tp : Asg.Membership.tree_program) ->
          let p = Lazy.force tp.program in
          (tp.tree, p, Asp.Program.fingerprint p))
        (List.of_seq (Asg.Membership.programs gpm opt))
    in
    locked t (fun () -> Hashtbl.replace t.trees key l);
    l

(** One option's membership check, [s ∈ L(G(C))], by incremental
    grounding with delta solving: the context-free core is fetched
    frozen from the cache (or frozen on a miss) and only the context
    facts — instantiated at each node trace — are delta-grounded, per
    tree, stopping at the first satisfiable one like
    {!Asg.Membership.accepts_in_context}. When the frozen core needs no
    repair (the overwhelmingly common case) the delta rules extend the
    entry's precompiled solver state directly; only a context that
    touches a latent negative literal or dormant choice of the core pays
    the full reground-and-recompile. *)
let accepts_incremental t (gpm : Asg.Gpm.t) (opt : string)
    ~(counts : req_counts) ~(ctx_facts : Asp.Atom.t list) : bool =
  let c = Lazy.force counters in
  List.exists
    (fun (tree, core_p, core_fp) ->
      let e = core_cached t core_p ~fp:core_fp ~counts in
      match ctx_facts with
      | [] -> Asp.Solver.has_answer_set_prepared e.ce_prepared ~delta:[]
      | _ -> (
        let facts = Asg.Tree_program.context_facts tree ctx_facts in
        let note added =
          locked t (fun () ->
              t.n_delta_grounds <- t.n_delta_grounds + 1;
              t.n_delta_facts <- t.n_delta_facts + List.length facts;
              t.n_delta_rules <- t.n_delta_rules + added);
          Obs.Counter.incr c.cs_delta_grounds;
          Obs.Counter.incr c.cs_delta_facts ~by:(List.length facts);
          Obs.Counter.incr c.cs_delta_rules ~by:added
        in
        match Asp.Grounder.Incremental.delta_with e.ce_core ~facts with
        | Some d ->
          note (List.length d);
          Asp.Solver.has_answer_set_prepared e.ce_prepared ~delta:d
        | None ->
          (* core repair needed: rebuild the combined program *)
          let gp = Asp.Grounder.Incremental.ground_with e.ce_core ~facts in
          note
            (Asp.Grounder.size gp
            - Asp.Grounder.size (Asp.Grounder.Incremental.core_ground e.ce_core));
          Asp.Solver.has_answer_set_ground gp))
    (trees_for t gpm opt)

(** The fallback for contexts carrying proper rules: each tree's full
    induced program [G(C)[PT]] is frozen whole — structurally recurring
    contexts still hit the cache, exactly the pre-incremental
    behaviour. *)
let accepts_fallback t (gpm : Asg.Gpm.t) (opt : string)
    ~(context : Asp.Program.t) ~(counts : req_counts) : bool =
  Seq.exists
    (fun (tp : Asg.Membership.tree_program) ->
      let p = Lazy.force tp.program in
      let e = core_cached t p ~fp:(Asp.Program.fingerprint p) ~counts in
      Asp.Solver.has_answer_set_prepared e.ce_prepared ~delta:[])
    (Asg.Membership.programs ~context gpm opt)

let decide t (req : Request.t) : Response.t =
  let c = Lazy.force counters in
  (* the request-scoped identity: reuse the ambient trace (a batch or
     PDP scope) or root a fresh one, so the serve.decide span, any
     grounder/solver spans and log lines beneath it, and the audit
     record all carry the same ID *)
  Obs.Trace_context.scope @@ fun trace_id ->
  Obs.span "serve.decide"
    ~attrs:[ ("options", string_of_int (List.length req.options)) ]
  @@ fun () ->
  Obs.Counter.incr c.c_requests;
  let t0 = Obs.now () in
  if req.options = [] then raise No_options;
  let gpm = t.gpm in
  let version = Asg.Gpm.version gpm in
  let ctx_fp = Asp.Program.fingerprint req.context in
  let key = (version, ctx_fp, req.options) in
  let memo = locked t (fun () -> Lru.find t.memo key) in
  let counts = { rq_hits = 0; rq_misses = 0 } in
  let decision, provenance =
    match memo with
    | Some (ctx0, d) when Asp.Program.equal ctx0 req.context ->
      locked t (fun () -> t.d_hits <- t.d_hits + 1);
      Obs.Counter.incr c.cd_hits;
      (d, Memo_hit)
    | _ ->
      (* a resident entry that failed the equality confirm is a
         fingerprint collision; the add below replaces it in place *)
      let collision = Option.is_some memo in
      locked t (fun () ->
          t.d_misses <- t.d_misses + 1;
          if collision then t.d_collisions <- t.d_collisions + 1);
      Obs.Counter.incr c.cd_misses;
      if collision then Obs.Counter.incr c.cd_collisions;
      let d =
        match fact_only_context req.context with
        | Some ctx_facts ->
          decide_core req.options
            ~membership:(fun opt ->
              accepts_incremental t gpm opt ~counts ~ctx_facts)
        | None ->
          (* rule-bearing context: no context-free core to reuse *)
          locked t (fun () -> t.n_fallbacks <- t.n_fallbacks + 1);
          Obs.Counter.incr c.cs_delta_fallbacks;
          decide_core req.options
            ~membership:(fun opt ->
              accepts_fallback t gpm opt ~context:req.context ~counts)
      in
      locked t (fun () ->
          match Lru.add t.memo key (req.context, d) with
          | Some _ -> Obs.Counter.incr c.cd_evictions
          | None -> ());
      (* ground-cache provenance over the full set of membership checks:
         a request is a [Ground_hit] only when every ground program it
         needed came from the cache (one stray miss used to be enough to
         mislabel the request when any other tree hit) *)
      (d, if counts.rq_misses = 0 && counts.rq_hits > 0 then Ground_hit else Cold)
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
         ~ground_hits:counts.rq_hits ~ground_misses:counts.rq_misses
         ~latency)
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
  (* Higher priority first; within a priority class, earliest deadline
     first (no deadline sorts last — it can never be missed); remaining
     ties broken by input position so the schedule (not just the output)
     is deterministic at every pool size. *)
  let schedule (arr : Request.t array) : int array =
    let deadline i =
      match arr.(i).Request.deadline with Some d -> d | None -> infinity
    in
    let order = Array.init (Array.length arr) Fun.id in
    Array.sort
      (fun i j ->
        let c =
          Int.compare arr.(j).Request.priority arr.(i).Request.priority
        in
        if c <> 0 then c
        else
          let c = Float.compare (deadline i) (deadline j) in
          if c <> 0 then c else Int.compare i j)
      order;
    order

  let run ?pool t (reqs : Request.t list) : Response.t list =
    match reqs with
    | [] -> []
    | _ ->
      (* the batch runs under one trace scope; each request gets its
         own child ID at submission time (deterministic in schedule
         order), installed around its decide on whichever pool domain
         runs it — IDs stay unique per request and chain to the batch *)
      Obs.Trace_context.scope @@ fun _batch_id ->
      Obs.span "serve.batch"
        ~attrs:[ ("requests", string_of_int (List.length reqs)) ]
      @@ fun () ->
      let pool = match pool with Some p -> p | None -> Par.Config.pool () in
      let arr = Array.of_list reqs in
      let order = schedule arr in
      let scheduled =
        Array.map (fun i -> (Obs.Trace_context.child_id (), arr.(i))) order
      in
      let results =
        Par.parallel_map pool
          (fun (id, req) -> Obs.Trace_context.with_id id (fun () -> decide t req))
          scheduled
      in
      let out = Array.make (Array.length arr) results.(0) in
      Array.iteri (fun k i -> out.(i) <- results.(k)) order;
      Array.to_list out
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
    sh_mu : Mutex.t;
    mutable sh_served : int;
  }

  let make ?config tenant gpm =
    {
      sh_tenant = tenant;
      sh_engine = create ~name:tenant ?config gpm;
      sh_window = Obs.Window.make ("serve.shard." ^ tenant);
      sh_fallbacks = Obs.Health.make ("serve.shard." ^ tenant ^ ".fallbacks");
      sh_mu = Mutex.create ();
      sh_served = 0;
    }

  let tenant sh = sh.sh_tenant
  let engine sh = sh.sh_engine

  let served sh =
    Mutex.lock sh.sh_mu;
    let n = sh.sh_served in
    Mutex.unlock sh.sh_mu;
    n

  (* The shard-owned serve path: the engine decides, the shard's own
     telemetry observes. Called from pool domains during a drain, so
     the served count takes the shard mutex. *)
  let serve sh (req : Request.t) : Response.t =
    let r = decide sh.sh_engine req in
    Obs.Window.observe sh.sh_window r.Response.latency;
    Obs.Health.observe ~version:r.Response.gpm_version sh.sh_fallbacks
      r.Response.decision.Decision.fallback_used;
    Mutex.lock sh.sh_mu;
    sh.sh_served <- sh.sh_served + 1;
    Mutex.unlock sh.sh_mu;
    r
end

module Cluster = struct
  type reject_reason = Queue_full | Unknown_tenant

  let reject_reason_to_string = function
    | Queue_full -> "queue_full"
    | Unknown_tenant -> "unknown_tenant"

  type outcome = Served of Response.t | Rejected of reject_reason
  type ticket = { mutable resolved : outcome option }

  type entry = { e_req : Request.t; e_ticket : ticket; e_trace : string }

  type t = {
    cl_shards : (string * Shard.t) list;  (** tenant declaration order *)
    cl_queue_depth : int;
    cl_mu : Mutex.t;  (** guards the queue and the cluster counters *)
    cl_queue : entry Queue.t;
    mutable cl_submitted : int;
    mutable cl_coalesced : int;
    mutable cl_rejected : int;
  }

  let locked t f =
    Mutex.lock t.cl_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.cl_mu) f

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
      cl_queue_depth = queue_depth;
      cl_mu = Mutex.create ();
      cl_queue = Queue.create ();
      cl_submitted = 0;
      cl_coalesced = 0;
      cl_rejected = 0;
    }

  let tenants t = List.map fst t.cl_shards
  let shard t tenant = List.assoc_opt tenant t.cl_shards
  let shards t = List.map snd t.cl_shards
  let queue_depth t = t.cl_queue_depth
  let queue_length t = locked t (fun () -> Queue.length t.cl_queue)
  let coalesced t = locked t (fun () -> t.cl_coalesced)
  let rejected t = locked t (fun () -> t.cl_rejected)
  let submitted t = locked t (fun () -> t.cl_submitted)

  let set_gpm t ~tenant gpm =
    match shard t tenant with
    | Some sh -> set_gpm (Shard.engine sh) gpm
    | None -> invalid_arg ("Serve.Cluster.set_gpm: unknown tenant " ^ tenant)

  let reject t tk reason =
    let c = Lazy.force counters in
    locked t (fun () -> t.cl_rejected <- t.cl_rejected + 1);
    Obs.Counter.incr c.cl_rejected;
    tk.resolved <- Some (Rejected reason);
    tk

  let submit t (req : Request.t) : ticket =
    let tk = { resolved = None } in
    match shard t req.Request.tenant with
    | None -> reject t tk Unknown_tenant
    | Some _ ->
      let accepted =
        locked t (fun () ->
            if Queue.length t.cl_queue >= t.cl_queue_depth then false
            else begin
              t.cl_submitted <- t.cl_submitted + 1;
              Queue.add
                {
                  e_req = req;
                  e_ticket = tk;
                  e_trace = Obs.Trace_context.child_id ();
                }
                t.cl_queue;
              true
            end)
      in
      if accepted then tk else reject t tk Queue_full

  let poll tk = tk.resolved

  (* Serve everything queued. Coalescing groups entries by (tenant,
     context fingerprint, options) with the context confirmed by
     structural equality — a fingerprint collision never merges two
     distinct requests. Representatives are served in first-occurrence
     order across the pool; every member of a group shares its
     representative's response. *)
  let drain ?pool t : int =
    let entries =
      locked t (fun () ->
          let l = List.of_seq (Queue.to_seq t.cl_queue) in
          Queue.clear t.cl_queue;
          l)
    in
    match entries with
    | [] -> 0
    | _ ->
      let c = Lazy.force counters in
      let pool = match pool with Some p -> p | None -> Par.Config.pool () in
      let groups :
          ( string * int * string list,
            (Asp.Program.t * entry list ref) list ref )
          Hashtbl.t =
        Hashtbl.create 16
      in
      let order = ref [] in
      List.iter
        (fun (e : entry) ->
          let req = e.e_req in
          let key =
            ( req.Request.tenant,
              Asp.Program.fingerprint req.Request.context,
              req.Request.options )
          in
          let bucket =
            match Hashtbl.find_opt groups key with
            | Some b -> b
            | None ->
              let b = ref [] in
              Hashtbl.add groups key b;
              b
          in
          match
            List.find_opt
              (fun (ctx, _) -> Asp.Program.equal ctx req.Request.context)
              !bucket
          with
          | Some (_, members) -> members := e :: !members
          | None ->
            let members = ref [ e ] in
            bucket := (req.Request.context, members) :: !bucket;
            order := (e, members) :: !order)
        entries;
      let reps = Array.of_list (List.rev !order) in
      let n_coalesced = List.length entries - Array.length reps in
      if n_coalesced > 0 then begin
        locked t (fun () -> t.cl_coalesced <- t.cl_coalesced + n_coalesced);
        Obs.Counter.incr c.cl_coalesced ~by:n_coalesced
      end;
      let responses =
        Par.parallel_map pool
          (fun ((e : entry), _) ->
            Obs.Trace_context.with_id e.e_trace (fun () ->
                match shard t e.e_req.Request.tenant with
                | Some sh -> Shard.serve sh e.e_req
                | None -> assert false (* submit checked the tenant *)))
          reps
      in
      Array.iteri
        (fun i (_, members) ->
          let outcome = Served responses.(i) in
          List.iter (fun (m : entry) -> m.e_ticket.resolved <- Some outcome)
            !members)
        reps;
      List.length entries

  let await ?pool t tk =
    match tk.resolved with
    | Some o -> o
    | None ->
      ignore (drain ?pool t);
      Option.get tk.resolved

  let decide t (req : Request.t) : outcome =
    match shard t req.Request.tenant with
    | None -> (
      match poll (reject t { resolved = None } Unknown_tenant) with
      | Some o -> o
      | None -> Rejected Unknown_tenant)
    | Some sh -> Served (Shard.serve sh req)

  let run ?pool t (reqs : Request.t list) : outcome list =
    Obs.Trace_context.scope @@ fun _run_id ->
    let tickets =
      List.map
        (fun req ->
          let tk = submit t req in
          match poll tk with
          | Some (Rejected Queue_full) ->
            (* flow control: make room, then resubmit (the queue is
               empty now, so the retry cannot be rejected for space) *)
            ignore (drain ?pool t);
            submit t req
          | _ -> tk)
        reqs
    in
    ignore (drain ?pool t);
    List.map (fun tk -> Option.get (poll tk)) tickets

  let stats t =
    List.map (fun (name, sh) -> (name, engine_stats (Shard.engine sh))) t.cl_shards

  let openmetrics t =
    let tier tenant tname (ts : tier_stats) =
      let labels = [ ("tenant", tenant); ("tier", tname) ] in
      [
        ("serve.shard.cache.entries", labels, float_of_int ts.entries);
        ("serve.shard.cache.hit_rate", labels, hit_rate ts);
        ("serve.shard.cache.collisions", labels, float_of_int ts.collisions);
      ]
    in
    let shard_extra =
      List.concat_map
        (fun (tenant, sh) ->
          let s = engine_stats (Shard.engine sh) in
          ( "serve.shard.requests",
            [ ("tenant", tenant) ],
            float_of_int (Shard.served sh) )
          :: (tier tenant "decision" s.decisions @ tier tenant "ground" s.grounds))
        t.cl_shards
    in
    let cluster_extra =
      [
        ("serve.cluster.queue.depth", [], float_of_int t.cl_queue_depth);
        ("serve.cluster.queue.length", [], float_of_int (queue_length t));
      ]
    in
    Obs.Openmetrics.render ~extra:(cluster_extra @ shard_extra) ()
end

type target = Engine of t | Tenant of Cluster.t * string
