(** The policy-decision serving layer: a request/response engine over a
    generative policy model ({!Asg.Gpm}) that makes repeated decisions
    fast with two cache tiers, and a sharded multi-tenant front
    ({!Cluster}) that runs one isolated engine per tenant behind a
    bounded ingestion queue.

    {2 Decision semantics}

    A request carries a context and candidate options in preference
    order. The decision is the first option admitted by the model in
    that context ([s ∈ L(G(C))]); when the model admits none, the last
    option is returned as a flagged fail-safe. Cached and uncached paths
    return bit-identical decisions — caches only change latency, never
    outcomes (pinned by the differential property tests).

    {2 Cache tiers}

    - {b Ground-program (core) cache}: each membership check grounds an
      induced ASP program. For the common fact-only context the engine
      splits the program in two: the {e context-free core} the parse
      tree induces — frozen once via {!Asp.Grounder.Incremental.freeze},
      paired with its precompiled solver state ({!Asp.Solver.prepare}),
      and cached keyed by {!Asp.Program.fingerprint} (hits confirmed
      with {!Asp.Program.equal}) — and the per-request context facts,
      which are {e delta-grounded} against the frozen core
      ({!Asp.Grounder.Incremental.delta_with}) and {e delta-solved}
      against the prepared state
      ({!Asp.Solver.has_answer_set_prepared}), so a warm check pays for
      its delta only, never a recompile of the core. A context that
      touches a latent negative literal or dormant choice of the core
      repairs it via {!Asp.Grounder.Incremental.ground_with} and solves
      the combined program whole. The cache key no longer embeds the
      context, so distinct contexts over the same model hit the same
      core and per-request grounding cost scales with context size, not
      program size. Contexts carrying proper rules fall back to
      freezing the full context-baked program (counted in
      [delta.fallbacks]); structurally recurring rule contexts still
      hit. Keys do not mention the model version: a structurally
      recurring program stays warm across adaptations. A fingerprint
      collision (resident key, unequal program) replaces the resident
      entry; it is counted in the tier's own [collisions] counter,
      separately from capacity evictions.
    - {b Decision memo}: whole decisions keyed by (GPM version, context
      fingerprint, options). {!Asg.Gpm.version} is bumped by every
      [with_context]/[with_hypothesis]/adaptation, so stale entries are
      unreachable by construction; {!set_gpm} additionally clears the
      memo explicitly when the model changes, and {!invalidate} drops
      both tiers.

    Both tiers use LRU eviction ({!Lru}) and report
    hit/miss/eviction/collision counters plus latency histograms
    through [lib/obs] (spans [serve.decide] / [serve.batch], counters
    [serve.*], rolling window [serve.decide]).

    {2 Multi-tenant serving}

    {!Cluster} scales the engine to many tenants: each tenant (an AMS,
    a coalition member, a party in the FLAP sense) owns a {!Shard} —
    its own engine, so its own decision memo, ground cache, GPM
    version stamp, latency window and health signal. Shards share no
    mutable state: tenants never contend on a lock and a model swap on
    one tenant ({!Cluster.set_gpm}) cannot invalidate another's
    entries. Requests carry a [tenant] id and enter through a bounded
    queue ({!Cluster.submit}); when the queue is full the cluster
    answers [Rejected Queue_full] immediately — backpressure is
    explicit, never silent. {!Cluster.drain} serves the queue,
    {e coalescing} identical (tenant, context, options) requests so
    duplicates in one drain window resolve from a single computation,
    and fanning the distinct work across a [lib/par] pool. Responses
    carry shard provenance ({!Response.t.shard}).

    {2 The ops plane}

    Every served decision is request-scoped: {!decide} runs under an
    [Obs.Trace_context] scope (reusing the ambient trace or rooting a
    fresh one), so its span, any grounder/solver spans and log lines
    beneath it, the audit record, and {!Response.t.trace_id} all carry
    one ID; {!Batch.run} gives each request a child ID that survives
    the [lib/par] fan-out, and so does every request queued through a
    {!Cluster}. Decisions are recorded in a bounded {!Audit} ring
    (JSONL-exportable), latency feeds a rolling [serve.decide] window
    and an optional {!Obs.Slo}, and {!openmetrics} (servable over TCP
    via {!Metrics}) exposes it all in the Prometheus/OpenMetrics text
    format — {!Cluster.openmetrics} adds per-shard gauges labeled by
    tenant. *)

module Lru = Lru
module Audit = Audit
module Metrics = Metrics

exception No_options
(** Raised by {!decide}/{!decide_uncached} on a request with an empty
    options list — there is nothing to decide and no fail-safe to fall
    back to. *)

module Request : sig
  type t = {
    context : Asp.Program.t;  (** the facts/rules the decision is made in *)
    options : string list;
        (** candidate decisions in preference order; last is the
            fail-safe *)
    priority : int;
        (** batch scheduling priority (higher first); does not affect
            the decision *)
    deadline : float option;
        (** latency budget in seconds; exceeding it is only {e reported}
            (via {!Response.t.deadline_missed}), never enforced *)
    tenant : string;
        (** the tenant whose shard must serve this request; routing
            only — a single engine ignores it. ["default"] unless set *)
  }

  val make :
    ?priority:int ->
    ?deadline:float ->
    ?tenant:string ->
    context:Asp.Program.t ->
    options:string list ->
    unit ->
    t
end

module Decision : sig
  (** The single decision payload of the serving API — also aliased as
      [Agenp.Decision] and folded into the PDP/PEP surfaces. *)
  type t = {
    chosen : string;
    valid_options : string list;
        (** every option the model admits, in preference order *)
    fallback_used : bool;  (** the model admitted nothing *)
    compliant : bool option;
        (** monitoring verdict, filled in at enforcement time; [None]
            until the PEP has seen the decision *)
  }

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

(** Where a response came from. *)
type provenance =
  | Cold  (** full membership evaluation, no cache helped *)
  | Ground_hit  (** decision recomputed, but on cached ground programs *)
  | Memo_hit  (** whole decision served from the memo *)

val provenance_to_string : provenance -> string

module Response : sig
  type t = {
    decision : Decision.t;
    trace_id : string;
        (** the request's trace ID — the one on its spans, log lines,
            and audit record *)
    provenance : provenance;
    latency : float;  (** seconds spent serving this request *)
    gpm_version : int;  (** model version that made the decision *)
    deadline_missed : bool;
        (** latency exceeded the request's deadline (if any) *)
    shard : string;
        (** name of the engine that served this request — the tenant
            when routed through a {!Cluster}, ["default"] otherwise *)
  }
end

module Config : sig
  (** Engine configuration, grouped by concern. *)

  type caching = {
    decision_cache : int;  (** decision-memo capacity (entries) *)
    ground_cache : int;  (** ground-program cache capacity (entries) *)
  }

  type audit = {
    capacity : int;
        (** audit-ring capacity (records); [0] disables the trail *)
  }

  type slo = {
    target : float option;
        (** latency SLO target in seconds; [None] tracks no SLO *)
    objective : float;  (** fraction that must meet the target *)
    window : float;  (** SLO rolling window, seconds *)
  }

  type t = { caching : caching; audit : audit; slo : slo }

  (** 256 decisions, 512 ground programs, 1024 audit records, no SLO
      (objective 0.99 over 60 s once a target is set). *)
  val default : t
end

(** Per-tier cache statistics of one engine. *)
type tier_stats = {
  hits : int;
  misses : int;
  evictions : int;  (** entries pushed out by capacity pressure *)
  collisions : int;
      (** fingerprint collisions: a resident key whose stored program
          was not structurally equal to the probe — the resident is
          replaced, which is neither a hit nor a capacity eviction *)
  entries : int;
  cap : int;
}

(** Incremental-grounding statistics: how much serving work ran as
    delta-grounding over a cached core rather than full regrounds. *)
type delta_stats = {
  delta_grounds : int;  (** delta grounds performed (core reused) *)
  delta_facts : int;  (** context facts delta-grounded, instantiated *)
  delta_rules : int;  (** ground rules the deltas added *)
  fallbacks : int;  (** rule-bearing contexts, full core freeze *)
}

type stats = {
  decisions : tier_stats;
  grounds : tier_stats;
  delta : delta_stats;
}

(** [hits / (hits + misses)]; 0 before any lookup. *)
val hit_rate : tier_stats -> float

val pp_stats : Format.formatter -> stats -> unit

type t

(** A fresh engine serving [gpm]. [name] is the shard provenance
    reported on responses (default ["default"]); clusters name each
    shard engine after its tenant. *)
val create : ?name:string -> ?config:Config.t -> Asg.Gpm.t -> t

val name : t -> string
val gpm : t -> Asg.Gpm.t
val config : t -> Config.t

(** Swap the served model (e.g. after the PAdaP adapts). A version
    change clears the decision memo — the explicit invalidation backing
    the version-keyed one — and keeps the ground cache, whose
    fingerprint keys are model-independent. *)
val set_gpm : t -> Asg.Gpm.t -> unit

(** Drop both cache tiers (statistics survive). *)
val invalidate : t -> unit

(** Serve one request through the caches. Thread-safe: the engine may be
    shared across pool domains (cache state affects only speed, never
    the decision). @raise No_options on an empty options list. *)
val decide : t -> Request.t -> Response.t

(** The decision rule every path shares: the first of [options] that
    [membership] admits, else the last option flagged as a fallback.
    [membership] decides one option; the engine, {!decide_uncached} and
    the engine-free PDP each pass their own.
    @raise No_options on an empty options list. *)
val decide_with : membership:(string -> bool) -> string list -> Decision.t

(** The cache-free reference path: each option is checked from scratch
    ({!Asg.Membership.accepts_uncompiled}), with no memo on the model or
    the engine. The differential oracle for the cached engine and the
    [uncached] row of the serve benchmark.
    @raise No_options on an empty options list. *)
val decide_uncached : Asg.Gpm.t -> Request.t -> Decision.t

val stats : t -> stats

(** The engine's decision audit ring, unless disabled by
    [audit.capacity = 0]. *)
val audit : t -> Audit.t option

(** The engine's SLO handle, when [slo.target] is configured. The
    handle is the [Obs.Slo] registered as ["serve.decide"], so it also
    appears in [Obs.report]. *)
val slo : t -> Obs.Slo.t option

(** One JSON object (schema [serve-stats/4]):
    [{"schema", "gpm_version", "requests", "decision_cache": tier,
    "ground_cache": tier, "delta": {"grounds", "facts", "rules_added",
    "fallbacks"}, "audit": {"capacity", "retained", "total"} or null,
    "health": {"signals": [{"signal", "observations", "positives",
    "rate", "overall_rate", "alarms"}], "events"}}]
    with [tier = {"hits", "misses", "evictions", "collisions",
    "entries", "capacity", "hit_rate"}]. The health section reports
    every {!Obs.Health} signal with observations (process-wide — the
    policy-health plane is global, not per-engine) plus the total
    health-event count. The machine-readable face of {!pp_stats}. *)
val stats_to_json : t -> string

(** The OpenMetrics exposition for this engine:
    {!Obs.Openmetrics.render} extended with per-tier gauges
    ([agenp_serve_cache_entries]/[_capacity]/[_hit_rate]/
    [_collisions], labeled [tier="decision"|"ground"]). This is what a
    {!Metrics} server should render. *)
val openmetrics : t -> string

module Batch : sig
  (** The deterministic dispatch order over a request array: by priority
      (higher first), then earliest deadline (no deadline last), then
      input position. Exposed for scheduling tests; {!run} dispatches in
      exactly this order. *)
  val schedule : Request.t array -> int array

  (** Fan a batch across [pool] (default {!Par.Config.pool}), scheduling
      higher-priority requests first and, within a priority class,
      earlier-deadline requests first, and return responses in {e input}
      order. Decisions are deterministic at every pool size — each
      request is evaluated in isolation and caches never change
      outcomes; provenance and latency naturally vary with scheduling.

      The batch runs under one trace scope; every request is assigned
      its own child trace ID at submission (so IDs are unique across
      the batch and chain to any ambient trace) and carries it to
      whichever pool domain serves it. *)
  val run : ?pool:Par.t -> t -> Request.t list -> Response.t list
end

type engine = t
(** Alias for referring to the engine type from the shard/cluster
    surfaces below. *)

module Shard : sig
  (** One tenant's slice of a {!Cluster}: a private engine plus the
      tenant-scoped telemetry it owns — a rolling latency window
      ([serve.shard.<tenant>]) and a fallback health signal
      ([serve.shard.<tenant>.fallbacks]). Shards share nothing
      mutable with each other. *)

  type t

  val tenant : t -> string

  (** The shard's private engine — its memo, ground cache, and GPM
      version stamp belong to this tenant alone. *)
  val engine : t -> engine

  (** Requests this shard has served (through its cluster or
      {!Cluster.decide}). *)
  val served : t -> int
end

module Cluster : sig
  (** The sharded multi-tenant serve plane: one {!Shard} per tenant
      behind a bounded ingestion queue with explicit backpressure and
      in-flight coalescing. See the module preamble for the design. *)

  type t

  type reject_reason =
    | Queue_full  (** the bounded ingestion queue is at capacity *)
    | Unknown_tenant  (** no shard owns the request's tenant id *)

  val reject_reason_to_string : reject_reason -> string

  (** What became of a submitted request. Rejection is the explicit
      backpressure signal — the caller decides whether to retry, shed,
      or fall back to {!decide_uncached}. *)
  type outcome = Served of Response.t | Rejected of reject_reason

  type ticket
  (** A claim on a submitted request's eventual outcome. *)

  (** A cluster with one shard per [(tenant, gpm)] pair, every shard
      configured with [config]. [queue_depth] bounds the ingestion
      queue (default 64). @raise Invalid_argument on an empty or
      duplicate tenant list, or [queue_depth < 1]. *)
  val create :
    ?config:Config.t ->
    ?queue_depth:int ->
    tenants:(string * Asg.Gpm.t) list ->
    unit ->
    t

  val tenants : t -> string list
  val shard : t -> string -> Shard.t option
  val shards : t -> Shard.t list
  val queue_depth : t -> int

  (** Requests currently queued, not yet drained. *)
  val queue_length : t -> int

  (** Swap one tenant's model. Touches only that tenant's shard: no
      other shard's memo, ground cache, or version stamp is affected.
      @raise Invalid_argument on an unknown tenant. *)
  val set_gpm : t -> tenant:string -> Asg.Gpm.t -> unit

  (** Enqueue a request. Returns immediately: the ticket resolves
      after a {!drain}, except on rejection — an unknown tenant or a
      full queue resolves the ticket to [Rejected] on the spot. Each
      accepted request is assigned its child trace ID at submission. *)
  val submit : t -> Request.t -> ticket

  (** The outcome, if resolved. *)
  val poll : ticket -> outcome option

  (** Serve everything queued: identical (tenant, context, options)
      submissions are coalesced into one computation (context equality
      confirmed structurally, not just by fingerprint) and the
      distinct work is fanned across [pool] (default
      {!Par.Config.pool}). Returns the number of requests fulfilled,
      coalesced duplicates included. *)
  val drain : ?pool:Par.t -> t -> int

  (** The ticket's outcome, draining this cluster first if it is still
      pending. *)
  val await : ?pool:Par.t -> t -> ticket -> outcome

  (** The synchronous routed path: serve one request on its tenant's
      shard, bypassing the queue (never [Queue_full]; still
      [Rejected Unknown_tenant] for an unowned tenant id). This is
      what [Pdp.decide] uses through a cluster target. *)
  val decide : t -> Request.t -> outcome

  (** Flow-controlled convenience over submit/drain: submits the whole
      stream, draining whenever the queue fills, and returns outcomes
      in input order. Unlike raw {!submit}, never rejects for queue
      pressure — only unknown tenants are rejected. *)
  val run : ?pool:Par.t -> t -> Request.t list -> outcome list

  (** Duplicate requests answered from a coalesced computation. *)
  val coalesced : t -> int

  (** Requests rejected (queue full or unknown tenant). *)
  val rejected : t -> int

  (** Requests accepted into the queue since creation. *)
  val submitted : t -> int

  (** Per-tenant engine statistics, in tenant declaration order. *)
  val stats : t -> (string * stats) list

  (** The cluster-wide OpenMetrics exposition: per-shard gauges
      ([agenp_serve_shard_cache_entries]/[_hit_rate]/[_collisions]
      labeled by tenant and tier, [agenp_serve_shard_requests] per
      tenant) plus queue gauges; the [serve.cluster.coalesced] and
      [serve.cluster.rejected] counters render with every other
      registered metric. *)
  val openmetrics : t -> string
end

(** Where a PDP routes its decisions: one engine, or one tenant's
    shard of a cluster. [Ams.attach_engine] takes this, so coalition
    members can share a cluster while keeping per-member state
    isolated. *)
type target = Engine of t | Tenant of Cluster.t * string
