(** The policy-decision serving layer: a request/response engine over a
    generative policy model ({!Asg.Gpm}) that remembers whole decisions,
    and a multi-tenant router ({!Cluster}) that runs one isolated engine
    per tenant.

    {2 Decision semantics}

    A request carries a context and candidate options in preference
    order. The decision is the first option admitted by the model in
    that context ([s ∈ L(G(C))]); when the model admits none, the last
    option is returned as a flagged fail-safe. Cached and uncached paths
    return bit-identical decisions — caching only changes latency, never
    outcomes (pinned by the differential property tests).

    {2 The engine: a memo over the model's compiled view}

    - {b Decision memo}: whole decisions keyed by (GPM version, context
      fingerprint, options), hits confirmed by structural context
      equality, LRU-evicted ({!Lru}). The context is the request's
      context projected onto the facts the model reads
      ({!Asg.Membership.project}), once per request: requests that
      differ only in facts the model cannot read share one entry, and
      the memo stores, confirms and decides on the projection. That is
      sound because membership is the same on both contexts.
      {!Asg.Gpm.version} is bumped by every
      [with_context]/[with_hypothesis]/adaptation, so stale entries are
      unreachable by construction, and a derived model projects with
      its own reads; {!set_gpm} additionally clears the memo when the
      model changes.
    - {b Ground tier}: a memo miss decides each option with
      {!Asg.Membership.accepts_in_context} — the same call the
      engine-free PDP makes. For a ground-fact context it decides each
      parse tree on the model value's compiled view: the tree's frozen
      core, compiled once per model value and kept on it, extended with
      the projected context's facts alone. A projection with no facts
      left decides on the cores as they are and counts no delta ground. The engine keeps nothing beside the
      model: engines and shards given the same model value share its
      compiled cores, and a new model value starts with none. The tier's
      statistics come from the check's {!Asg.Membership.tally}: a hit is
      a tree decided on an already-compiled core, a miss a core compiled
      by the check. A request is a [Ground_hit] when it decided at least
      one tree and compiled none. The view has no capacity, so the tier
      has no entries, evictions or collisions. A context with proper
      rules is decided from scratch ({!Asg.Membership.accepts_uncompiled},
      counted in [delta.fallbacks]) and reads [Cold]; the memo still
      absorbs its exact repeats.

    The engine reports its tiers through [lib/obs]: span [serve.decide]
    (with [asg.membership] beneath it for every option checked),
    counters [serve.*], rolling window [serve.decide].

    {2 Multi-tenant serving}

    {!Cluster} scales the engine to many tenants: each tenant (an AMS,
    a coalition member, a party in the FLAP sense) owns a {!Shard} —
    its own engine, so its own decision memo, GPM version stamp,
    latency window and health signal. Shards share no mutable state of
    their own: a model swap on one tenant ({!Cluster.set_gpm}) cannot
    invalidate another's entries. Requests carry a [tenant] id;
    {!Cluster.run} rejects unknown tenants and serves the rest in
    consecutive windows, {e coalescing} identical (tenant, context,
    options) requests within a window into one computation (on the
    request's own context, not its projection) and fanning
    each window's distinct work across a [lib/par] pool. Responses
    carry shard provenance ({!Response.t.shard}).

    {2 The ops plane}

    Every served decision is request-scoped: {!decide} runs under an
    [Obs.Trace_context] scope (reusing the ambient trace or rooting a
    fresh one), so its span, any membership/grounder/solver spans and
    log lines beneath it, the audit record, and {!Response.t.trace_id}
    all carry one ID; {!Batch.run} gives each request a child ID that
    survives the [lib/par] fan-out, and so does {!Cluster.run}.
    Decisions are recorded in a bounded {!Audit} ring
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
    deadline : float option;
        (** latency budget in seconds; exceeding it is only {e reported}
            (via {!Response.t.deadline_missed}), never enforced *)
    tenant : string;
        (** the tenant whose shard must serve this request; routing
            only — a single engine ignores it. ["default"] unless set *)
  }

  val make :
    ?deadline:float ->
    ?tenant:string ->
    context:Asp.Program.t ->
    options:string list ->
    unit ->
    t
end

module Decision : sig
  (** The single decision payload of the serving API, which the AGenP
      PDP and PEP use as it is. *)
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
  | Cold
      (** decision recomputed, compiling a core, from scratch (a context
          with rules), or with no tree to decide *)
  | Ground_hit
      (** decision recomputed, every tree on an already-compiled core *)
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

  (** 256 decisions, 1024 audit records, no SLO (objective 0.99 over
      60 s once a target is set). *)
  val default : t
end

(** The decision memo's statistics. *)
type tier_stats = {
  hits : int;
  misses : int;
  evictions : int;  (** entries pushed out by capacity pressure *)
  collisions : int;
      (** fingerprint collisions: a resident key whose stored context
          was not structurally equal to the probe — the resident is
          replaced, which is neither a hit nor a capacity eviction *)
  entries : int;
  cap : int;
}

(** The ground tier's statistics: tree checks on the model's compiled
    view ({!Asg.Membership.tally}). A hit decided a tree whose core was
    already compiled; a miss compiled it. *)
type ground_stats = { hits : int; misses : int }

(** Incremental-grounding statistics: how much serving work ran as
    delta grounds of context facts against compiled cores. *)
type delta_stats = {
  delta_grounds : int;
      (** tree checks under a non-empty ground-fact context *)
  delta_facts : int;  (** context facts instantiated at node traces *)
  delta_rules : int;  (** ground rules the deltas added *)
  fallbacks : int;  (** requests with a rule-bearing context *)
}

type stats = {
  decisions : tier_stats;
  grounds : ground_stats;
  delta : delta_stats;
}

(** [hits / (hits + misses)]; 0 before any lookup. *)
val hit_rate : tier_stats -> float

(** The same rate for the ground tier. *)
val ground_hit_rate : ground_stats -> float

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
    the version-keyed one. The new model value brings its own compiled
    view. *)
val set_gpm : t -> Asg.Gpm.t -> unit

(** Serve one request through the memo and the model's compiled view.
    Thread-safe: the engine may be shared across pool domains (cache
    state affects only speed, never the decision).
    @raise No_options on an empty options list. *)
val decide : t -> Request.t -> Response.t

(** The decision rule every path shares: the first of [options] that
    [membership] admits, else the last option flagged as a fallback.
    [membership] decides one option; the engine, {!decide_uncached} and
    the engine-free PDP each pass their own.
    @raise No_options on an empty options list. *)
val decide_with : membership:(string -> bool) -> string list -> Decision.t

(** The cache-free reference path: each option is checked from scratch
    ({!Asg.Membership.accepts_uncompiled}) on the request's whole
    context, unprojected, with no memo on the model or the engine. The differential oracle for the cached engine and the
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

(** One JSON object (schema [serve-stats/5]):
    [{"schema", "gpm_version", "requests", "decision_cache": {"hits",
    "misses", "evictions", "collisions", "entries", "capacity",
    "hit_rate"}, "ground_cache": {"hits", "misses", "hit_rate"},
    "delta": {"grounds", "facts", "rules_added", "fallbacks"}, "audit":
    {"capacity", "retained", "total"} or null, "health": {"signals":
    [{"signal", "observations", "positives", "rate", "overall_rate",
    "alarms"}], "events"}}]. The health section reports every
    {!Obs.Health} signal with observations (process-wide — the
    policy-health plane is global, not per-engine) plus the total
    health-event count. The machine-readable face of {!pp_stats}. *)
val stats_to_json : t -> string

(** The OpenMetrics exposition for this engine:
    {!Obs.Openmetrics.render} extended with the memo's gauges
    ([agenp_serve_cache_entries]/[_capacity]/[_hit_rate]/[_collisions],
    labeled [tier="decision"]) and the ground tier's
    [agenp_serve_cache_hit_rate{tier="ground"}]. This is what a
    {!Metrics} server should render. *)
val openmetrics : t -> string

module Batch : sig
  (** Fan a batch across [pool] (default {!Par.Config.pool}) in input
      order and return responses in input order. Decisions are
      deterministic at every pool size — each request is evaluated in
      isolation and caches never change outcomes; provenance and latency
      naturally vary with scheduling.

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

  (** The shard's private engine — its memo, statistics and GPM
      version stamp belong to this tenant alone. *)
  val engine : t -> engine

  (** Requests this shard has served (through its cluster or
      {!Cluster.decide}). *)
  val served : t -> int
end

module Cluster : sig
  (** The multi-tenant router: one {!Shard} per tenant, with requests
      served in coalescing windows. See the module preamble for the
      design. *)

  type t

  type reject_reason =
    | Unknown_tenant  (** no shard owns the request's tenant id *)

  val reject_reason_to_string : reject_reason -> string

  (** What became of a routed request. *)
  type outcome = Served of Response.t | Rejected of reject_reason

  (** A cluster with one shard per [(tenant, gpm)] pair, every shard
      configured with [config]. [queue_depth] is the window size of
      {!run} (default 64). @raise Invalid_argument on an empty or
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

  (** The window size of {!run}. *)
  val queue_depth : t -> int

  (** Swap one tenant's model. Touches only that tenant's shard: no
      other shard's memo or version stamp is affected.
      @raise Invalid_argument on an unknown tenant. *)
  val set_gpm : t -> tenant:string -> Asg.Gpm.t -> unit

  (** Serve one request on its tenant's shard, or [Rejected
      Unknown_tenant] for an unowned tenant id. This is what
      [Pdp.decide] uses through a cluster target. *)
  val decide : t -> Request.t -> outcome

  (** Serve a stream and return outcomes in input order. Unknown
      tenants are rejected; the rest are cut, in stream order, into
      consecutive windows of {!queue_depth} requests. Each request gets
      its own child trace ID of the run's trace. Within a window,
      identical (tenant, context, options) requests are coalesced into
      one computation (context equality confirmed structurally, not
      just by fingerprint) and share its response; the distinct work is
      fanned across [pool] (default {!Par.Config.pool}). *)
  val run : ?pool:Par.t -> t -> Request.t list -> outcome list

  (** Duplicate requests answered from a coalesced computation. *)
  val coalesced : t -> int

  (** Requests rejected for an unknown tenant. *)
  val rejected : t -> int

  (** Per-tenant engine statistics, in tenant declaration order. *)
  val stats : t -> (string * stats) list

  (** The cluster-wide OpenMetrics exposition: per-shard gauges
      ([agenp_serve_shard_requests] per tenant,
      [agenp_serve_shard_cache_entries]/[_hit_rate]/[_collisions]
      labeled [tier="decision"] and [_hit_rate] labeled [tier="ground"],
      each with its tenant) plus the window size
      ([agenp_serve_cluster_queue_depth]); the [serve.cluster.coalesced]
      and [serve.cluster.rejected] counters render with every other
      registered metric. *)
  val openmetrics : t -> string
end

(** Where a PDP routes its decisions: one engine, or one tenant's
    shard of a cluster. [Ams.attach_engine] takes this, so coalition
    members can share a cluster while keeping per-member state
    isolated. *)
type target = Engine of t | Tenant of Cluster.t * string
