(** Hierarchical tracing, metrics, and profiling for the whole stack.

    A dependency-free observability substrate: every other library may
    link it, so it links nothing itself (beyond [unix] for the clock).
    Concepts:

    - {e spans} — named, nested wall-clock measurements
      ([Obs.span "ilp.search" @@ fun () -> ...]). Span names follow the
      [layer.operation] convention ([asp.ground], [ilp.learn],
      [agenp.pdp.decide]); the segment before the first dot is the layer
      and becomes the category in trace exports.
    - {e counters}, {e histograms}, {e windows}, {e SLOs} and {e health
      signals} — cheap aggregates, each kind in one find-or-create
      registry keyed by name. Counter increments are a single atomic
      update on a preallocated handle, so they are safe in the hottest
      loops. Histograms are log-bucketed and answer quantile queries
      (p50/p90/p99) with bounded relative error in fixed memory.
    - {e GC accounting} — per-span allocation deltas ([Gc.quick_stat]),
      summed on the span's histogram and gated like {!fine_span} so hot
      paths stay cheap (see {!set_gc_stats}).
    - {e sinks} — a pluggable interface receiving every finished span.
      The built-in {!Trace} collector (Chrome [trace_event], folded
      flamegraph, and speedscope exports) is itself a sink; tests and
      embedders can register their own.
    - {e structured logs} — a leveled JSONL logger ({!Log}) that stamps
      each record with the innermost open span, replacing ad-hoc
      [Fmt.epr] warnings in the libraries.

    {2 Cost model and the gates}

    Every span costs two clock reads plus one histogram update. The
    default clock ({!Unix.gettimeofday}) is a few hundred nanoseconds
    per read, so instrumentation on {e per-item} hot paths (a grounder
    delta round, a solver stability check, a learner candidate
    evaluation) uses {!fine_span}, which is a no-op unless
    {!set_detailed} was called — one boolean read when disabled.
    Call-level spans ({!span}) are always measured and always feed the
    aggregate registry, which is what {!report} summarizes.

    GC accounting adds two [Gc.quick_stat] calls per span (tens of
    nanoseconds each — the stat is per-domain and does not stop the
    world), summed in the same locked histogram update; it is off by default and
    gated by {!set_gc_stats} independently of the detail gate, so
    latency profiling does not pay for allocation profiling.

    The clock measures {e wall-clock} time and is injectable with
    {!set_clock} so tests can run against a deterministic clock.

    {2 Domain safety}

    State is global but safe to use from multiple domains (the
    parallel learner, [lib/par] fan-outs): counter increments are
    atomic, the span stack is domain-local (each domain nests its own
    spans; {!span.sp_domain} records which domain a span ran on, and
    becomes the [tid] in Chrome exports), and each metric handle
    carries its own lock, so concurrent observes on
    {e different} metrics never contend and concurrent observes on the
    {e same} metric are serialized but lose nothing. Sink delivery and
    the trace buffer are serialized by one internal lock taken only on
    span finish — never per counter increment. Reads of aggregates
    ({!report}, [Histogram.count], …) take the same per-handle locks,
    so they are safe anytime, but a report taken {e during} a parallel
    region is a consistent snapshot per-metric, not across metrics;
    read after parallel regions complete, which is what the CLI and
    bench drivers do. *)

(** {1 Clock} *)

(** Replace the clock (seconds, monotone non-decreasing). Affects all
    subsequent spans; aggregates recorded under the old clock keep
    their values. *)
val set_clock : (unit -> float) -> unit

(** Restore the default clock ([Unix.gettimeofday]: wall-clock
    seconds, so spans covering blocking waits or multi-domain parallel
    sections report real elapsed time — unlike CPU-time clocks such as
    [Sys.time], which under-report sleeps and over-count parallel
    work). *)
val use_default_clock : unit -> unit

(** Current clock reading, in seconds. *)
val now : unit -> float

(** {1 Gates} *)

(** Enable/disable {!fine_span} recording (default: disabled). *)
val set_detailed : bool -> unit

val detailed_enabled : unit -> bool

(** Enable/disable per-span GC/allocation accounting (default:
    disabled). When enabled, every {!span} records [Gc.quick_stat]
    deltas — minor words allocated, words promoted, major collections —
    as span attributes ([gc.minor_words], [gc.promoted_words],
    [gc.major_collections]) and sums them on the span's histogram (the
    allocation columns of {!report_to_string}). Deltas are inclusive
    of child spans, like durations. *)
val set_gc_stats : bool -> unit

val gc_stats_enabled : unit -> bool

(** {1 Spans} *)

type attr = string * string

type span = {
  sp_name : string;
  sp_start : float;  (** clock reading at span start, seconds *)
  sp_dur : float;  (** duration, seconds *)
  sp_depth : int;
      (** nesting depth {e on the span's own domain}; roots are 0 *)
  sp_domain : int;  (** id of the domain the span ran on; main is 0 *)
  sp_attrs : attr list;
}

(** [span name f] runs [f], measuring it as one span. The duration is
    recorded in the histogram named [name] (see {!report}) and the
    finished span is delivered to every registered sink. Exception-safe:
    the span is recorded even when [f] raises. *)
val span : ?attrs:attr list -> string -> (unit -> 'a) -> 'a

(** Like {!span} when the detail gate is open ({!set_detailed}); just
    runs the thunk otherwise. For per-item hot-path instrumentation. *)
val fine_span : ?attrs:attr list -> string -> (unit -> 'a) -> 'a

(** Attach an attribute to the innermost open span (no-op outside any
    span). Later values for the same key shadow earlier ones in export
    order. *)
val set_attr : string -> string -> unit

(** Name of the innermost open span on the calling domain, if any.
    This is the span context {!Log} records carry. *)
val current_span_name : unit -> string option

(** Number of open spans on the calling domain. *)
val current_depth : unit -> int

(** {1 Trace context}

    Request-scoped identity: a domain-local optional trace ID that
    correlates everything one request touches. While a context is
    installed, every finished {!span} gains a [trace] attribute and
    every {!Log} record a ["trace"] field, so spans, log lines, and the
    serve-layer audit records of one request can be joined end to end.
    The context is domain-local ([Domain.DLS]); [lib/par] fan-outs
    re-install the submitting context on worker domains so it survives
    parallel sections. *)
module Trace_context : sig
  (** A fresh process-unique root ID ([<run-nonce>-<seq>]). The nonce
      mixes pid and start time so IDs from different runs are unlikely
      to collide in shared logs; the sequence makes them unique within
      the run. *)
  val new_root_id : unit -> string

  (** A child of the current context ([<parent>.<seq>]), or a fresh
      root when no context is installed. Used to give each request of a
      batch its own ID under the batch's ambient trace. *)
  val child_id : unit -> string

  (** The trace ID installed on the calling domain, if any. *)
  val current : unit -> string option

  (** [with_id id f] runs [f] with [id] installed, restoring the
      previous context afterwards (exception-safe). *)
  val with_id : string -> (unit -> 'a) -> 'a

  (** Like {!with_id} but installs an optional context verbatim —
      [with_opt None] masks any ambient context. *)
  val with_opt : string option -> (unit -> 'a) -> 'a

  (** [scope f] runs [f id] under the current context when one is
      installed, else under a fresh root installed for the call — the
      entry-point idiom: reuse the caller's trace, or start one. *)
  val scope : (string -> 'a) -> 'a
end

(** {1 Counters and histograms}

    Each metric kind keeps its handles in one find-or-create registry:
    [make] returns the handle registered under a name or creates it
    (parameters are fixed at first creation), and [all] lists the
    kind's handles sorted by name. *)

module Counter : sig
  type t

  val make : string -> t

  val incr : ?by:int -> t -> unit
  val value : t -> int
  val name : t -> string
  val reset : t -> unit
  val find : string -> t option
  val all : unit -> t list
end

module Histogram : sig
  type t

  (** Span durations land in the histogram named after the span. *)
  val make : string -> t

  val observe : t -> float -> unit
  val count : t -> int
  val total : t -> float

  (** Mean/max/min observed value; 0 when empty. *)
  val mean : t -> float

  val max_value : t -> float
  val min_value : t -> float

  (** [quantile h q] estimates the q-quantile of the observed values —
      the ⌈q·count⌉-th smallest observation ([q] clamped to [0,1]); 0
      when the histogram is empty.

      Observations are stored in logarithmic buckets (DDSketch-style,
      γ = 1.1): bucket [i] covers the interval (γ{^i-1}, γ{^i}] and is
      estimated by its midpoint 2γ{^i}/(γ+1), so every quantile
      estimate [e] of a true value [v] satisfies
      [|e - v| <= quantile_relative_error * v] — about 4.8% — with
      fixed memory (~400 int buckets spanning 1.4e-10 .. 4.6e6
      seconds; values outside are clamped to the edge buckets,
      non-positive values land in an exact zero bucket). *)
  val quantile : t -> float -> float

  (** The relative error bound α = (γ-1)/(γ+1) of {!quantile}. *)
  val quantile_relative_error : float

  val name : t -> string
  val reset : t -> unit
  val find : string -> t option
  val all : unit -> t list
end

(** {1 Rolling windows and SLOs} *)

(** Sliding-window histograms: like {!Histogram} (same log-bucket
    geometry and ±4.8% quantile error) but covering only the last
    [window] seconds. The window is a ring of time slots lazily
    re-stamped as the clock advances, so expiry needs no timer thread;
    queries merge the in-window slots. Deterministic under an injected
    clock ({!set_clock}). *)
module Window : sig
  type t

  (** [window] is the covered span in seconds (default 30), divided
      into [slots] ring slots (default 15 — the expiry granularity). *)
  val make : ?slots:int -> ?window:float -> string -> t

  val observe : t -> float -> unit

  (** Observations still inside the window. *)
  val count : t -> int

  val total : t -> float

  (** [count / window]: the windowed arrival rate per second. *)
  val rate : t -> float

  (** Windowed quantile, same estimator and error bound as
      {!Histogram.quantile}; 0 when the window is empty. *)
  val quantile : t -> float -> float

  val name : t -> string
  val window_seconds : t -> float
  val reset : t -> unit
  val find : string -> t option
  val all : unit -> t list
end

(** Latency SLO tracking with error-budget burn rate. An SLO says:
    over the rolling [window], at least [objective] of observations
    must be at or under [target] seconds. The {e error budget} is the
    allowed breach fraction (1 - objective); the {e burn rate} is the
    windowed breach fraction divided by that allowance — 1.0 spends
    the budget exactly at the sustainable pace, above 1 exhausts it
    early. *)
module Slo : sig
  type t

  type status = {
    slo_name : string;
    slo_target : float;  (** seconds *)
    slo_objective : float;
    slo_window : float;  (** seconds *)
    total : int;  (** observations since creation/reset *)
    breaches : int;  (** cumulative observations over target *)
    window_total : int;
    window_breaches : int;
    compliance : float;  (** windowed in-target fraction; 1 when idle *)
    burn_rate : float;
    budget_remaining : float;
        (** [1 - burn_rate]: fraction of the window's error budget
            unspent; negative when overspent *)
  }

  (** [objective] defaults to 0.99 (clamped to [0,1]), [window] to
      60 s. *)
  val make : ?objective:float -> ?window:float -> target:float -> string -> t

  (** Record one observed latency (seconds). *)
  val record : t -> float -> unit

  val status : t -> status
  val name : t -> string
  val reset : t -> unit
  val find : string -> t option
  val all : unit -> t list
end

(** {1 Policy health}

    Streaming health estimation for the generative-policy loop: one
    {!Health.t} per monitored boolean stream (a PCP violation, a PEP
    non-compliance, a PDP fallback). Each {!Health.observe} updates a
    cumulative tally, a per-GPM-version tally, a count-based rolling
    window, and a Page–Hinkley change-point test over the stream mean;
    when the PH statistic crosses the alarm threshold, a structured
    {!Health.event} is appended to a global {!Ring} (the serve
    layer's audit trail is one too) and the
    detector re-arms. Rolling rates are request-indexed (no clock), and
    event timestamps come from {!now}, so the whole pipeline is
    deterministic under an injected clock ({!set_clock}). *)
module Health : sig
  type config = {
    window : int;  (** rolling-rate window, in observations *)
    min_observations : int;
        (** detector warm-up: no alarm before this many observations
            since creation or the last alarm *)
    ph_delta : float;
        (** Page–Hinkley drift tolerance δ: sustained deviation below
            [mean + δ] never accumulates toward an alarm *)
    ph_lambda : float;  (** Page–Hinkley alarm threshold λ *)
  }

  (** window 50, min_observations 10, δ = 0.05, λ = 2.0 — tuned so a
      periodic stationary stream never alarms while a 0→1 rate shift is
      caught within a handful of observations. *)
  val default_config : config

  type t

  val make : ?config:config -> string -> t

  (** [observe ?version s positive] feeds one boolean observation,
      optionally tallied under GPM version [version]. May raise a
      health event (kind ["rate_shift"]) as a side effect. *)
  val observe : ?version:int -> t -> bool -> unit

  val name : t -> string
  val observations : t -> int
  val positives : t -> int

  (** Positive fraction of the last [window] observations; 0 when
      empty. *)
  val rate : t -> float

  (** Positive fraction of every observation since creation/reset. *)
  val overall_rate : t -> float

  (** Per-GPM-version [(version, observations, rate)], sorted by
      version. Only observations fed with [?version] are tallied. *)
  val version_rates : t -> (int * int * float) list

  (** Number of detector alarms raised by this signal. *)
  val alarms : t -> int

  val reset : t -> unit
  val find : string -> t option
  val all : unit -> t list

  (** A structured health event: a detector alarm ([ev_kind =
      "rate_shift"], [ev_baseline] the PH running mean at alarm,
      [ev_current] the rolling rate, [ev_deviation] the PH statistic)
      or a lifecycle event emitted by a layer (the PAdaP's
      ["relearn"], where [ev_old_size]/[ev_new_size] are hypothesis
      sizes, [ev_baseline]/[ev_current] accuracies over the retained
      examples, and [ev_detail] the trigger reason). *)
  type event = {
    ev_seq : int;
    ev_ts : float;
    ev_signal : string;
    ev_kind : string;
    ev_gpm_version : int;  (** -1 when no version was ever observed *)
    ev_observations : int;
    ev_baseline : float;
    ev_current : float;
    ev_deviation : float;
    ev_old_size : int;
    ev_new_size : int;
    ev_detail : string;
  }

  (** Append an event to the global ring (and bump the
      [health.events] counter). Used by the detector internally and by
      layers reporting lifecycle events (e.g. PAdaP re-learns). *)
  val emit :
    ?gpm_version:int ->
    ?observations:int ->
    ?baseline:float ->
    ?current:float ->
    ?deviation:float ->
    ?old_size:int ->
    ?new_size:int ->
    ?detail:string ->
    signal:string ->
    kind:string ->
    unit ->
    event

  (** The global event {!Ring} (256 events by default): the retained
      events, oldest first ([last] keeps only the newest [n]); the
      number ever emitted; a resize, which clears it; a clear. *)
  val events : ?last:int -> unit -> event list

  val events_total : unit -> int
  val set_ring_capacity : int -> unit
  val clear_events : unit -> unit

  (** One JSON object per event: [{"seq", "ts", "signal", "kind",
      "gpm_version", "observations", "baseline", "current",
      "deviation", "old_size", "new_size", "detail"}] — the line format
      of {!write_jsonl} and the [health/1] export. *)
  val event_to_json : event -> string

  (** Parse one JSONL line; raises {!Json.Parse_error} on malformed
      input. *)
  val event_of_json : string -> event

  val write_jsonl : string -> event list -> unit
  val read_jsonl : string -> event list
end

(** Zero every registered counter, histogram (GC sums included),
    window, SLO, and health signal (handles stay valid), clear the
    health event ring, and clear the trace buffer. *)
val reset : unit -> unit

(** {1 Sinks} *)

type sink = { on_span : span -> unit }

val register_sink : sink -> unit
val unregister_sink : sink -> unit

(** Is at least one sink registered? Span attributes reach sinks only
    ({!set_attr}), so a caller can skip formatting them when none is. *)
val has_sinks : unit -> bool

(** {1 JSON reading} *)

(** A minimal JSON parser — the dependency set has no JSON library.
    Used by the bench regression gate to load committed baselines and
    by tests to round-trip the exporters. Numbers are parsed as
    floats; [\uXXXX] escapes are not decoded (replaced with ['?']). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Parse_error of string

  (** Parse a complete JSON document; raises {!Parse_error} on
      malformed or trailing input. *)
  val parse : string -> t

  (** Object member access; raises {!Parse_error} when absent or not
      an object. *)
  val member : string -> t -> t

  val member_opt : string -> t -> t option
  val to_list : t -> t list
  val to_str : t -> string
  val to_num : t -> float
  val to_bool : t -> bool

  (** Escape a string for embedding inside JSON double quotes. *)
  val escape : string -> string

  (** JSON Lines: one [to_json] object per item; reading skips blank
      lines and lets [of_json]'s exceptions propagate. *)
  val write_jsonl : string -> ('a -> string) -> 'a list -> unit

  val read_jsonl : string -> (string -> 'a) -> 'a list
end

(** {1 Bounded rings} *)

(** A mutex-guarded ring keeping the newest [capacity] items of a
    sequence ([capacity >= 1] enforced): the health event ring and the
    serve layer's decision audit trail. Each item gets its 0-based
    position in the sequence; {!Ring.total} keeps counting past the
    capacity, so truncation is visible. *)
module Ring : sig
  type 'a t

  val create : capacity:int -> 'a t
  val capacity : 'a t -> int

  (** Items retained. *)
  val length : 'a t -> int

  (** Items ever added. *)
  val total : 'a t -> int

  (** [add r make] appends [make seq] and returns it. *)
  val add : 'a t -> (int -> 'a) -> 'a

  (** Retained items, oldest first; [last] keeps only the newest [n]. *)
  val to_list : ?last:int -> 'a t -> 'a list

  val clear : 'a t -> unit

  (** Empty the ring and change its capacity. *)
  val resize : 'a t -> int -> unit
end

(** {1 Structured logging} *)

(** Leveled structured logging with span context.

    Records below the threshold ({!set_level}, default [Warn]) are
    dropped at the call site. Enabled records go to the JSONL file
    opened with {!open_file} (one object per line:
    [{"ts": seconds, "level": "...", "domain": n, "span": name-or-null,
    "trace": id-or-null, "depth": n, "msg": "...", "attrs": {...}}] —
    [span]/[depth] are the innermost open span and nesting depth on the
    logging domain, [trace] the ambient {!Trace_context} ID),
    and records at or above the stderr threshold
    ({!set_stderr_threshold}, default [Warn]) are also mirrored to
    stderr as one stable human-readable line
    ([% [level] msg (k=v, ...)] — no timestamp, so test output is
    deterministic). Logging is safe from any domain. *)
module Log : sig
  type level = Debug | Info | Warn | Error

  val level_to_string : level -> string

  (** Minimum level that is recorded at all (default [Warn]). *)
  val set_level : level -> unit

  val level : unit -> level

  (** [enabled l] is true when a record at level [l] would be kept. *)
  val enabled : level -> bool

  (** Minimum level mirrored to stderr; [None] silences stderr
      entirely (default [Some Warn]). *)
  val set_stderr_threshold : level option -> unit

  (** Open (or replace) the JSONL output file. *)
  val open_file : string -> unit

  (** Flush and close the JSONL file, if open. *)
  val close_file : unit -> unit

  val log : level -> ?attrs:attr list -> string -> unit
  val debug : ?attrs:attr list -> string -> unit
  val info : ?attrs:attr list -> string -> unit
  val warn : ?attrs:attr list -> string -> unit
  val error : ?attrs:attr list -> string -> unit
end

(** {1 Trace collection and exporters} *)

module Trace : sig
  (** Start retaining finished spans in memory (idempotent). Retention
      is capped (default 1,000,000 spans); spans beyond the cap are
      counted in {!dropped} instead of retained. *)
  val start : unit -> unit

  val active : unit -> bool

  (** Stop collecting and return the retained spans in start order. *)
  val stop : unit -> span list

  (** Retained spans so far, in start order, without stopping. *)
  val spans : unit -> span list

  val clear : unit -> unit
  val dropped : unit -> int
  val set_limit : int -> unit

  (** Render spans as Chrome [trace_event] JSON (the format of
      [chrome://tracing] and {{:https://ui.perfetto.dev}Perfetto}): one
      complete ("ph":"X") event per span with microsecond timestamps
      relative to the earliest span, [cat] set to the span's layer
      (name segment before the first dot), and attributes plus nesting
      depth under [args]. *)
  val to_chrome_json : span list -> string

  val write_chrome : string -> span list -> unit

  (** Render spans as Brendan-Gregg folded stacks (the input format of
      [flamegraph.pl] and of speedscope's "folded" importer): one line
      per distinct call stack, [frame;frame;frame weight], where the
      weight is the stack's {e self} time (duration minus children) in
      integer microseconds, summed over occurrences. The call tree is
      reconstructed from recorded depths per domain; when spans from
      more than one domain are present, stacks are rooted at a
      synthetic [domainN] frame. Lines are sorted for determinism. *)
  val to_folded : span list -> string

  val write_folded : string -> span list -> unit

  (** Render spans as a {{:https://www.speedscope.app}speedscope} JSON
      document ([evented] format, one profile per domain, times in
      seconds relative to the earliest span). Open/close event pairs
      are emitted from the reconstructed call tree with a monotone
      cursor, so the event sequence is always well-nested and
      non-decreasing as the schema requires. [name] defaults to
      ["agenp"]. *)
  val to_speedscope_json : ?name:string -> span list -> string

  val write_speedscope : ?name:string -> string -> span list -> unit
end

(** {1 OpenMetrics exposition} *)

(** Render the registries in the OpenMetrics/Prometheus text format —
    what a [/metrics] endpoint serves. *)
module Openmetrics : sig
  (** The HTTP [Content-Type] of the rendered document. *)
  val content_type : string

  (** Replace characters outside [[a-zA-Z0-9_:]] with ['_']. *)
  val sanitize : string -> string

  (** [metric name] is the exposition name: ["agenp_" ^ sanitize name]. *)
  val metric : string -> string

  (** [render ()] renders every registered counter (as [<name>_total]
      with a [counter] TYPE line), non-empty histogram (as a summary:
      [quantile="0.5"/"0.9"/"0.99"] samples plus [_sum]/[_count],
      suffixed [_seconds]), non-empty window (labeled gauges suffixed
      [_window_seconds]/[_window_count]/[_window_rate]), SLO
      ([_compliance]/[_burn_rate]/[_budget_remaining] gauges and a
      [_breaches_total] counter, labeled with target and objective),
      non-empty health signal (gauges [agenp_health_<name>_rate] /
      [_observations], per-version gauges labeled [gpm_version], and an
      [_alarms_total] counter), and current GC figures ([agenp_gc_*]
      gauges); [extra] appends
      caller gauges as [(name, labels, value)] triples. The document
      ends with ["# EOF"] as the spec requires. *)
  val render :
    ?extra:(string * (string * string) list * float) list -> unit -> string
end

(** {1 Aggregate report} *)

type span_agg = {
  agg_name : string;
  agg_count : int;
  agg_total : float;  (** seconds *)
  agg_mean : float;
  agg_max : float;
  agg_p50 : float;  (** {!Histogram.quantile} 0.50 — ±4.8% *)
  agg_p90 : float;
  agg_p99 : float;
  agg_minor_words : float;
      (** total minor-heap words allocated under this span name (0
          unless {!set_gc_stats} was enabled) *)
  agg_promoted_words : float;
  agg_major_collections : int;
}

type window_agg = {
  w_name : string;
  w_window : float;  (** window width, seconds *)
  w_count : int;
  w_rate : float;  (** arrivals per second over the window *)
  w_p50 : float;
  w_p90 : float;
  w_p99 : float;
}

type report = {
  r_spans : span_agg list;  (** non-empty histograms, sorted by name *)
  r_counters : (string * int) list;  (** all counters, sorted by name *)
  r_windows : window_agg list;  (** non-empty windows, sorted by name *)
  r_slos : Slo.status list;  (** all registered SLOs, sorted by name *)
}

val report : unit -> report

(** Human-readable table: one line per span name
    ([name count total mean p50 p90 p99 max], plus
    [minor(w) promoted(w) majgc] columns when any allocation data was
    recorded) and one line per counter; window and SLO sections follow
    only when windows/SLOs are registered and non-empty, so reports
    from runs that never used them are unchanged. *)
val report_to_string : report -> string

val pp_report : Format.formatter -> report -> unit

(** One JSON object: [{"spans": {name: {count, total_s, mean_s, p50_s,
    p90_s, p99_s, max_s, gc: {minor_words, promoted_words,
    major_collections}}}, "counters": {name: value}, "windows": {name:
    {window_s, count, rate, p50_s, p90_s, p99_s}}, "slos": {name:
    {target_s, objective, window_s, total, breaches, window_total,
    window_breaches, compliance, burn_rate, budget_remaining}}}]. *)
val report_to_json : report -> string
