(** A small domain pool for data-parallel fan-outs (linking only
    [lib/obs], whose trace context it propagates).

    The learner's hot loops — per-example witness generation, the
    candidate×witness kill matrix, multi-seed experiment sweeps — are
    embarrassingly parallel: many independent pure computations whose
    results are combined positionally. This module runs them across a
    {e fixed} set of OCaml 5 domains with a strict determinism contract:

    {b parallelism only reorders work, never the outcome.}

    Concretely, for a function [f] whose result depends only on its
    argument:

    - {!parallel_map}[ pool f arr] returns exactly [Array.map f arr] —
      results land at their input's index, independent of scheduling;
    - if some [f arr.(i)] raises, the call raises the {e same} exception
      the sequential [Array.map] would have raised: the one from the
      lowest failing index (later elements may or may not have been
      evaluated, exactly as if iteration had stopped there);
    - a pool of size 1 (or an absent pool) runs the plain sequential
      loop on the calling domain — zero scheduling overhead, bitwise
      the seed behaviour.

    Work is submitted in index-order chunks to a shared queue served by
    [size - 1] worker domains; the submitting domain also drains the
    queue while waiting, so a pool of size [n] applies [n] domains to
    the batch and nested submissions from inside a task cannot
    deadlock (the waiter helps run whatever is queued).

    Pools are cheap to keep around and expensive to create (one
    [Domain.spawn] per worker), so create one per process — normally
    via {!Config} at the entry point — and reuse it. *)

type t
(** A pool: a fixed worker set plus a shared task queue. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] builds a pool applying [domains] domains in
    total (the caller counts as one, so [domains - 1] workers are
    spawned). [domains] defaults to {!Domain.recommended_domain_count};
    values [<= 1] — including on a single-core machine — yield a
    sequential pool with no workers. *)

val size : t -> int
(** Total parallelism of the pool (workers + the submitting domain);
    [1] for a sequential pool. *)

val shutdown : t -> unit
(** Stop the workers and join them (idempotent). Outstanding tasks are
    completed first. Using the pool after shutdown falls back to
    sequential execution. *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f arr] is [Array.map f arr], evaluated across
    the pool in index-order chunks. See the determinism contract
    above. [f] must not depend on evaluation order; shared mutable
    state it touches must be domain-safe (e.g. [Obs] counters).

    The submitting domain's [Obs.Trace_context] (captured once at
    submission) is re-installed around every chunk, so request-scoped
    trace IDs propagate across the fan-out no matter which domain runs
    which chunk. *)

val parallel_iter : t -> ('a -> unit) -> 'a array -> unit
(** [parallel_iter pool f arr] runs [f] on every element, in parallel.
    Same exception contract as {!parallel_map}. *)

(** Process-wide parallelism configuration.

    Entry points (the CLI's [--domains N], the bench driver) set the
    degree once; libraries default their [?pool] argument to
    {!Config.pool}. The default degree is [1] — sequential — so
    parallelism is always an explicit opt-in and the seed behaviour is
    preserved everywhere else. *)
module Config : sig
  val set_domains : int -> unit
  (** Set the process-wide parallelism degree and shut down any
      previously built global pool (a new one is built lazily at the
      next {!pool} call). [n <= 1] means sequential. *)

  val domains : unit -> int
  (** The configured degree (default [1]). *)

  val pool : unit -> t
  (** The lazily created process-wide pool, sized to {!domains}. *)
end
