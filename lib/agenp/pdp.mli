(** The Policy Decision Point: the first preference-ordered option valid
    in the context; the last option as a flagged fail-safe. *)

exception No_options
(** Raised on an empty options list (alias of {!Serve.No_options}) —
    there is nothing to decide and no fail-safe to fall back to. *)

(** Decide; with [engine] the decision is served through a serving
    target (whose model is updated to [gpm] first): either a private
    {!Serve.t} engine or one tenant's shard of a {!Serve.Cluster}.
    Without a target the options are checked through the model's
    compiled view ({!Asg.Membership.accepts_in_context}). All paths
    return identical decisions — a cluster rejection (a tenant the
    cluster does not own) falls back to the cache-free reference path
    ({!Serve.decide_uncached}) rather than losing the decision.
    @raise No_options when [options] is empty. *)
val decide :
  ?engine:Serve.target ->
  Asg.Gpm.t ->
  context:Asp.Program.t ->
  options:string list ->
  Serve.Decision.t
