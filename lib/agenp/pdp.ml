(** The Policy Decision Point: answers requests by consulting the policies
    the generative model admits in the current context. Options are tried
    in preference order; the first valid one is the decision. A fallback
    (the last option) applies when the model admits nothing — and the
    event is flagged so the PAdaP can react to the coverage gap.

    The decision rule lives in the serving layer ({!Serve.decide_with});
    this module is the AGenP-facing wrapper that adds the
    [agenp.pdp.decide] span and fallback logging, and optionally routes
    through a serving target — a private caching engine or one tenant's
    shard of a cluster. Without a target, each option is checked through
    the model's compiled view ({!Asg.Membership.accepts_in_context}). *)

exception No_options = Serve.No_options

let c_fallbacks = Obs.Counter.make "agenp.pdp.fallbacks"
let h_fallbacks = Obs.Health.make "pdp.fallbacks"

let decide ?(engine : Serve.target option) (gpm : Asg.Gpm.t)
    ~(context : Asp.Program.t) ~(options : string list) : Serve.Decision.t =
  (* one trace scope per PDP decision: the pdp span, the serve engine
     (or the model's compiled membership) beneath it, and any fallback
     log line all correlate under the same request-scoped ID *)
  Obs.Trace_context.scope @@ fun _trace_id ->
  Obs.span "agenp.pdp.decide"
    ~attrs:[ ("options", string_of_int (List.length options)) ]
  @@ fun () ->
  let d =
    match engine with
    | Some (Serve.Engine e) ->
      Serve.set_gpm e gpm;
      (Serve.decide e (Serve.Request.make ~context ~options ())).Serve.Response
        .decision
    | Some (Serve.Tenant (cluster, tenant)) -> (
      Serve.Cluster.set_gpm cluster ~tenant gpm;
      let request = Serve.Request.make ~tenant ~context ~options () in
      match Serve.Cluster.decide cluster request with
      | Serve.Cluster.Served r -> r.Serve.Response.decision
      | Serve.Cluster.Rejected _ ->
        (* a rejection never loses a decision: fall back to the
           cache-free reference path, which is outcome-identical *)
        Serve.decide_uncached gpm request)
    | None ->
      Serve.decide_with options
        ~membership:(Asg.Membership.accepts_in_context gpm ~context)
  in
  Obs.set_attr "fallback_used"
    (string_of_bool d.Serve.Decision.fallback_used);
  Obs.Health.observe ~version:(Asg.Gpm.version gpm) h_fallbacks
    d.Serve.Decision.fallback_used;
  if d.Serve.Decision.fallback_used then begin
    Obs.Counter.incr c_fallbacks;
    Obs.Log.info "pdp fell back: model admits no requested option"
      ~attrs:
        [
          ("chosen", d.Serve.Decision.chosen);
          ("options", string_of_int (List.length options));
        ]
  end;
  d
