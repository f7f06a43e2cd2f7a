(** The Autonomous Managed System: the composition of every point in
    Figure 2 into one closed loop. A request arrives with a local
    context; the PIP merges external facts; the PDP decides using the
    current learned GPM; the PEP enforces and monitoring compares the
    outcome with the environment; the PAdaP turns observations into
    examples and relearns when violations accumulate; the PReP
    regenerates the concrete policy set into the repository. *)

type environment = {
  options : string list;
      (** decision strings in preference order; last is the fail-safe *)
  oracle : Asp.Program.t -> string -> bool;
      (** monitoring's ground truth: was this decision valid here? *)
  audit_rate : float;
      (** probability that monitoring audits {e all} options, not just the
          chosen one (models periodic human review) *)
}

type t = {
  name : string;
  env : environment;
  padap : Padap.t;
  pep : Pep.t;
  pip : Pip.t;
  mutable context : Asp.Program.t;
      (** the last request's context, merged with the PIP's facts: what
          {!generate_policies} generates for *)
  repository : Repository.t;
  rng : Random.State.t;
  mutable serve_engine : Serve.target option;
      (** when attached, the PDP routes decisions through the serving
          target — a private engine or this member's shard of a
          cluster *)
}

let create ~name ~seed ~(spec : Prep.pbms_spec) ~(space : Ilp.Hypothesis_space.t)
    ?(padap_config : Padap.config option) (env : environment) : t =
  let gpm0 = Prep.refine spec in
  let config =
    Option.value padap_config ~default:(Padap.default_config space)
  in
  {
    name;
    env;
    padap = Padap.create config gpm0;
    pep = Pep.create ();
    pip = Pip.create ();
    context = Asp.Program.empty;
    repository = Repository.create ();
    rng = Random.State.make [| seed |];
    serve_engine = None;
  }

let gpm t = Padap.gpm t.padap
let attach_engine t engine = t.serve_engine <- Some engine
let base_gpm t = t.padap.Padap.gpm0
let repository t = t.repository
let name t = t.name
let compliance_rate t = Pep.compliance_rate t.pep
let relearn_count t = Padap.relearn_count t.padap

(** Feed one labelled observation into the PAdaP. *)
let learn_from t ~context option_ ~valid =
  let e =
    if valid then
      Ilp.Example.positive ?weight:t.padap.Padap.config.Padap.example_weight
        ~context option_
    else
      Ilp.Example.negative ?weight:t.padap.Padap.config.Padap.example_weight
        ~context option_
  in
  Padap.add_example t.padap e

(** The full request loop. Returns the enforcement record. *)
let handle_request (t : t) (local_context : Asp.Program.t) : Pep.record =
  Obs.span "agenp.ams.request" @@ fun () ->
  (* PIP: merge external conditions into the context *)
  let external_facts = Pip.poll_all t.pip in
  let context = Asp.Program.append local_context external_facts in
  t.context <- context;
  (* PDP: decide with the current learned model *)
  let decision =
    Pdp.decide ?engine:t.serve_engine (gpm t) ~context
      ~options:t.env.options
  in
  (* PEP + monitoring: enforce, compare with ground truth *)
  let verdict = t.env.oracle context decision.Serve.Decision.chosen in
  let record =
    Pep.enforce ~gpm_version:(Asg.Gpm.version (gpm t)) t.pep ~decision
      ~verdict
  in
  (* monitoring feedback: the chosen option's validity is observed *)
  learn_from t ~context decision.Serve.Decision.chosen ~valid:verdict;
  (* periodic audit: label every option *)
  if Random.State.float t.rng 1.0 < t.env.audit_rate then
    List.iter
      (fun opt ->
        if opt <> decision.Serve.Decision.chosen then
          learn_from t ~context opt ~valid:(t.env.oracle context opt))
      t.env.options;
  Padap.record_violation t.padap (not verdict);
  (* PAdaP: adapt when violations accumulate *)
  (match Padap.maybe_adapt t.padap with
  | `Updated ->
    ignore (Repository.store_representation t.repository (gpm t))
  | `Failed | `Unchanged | `Not_triggered -> ());
  record

(** PReP policy generation for the current context. *)
let generate_policies ?max_depth (t : t) : string list =
  let _, policies =
    Prep.generate_policies ?max_depth (gpm t) ~context:t.context t.repository
  in
  policies

(** Force relearning now (e.g. after adopting shared knowledge). *)
let relearn t = Padap.relearn t.padap

(** Signal that the operating context has shifted; the PAdaP will relearn
    on the next request regardless of the violation rate. *)
let signal_context_change t = Padap.signal_context_change t.padap

let hypothesis t = Padap.hypothesis t.padap
let examples t = Padap.examples t.padap
let install_hypothesis t h = Padap.install t.padap h
