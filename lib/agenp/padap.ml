(** The Policy Adaptation Point of Figure 2: monitors the effects of
    decisions, accumulates evidence, and relearns the generative policy
    model (via the ASG learner) when the system stops meeting its goals —
    a violation-rate trigger — or when the context shifts. *)

type config = {
  space : Ilp.Hypothesis_space.t;
  relearn_threshold : float;
      (** violation rate over the window that triggers relearning *)
  window : int;  (** number of recent observations considered *)
  memory : int;  (** maximum retained examples (sliding window) *)
  example_weight : int option;
      (** weight given to observation examples; [Some w] tolerates noise *)
  pool : Par.t option;
      (** domain pool for the learner's fan-outs; [None] uses the
          process-wide {!Par.Config.pool} *)
}

let default_config space =
  {
    space;
    relearn_threshold = 0.2;
    window = 20;
    memory = 400;
    example_weight = Some 1;
    pool = None;
  }

type t = {
  config : config;
  gpm0 : Asg.Gpm.t;  (** the PReP-refined initial model *)
  mutable hypothesis : Ilp.Task.hypothesis;
  examples : Ilp.Example.t Obs.Ring.t;  (** the last [memory] examples *)
  recent_violations : bool Obs.Ring.t;  (** the last [window] observations *)
  mutable relearn_count : int;
  mutable context_changed : bool;
      (** external signal: the operating context has shifted *)
  mutable current : Asg.Gpm.t;
      (** [apply_hypothesis gpm0 hypothesis], cached so the served model
          (and its {!Asg.Gpm.version}) is stable between adaptations —
          recomputing per request would stamp a fresh version each time
          and defeat the serving layer's decision memo *)
  mutable carried : (Ilp.Task.t * Ilp.Learner.outcome) option;
      (** the last relearn that found a hypothesis: its task and outcome,
          whose evidence the next relearn reuses for the examples still
          retained. It depends only on [gpm0], the space and those
          examples, so it outlives a failed relearn and an [install]. *)
}

let create config gpm0 =
  {
    config;
    gpm0;
    hypothesis = [];
    examples = Obs.Ring.create ~capacity:config.memory;
    recent_violations = Obs.Ring.create ~capacity:config.window;
    relearn_count = 0;
    context_changed = false;
    current = Ilp.Task.apply_hypothesis gpm0 [];
    carried = None;
  }

(** The current learned GPM. *)
let gpm (t : t) : Asg.Gpm.t = t.current

let refresh (t : t) =
  t.current <- Ilp.Task.apply_hypothesis t.gpm0 t.hypothesis

(** Newest first. *)
let examples t = List.rev (Obs.Ring.to_list t.examples)

let relearn_count t = t.relearn_count

(* [Obs.Ring.create] clamps its capacity to 1: a bound of 0 keeps nothing *)
let push ring ~bound x = if bound > 0 then ignore (Obs.Ring.add ring (fun _ -> x))

let add_example (t : t) (e : Ilp.Example.t) =
  push t.examples ~bound:t.config.memory e

(** Record whether the last decision violated the environment's ground
    truth (as observed by monitoring). *)
let record_violation (t : t) (violated : bool) =
  push t.recent_violations ~bound:t.config.window violated

let violation_rate (t : t) =
  match Obs.Ring.to_list t.recent_violations with
  | [] -> 0.0
  | vs ->
    float_of_int (List.length (List.filter Fun.id vs))
    /. float_of_int (List.length vs)

let c_relearns = Obs.Counter.make "agenp.padap.relearns"

(** Unconditional relearning from the accumulated evidence. Keeps the old
    hypothesis when the task has become unsolvable. [reason] labels the
    lifecycle event this emits into the policy-health plane ("manual"
    when called directly; [maybe_adapt] passes its trigger). *)
let relearn ?(reason = "manual") (t : t) : [ `Updated | `Unchanged | `Failed ]
    =
  Obs.span "agenp.padap.relearn" ~attrs:[ ("reason", reason) ] @@ fun () ->
  Obs.Counter.incr c_relearns;
  let examples = Obs.Ring.to_list t.examples in
  let old_size = List.length t.hypothesis in
  let old_version = Asg.Gpm.version t.current in
  let task = Ilp.Task.make ~gpm:t.gpm0 ~space:t.config.space ~examples in
  let outcome = Ilp.Learner.learn ?pool:t.config.pool ?carried:t.carried task in
  Option.iter (fun o -> t.carried <- Some (task, o)) outcome;
  (* the share of the retained evidence [gpm0 : h] covers, read from the
     learner's witnesses: the accuracy the lifecycle event reports
     before and after the adaptation *)
  let accuracy h =
    match examples with
    | [] -> 1.0
    | es ->
      float_of_int (Ilp.Learner.covered task outcome h)
      /. float_of_int (List.length es)
  in
  let old_accuracy = accuracy t.hypothesis in
  let emit status new_accuracy =
    ignore
      (Obs.Health.emit ~signal:"padap.relearn" ~kind:"relearn"
         ~gpm_version:old_version
         ~observations:(List.length examples)
         ~baseline:old_accuracy ~current:new_accuracy
         ~deviation:(new_accuracy -. old_accuracy)
         ~old_size
         ~new_size:(List.length t.hypothesis)
         ~detail:(reason ^ ":" ^ status) ()
        : Obs.Health.event)
  in
  match outcome with
  | None ->
    emit "failed" old_accuracy;
    `Failed
  | Some outcome ->
    t.relearn_count <- t.relearn_count + 1;
    let same =
      List.length outcome.Ilp.Learner.hypothesis = List.length t.hypothesis
      && List.for_all2
           (fun (a : Ilp.Hypothesis_space.candidate)
                (b : Ilp.Hypothesis_space.candidate) ->
             a.prod_id = b.prod_id
             && Asg.Annotation.equal_rule a.rule b.rule)
           outcome.Ilp.Learner.hypothesis t.hypothesis
    in
    t.hypothesis <- outcome.Ilp.Learner.hypothesis;
    refresh t;
    Obs.Ring.clear t.recent_violations;
    emit (if same then "unchanged" else "updated") (accuracy t.hypothesis);
    if same then `Unchanged else `Updated

(** Signal a context shift (from the PIP or an operator): the next
    [maybe_adapt] relearns regardless of the violation rate — the paper's
    second adaptation trigger. *)
let signal_context_change (t : t) = t.context_changed <- true

(** Adapt if the monitored violation rate crosses the threshold (and
    there is enough evidence to learn from), or if a context change was
    signalled. *)
let maybe_adapt (t : t) : [ `Updated | `Unchanged | `Failed | `Not_triggered ] =
  let violation_trigger =
    Obs.Ring.length t.recent_violations >= t.config.window
    && violation_rate t >= t.config.relearn_threshold
  in
  if (violation_trigger || t.context_changed) && Obs.Ring.length t.examples > 0
  then begin
    let reason =
      if violation_trigger then "violation_rate" else "context_change"
    in
    t.context_changed <- false;
    (relearn ~reason t :> [ `Updated | `Unchanged | `Failed | `Not_triggered ])
  end
  else `Not_triggered

(** Install an externally produced hypothesis (used by coalition policy
    sharing after PCP validation). *)
let install (t : t) (h : Ilp.Task.hypothesis) =
  t.hypothesis <- h;
  refresh t

let hypothesis t = t.hypothesis
