(** The Policy Adaptation Point (Figure 2): accumulates monitored
    evidence and relearns the generative policy model when violations
    cross a threshold or the context shifts. *)

type config = {
  space : Ilp.Hypothesis_space.t;
  relearn_threshold : float;
      (** violation rate over the window that triggers relearning *)
  window : int;  (** recent observations considered *)
  memory : int;  (** maximum retained examples (sliding window) *)
  example_weight : int option;
      (** weight of observation examples; [Some w] tolerates noise *)
  pool : Par.t option;
      (** domain pool for the learner's fan-outs; [None] uses the
          process-wide {!Par.Config.pool} *)
}

val default_config : Ilp.Hypothesis_space.t -> config

type t = {
  config : config;
  gpm0 : Asg.Gpm.t;  (** the PReP-refined initial model *)
  mutable hypothesis : Ilp.Task.hypothesis;
  examples : Ilp.Example.t Obs.Ring.t;  (** the last [memory] examples *)
  recent_violations : bool Obs.Ring.t;
      (** the last [window] observations; cleared by a successful relearn *)
  mutable relearn_count : int;
  mutable context_changed : bool;
  mutable current : Asg.Gpm.t;
      (** cached [apply_hypothesis gpm0 hypothesis]; keeps the served
          model's version stable between adaptations *)
  mutable carried : (Ilp.Task.t * Ilp.Learner.outcome) option;
      (** the task and outcome of the last relearn that found a
          hypothesis, passed to the next relearn so that the examples
          still retained keep their witnesses and killer lists; bounded
          by [memory], kept across a failed relearn *)
}

val create : config -> Asg.Gpm.t -> t

(** The current learned GPM (initial model + hypothesis). *)
val gpm : t -> Asg.Gpm.t

(** The retained examples, newest first. *)
val examples : t -> Ilp.Example.t list
val relearn_count : t -> int
val add_example : t -> Ilp.Example.t -> unit
val record_violation : t -> bool -> unit
val violation_rate : t -> float

(** Unconditional relearning; keeps the old hypothesis on failure.
    Only the examples added since the last successful relearn (see
    [carried]) have their witnesses enumerated. Emits an {!Obs.Health}
    lifecycle event (signal ["padap.relearn"], kind ["relearn"])
    carrying the trigger [reason] (default ["manual"]), examples
    consumed, old/new hypothesis size, and the accuracy delta over the
    retained evidence. Both accuracies are read from the learner's
    witnesses ({!Ilp.Learner.covered}). *)
val relearn : ?reason:string -> t -> [ `Updated | `Unchanged | `Failed ]

(** Signal a context shift: the next [maybe_adapt] relearns regardless of
    the violation rate. *)
val signal_context_change : t -> unit

val maybe_adapt : t -> [ `Updated | `Unchanged | `Failed | `Not_triggered ]

(** Install an externally produced hypothesis (coalition sharing). *)
val install : t -> Ilp.Task.hypothesis -> unit

val hypothesis : t -> Ilp.Task.hypothesis
