(** The inductive learner: minimal-cost hypotheses for Definition-3 tasks
    (the role ILASP plays in the paper).

    Constraint-only spaces use an exact witness/set-cover branch-and-bound
    (greedy warm start, penalty-aware bounds, anytime node cap); general
    spaces use best-first subset search with full membership checks. Soft
    example weights buy ILASP-style noise tolerance: an example may be
    left uncovered at its weight's cost. *)

type stats = {
  witnesses : int;
  truncated : int;
      (** examples whose witness enumeration hit the [max_witnesses]
          cap (also counted in the [ilp.witnesses_truncated] counter);
          a non-zero value means the learner reasoned about a strict
          subset of the possible (tree, answer set) pairs and the
          result may change under a larger cap *)
  nodes : int;
  duration : float;  (** seconds, wall-clock *)
  candidates : int;
      (** hypothesis-space candidates considered (also counted in the
          [ilp.candidates] counter) *)
  pruned : int;
      (** branch-and-bound nodes cut by the cost bound (counter
          [ilp.nodes_pruned]); 0 on the general path *)
  kill_cells : int;
      (** set cells of the candidate × witness kill matrix (counter
          [ilp.kill_cells]; the fill ratio lands in the
          [ilp.kill_matrix.density] histogram); 0 on the general path *)
  max_depth : int;
      (** deepest refinement reached: largest chosen-candidate set held
          at once during the search *)
}

(** A witness: one (parse tree, answer set) pair of an example under the
    base grammar; exposed for testing and diagnostics. *)
type witness = {
  ex_idx : int;
  model : Asp.Solver.model;
  index : Asp.Query.index;
      (** [model]'s index, built once when the witness is made *)
  traces_by_prod : (int * int list list) list;
}

(** One example's evidence under a task's base GPM. *)
type evidence = {
  witnesses : witness list;  (** in enumeration order *)
  truncated : bool;  (** the [max_witnesses] cap truncated [witnesses] *)
  killers : int list list;
      (** per witness, in order: the indices into the task's space of the
          candidates that kill it, in descending order *)
  context : Asp.Program.t;
      (** the example's context projected onto what [G : S_M] reads
          ({!Asg.Membership.project}): with the sentence, the evidence's
          key. [witnesses] were enumerated under it, or under the whole
          context when [truncated]. *)
  fingerprint : int;  (** [Asp.Program.fingerprint context] *)
}

type outcome = {
  hypothesis : Task.hypothesis;
  cost : int;  (** total cost of hypothesis rules *)
  penalty : int;  (** total weight of sacrificed examples *)
  sacrificed : Example.t list;
  stats : stats;
  evidence : evidence list;
      (** per task example, in order: its witnesses, truncation flag,
          killer lists and key. A function of the base GPM, the space,
          the cap and the example alone, so a later learn over the same
          three reuses it ([?carried] of {!learn_constraints}). Empty on
          the general path. *)
  max_witnesses : int;
      (** the cap [evidence] was enumerated under; 0 on the general path *)
}

(** All witnesses of an example under the base grammar, up to
    [max_witnesses] per parse tree. Each call solves one induced ASP
    program (counted in the [ilp.hypothesis_evals] counter). *)
val witnesses_of_example :
  ?max_witnesses:int -> Asg.Gpm.t -> Example.t -> witness list

(** Like {!witnesses_of_example}, also reporting whether the cap
    truncated the enumeration (exactly detected within a parse tree by
    over-asking the solver one model; conservatively when whole parse
    trees were left unexplored). A truncated call increments the
    [ilp.witnesses_truncated] counter. *)
val witnesses_of_example_counted :
  ?max_witnesses:int -> Asg.Gpm.t -> Example.t -> witness list * bool

(** Does the candidate kill the witness (its constraint fires in the
    witness's model at some node of its production)? *)
val kills : Hypothesis_space.candidate -> witness -> bool

(** [covered t outcome h]: how many of [t]'s examples [G : h] covers,
    for [G] the task's base GPM and [outcome] the result of learning [t].
    When every candidate of [h] is one of [t]'s space (physically: each
    is mapped to its index in the space), it is read from the outcome's
    killer lists without solving: a witness survives [h] iff none of its
    killers is in [h], and a positive example is covered iff some
    witness survives, a negative one iff none does. {!Task.covers}
    decides an example whose witnesses were truncated, and every example
    when [h] has a candidate outside the space (a coalition [install]: a
    projected witness cannot judge a rule that may read a fact the space
    cannot) or the outcome holds no witnesses (the general path, or
    [None]). Equal to counting {!Task.covers} under
    [Task.apply_hypothesis G h]. *)
val covered : Task.t -> outcome option -> Task.hypothesis -> int

(** Greedy warm-start preference over [(gain, cost, candidate index)]
    triples: higher gain-per-cost ratio first (compared exactly, by
    integer cross-multiplication), ties broken toward the higher
    candidate index. Exposed so tests can pin the order. *)
val greedy_score_compare : int * int * int -> int * int * int -> int

(** Exact engine for constraint-only spaces. Witness generation and the
    kill matrix fan out across [pool] (default: the process-wide
    {!Par.Config.pool}, sequential unless configured otherwise); the
    outcome is identical for every pool size.

    The branch-and-bound branches on the killers of the first unkilled
    witness of the first pending negative example, cheapest first, then
    on sacrificing a soft example; a killer whose branch has returned is
    left out of its later siblings and the sacrifice branch, so every
    killer set is searched once. Down a branch kills and sacrifices only
    accumulate, so each node looks for its pending negative from its
    parent's; a witness's killers are sorted by cost the first time the
    search branches on it. It stops after [max_nodes] nodes (default
    300,000) with the best hypothesis found so far.

    Evidence is keyed on what the space reads. The learner's view is
    [G : S_M], the base GPM with every candidate of the space added
    ({!Task.apply_hypothesis}); an example's key is its sentence and its
    context projected onto what that view reads
    ({!Asg.Membership.project}, {!Asg.Gpm.reads}). A fact no rule of
    [G : S_M] reads only adds itself to every answer set (the
    splitting-set argument of {!Asg.Gpm.reads}), so an example's
    witnesses are enumerated under the projected context: their count
    and every kill column are those of the whole context, though their
    models lack the unread facts. An example takes its evidence, in
    order, from: the carried outcome, when the example itself is in the
    carried task; untruncated evidence with an equal key in the carried
    outcome; the first example of this learn with that key. Only a new
    key is solved, once, and has its kill column evaluated, once. Keys
    are assigned in example order before the fan-out, so the outcome is
    the same at every pool size. Keys are bucketed by the sentence and
    {!Asp.Program.fingerprint} and confirmed by {!Asp.Program.equal}.
    The cap keeps a prefix of an enumeration order that unread facts may
    change, so an example whose enumeration hits it is enumerated on its
    whole context and is never shared. Examples that take evidence from
    an equal key are counted in the [ilp.examples_shared] counter.

    [carried] is an earlier task and its outcome (a relearn's previous
    learn). It is used when that task has the same base GPM and space
    (physically) and its outcome was learned under the same
    [max_witnesses]: an example physically present in it takes its
    witnesses, truncation flag and killer lists from that outcome
    (counted in the [ilp.examples_carried] counter), and the outcome's
    untruncated evidence is shared by key. Otherwise it is ignored. The
    outcome, its stats (timings aside) and its evidence are those of a
    learn without [carried]. *)
val learn_constraints :
  ?pool:Par.t ->
  ?max_witnesses:int ->
  ?max_nodes:int ->
  ?carried:Task.t * outcome ->
  Task.t ->
  outcome option

(** Best-first subset search; sound for any space, exponential. Weights
    are ignored (all examples treated as hard). Always sequential. *)
val learn_general : ?max_subsets:int -> Task.t -> outcome option

(** Dispatch: constraint engine when possible, general search otherwise. *)
val learn :
  ?pool:Par.t ->
  ?max_witnesses:int ->
  ?carried:Task.t * outcome ->
  Task.t ->
  outcome option

val pp_outcome : Format.formatter -> outcome -> unit
