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

type outcome = {
  hypothesis : Task.hypothesis;
  cost : int;  (** total cost of hypothesis rules *)
  penalty : int;  (** total weight of sacrificed examples *)
  sacrificed : Example.t list;
  stats : stats;
  evidence : (witness list * bool) list;
      (** per task example, in order: its witnesses under the task's base
          GPM and whether the [max_witnesses] cap truncated them; empty on
          the general path *)
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
    When [h] is constraint-only it is read from the outcome's witnesses
    (a positive example is covered iff some witness survives [h], a
    negative one iff none does), without solving; {!Task.covers} decides
    an example whose witnesses were truncated, and every example when [h]
    has a non-constraint rule or the outcome holds no witnesses (the
    general path, or [None]). Equal to counting {!Task.covers} under
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
    outcome is identical for every pool size. *)
val learn_constraints :
  ?pool:Par.t -> ?max_witnesses:int -> ?max_nodes:int -> Task.t -> outcome option

(** Best-first subset search; sound for any space, exponential. Weights
    are ignored (all examples treated as hard). Always sequential. *)
val learn_general : ?max_subsets:int -> Task.t -> outcome option

(** Dispatch: constraint engine when possible, general search otherwise. *)
val learn : ?pool:Par.t -> ?max_witnesses:int -> Task.t -> outcome option

val pp_outcome : Format.formatter -> outcome -> unit
