(** Stable-model (answer-set) computation: well-founded narrowing followed
    by DPLL-style search with a Gelfond–Lifschitz stability check at each
    complete assignment. Sound and complete for normal rules, constraints
    and bounded choice rules; weak constraints rank models.

    Every solve runs on one compiled form: {!prepare} indexes a ground
    program once (atom ids in {!Atom.Set} order, integer-indexed rules,
    occurrence lists, body counts), and a search over it, extended by
    any per-request delta rules, allocates only its mutable arrays.
    {!solve_ground} is the search over [prepare gp] with no delta.

    The well-founded bounds and the stability check are least models of
    reducts, computed by one worklist loop with a counter per rule of the
    positive body atoms still missing: the alternating fixpoint runs it
    twice a round, the stability check once at each complete assignment.

    Unit propagation is {e counter-based} in the style of two-watched
    literals: each rule keeps satisfied- and blocked-literal counters that
    are updated through per-atom occurrence lists, so an assignment
    touches only the rules it appears in instead of rescanning the
    program. Source pointers track one non-blocked supporting rule per
    true atom and propagate unsupportedness eagerly. Search statistics
    (propagations, decisions, conflicts, GL checks) are accumulated in the
    [asp.solve.*] [Obs] counters. *)

(** A stable model: the set of atoms assigned true. *)
type model = Atom.Set.t

val pp_model : Format.formatter -> model -> unit
val model_to_string : model -> string

(** Enumerate stable models of a ground program, up to [limit].
    [wellfounded:false] disables the well-founded narrowing (ablation
    knob); results are identical, search is slower.
    @raise Invalid_argument when [limit] is below 1.

    Complexity: deciding stable-model existence is NP-complete, so the
    worst case is exponential in the number of unknown atoms after
    propagation. Each unit propagation is amortized O(occurrences of the
    assigned atom); each leaf runs one Gelfond–Lifschitz least-model
    check, linear in the size of the ground program. *)
val solve_ground :
  ?limit:int -> ?wellfounded:bool -> Grounder.ground_program -> model list

(** Ground and solve: [solve p] is
    [solve_ground (Grounder.ground p)] (see {!Grounder.ground} for
    grounding complexity).
    @raise Invalid_argument when [limit] is below 1. *)
val solve : ?limit:int -> ?wellfounded:bool -> Program.t -> model list

(** Is there at least one stable model? Stops at the first. *)
val has_answer_set : Program.t -> bool

(** The first stable model found, if any. *)
val first_answer_set : Program.t -> model option

(** {!has_answer_set} over a pre-grounded core: callers holding a cached
    {!Grounder.ground_program} skip grounding entirely. Coincides with
    [has_answer_set p] when the core is [Grounder.ground p]. *)
val has_answer_set_ground : Grounder.ground_program -> bool

(** {2 Delta solving over a prepared core}

    For the serve hot path: compile a ground core once with {!prepare},
    then decide satisfiability of core + per-request delta rules with
    {!has_answer_set_prepared} — only the delta is compiled per call.
    Pairs with {!Grounder.Incremental.delta_with}, which produces exactly
    the extension rules whenever it accepts a batch. *)

type prepared
(** The compiled form of a ground program (atom ids, indexed rules,
    occurrence lists, body counts). Never mutated after {!prepare}; safe
    to share across threads and extend concurrently. *)

val prepare : Grounder.ground_program -> prepared

(** [has_answer_set_prepared pr ~delta] coincides with
    {!has_answer_set_ground} on the prepared program extended with the
    [delta] ground rules, skipping the per-call recompilation of the
    core. [delta:[]] decides the prepared program itself. *)
val has_answer_set_prepared :
  prepared -> delta:Grounder.ground_rule list -> bool

(** A program compiled for repeated satisfiability checks under varying
    ground facts, in one of two forms. Immutable; safe to share across
    domains.

    - A {e ground core}: every rule is ground and definite apart from
      its constraints — heads are atoms with value arguments (no
      interval, no arithmetic) or empty, and bodies hold positive such
      atoms only; no negation, choice, aggregate, comparison or weak
      constraint. It compiles, with no grounding, to an atom-id table
      over {e every} rule, including rules and constraints whose bodies
      the core alone never completes (the grounder would drop them).
      With facts, the program's least model is its only candidate
      answer set, so a check is one least-model pass seeded with the
      facts' ids: the answer is false iff the model completes some
      constraint's body.
    - Otherwise the program itself, its frozen incremental-grounding
      core ({!Grounder.Incremental.freeze}) and the prepared solver
      state of the core's ground program: a check grounds the facts
      alone ({!Grounder.Incremental.delta_with}) and extends the
      prepared state with them, or, for a batch [delta_with] refuses,
      grounds and solves the program extended with the facts. *)
type compiled

(** Compile [p]: a ground core is indexed as is, any other program is
    grounded and frozen ({!Grounder.Incremental.freeze}) and its ground
    program prepared.
    @raise Grounder.Unsafe_rule / @raise Grounder.Aggregate_in_rule as
    {!Grounder.ground}. *)
val compile : Program.t -> compiled

(** [has_answer_set_extended c ~facts] decides whether the compiled
    program extended with the ground [facts] has an answer set, and
    counts the ground rules the facts added. Coincides with
    {!has_answer_set} on the program extended with the facts.

    The facts are normalized as the grounder asserts them
    ({!Grounder.Incremental.normalize_facts}: intervals expand,
    arithmetic is evaluated, unevaluable facts drop, duplicates go). On
    a ground core, a fact with no id occurs in no rule: it adds itself
    to the least model and nothing else, completes no body, and so
    cannot change the answer (the splitting-set argument that also lets
    membership drop facts a model does not read). The count is the
    same on both forms: the distinct normalized facts plus the rules
    whose bodies the facts complete and the core alone does not — the
    length of {!Grounder.Incremental.delta_with}'s delta. The ground
    core opens no [asp.ground]/[asp.solve] span and moves no
    [asp.ground.*] or [asp.solve.*] counter.

    On the other form, only the facts are grounded and the prepared
    state is extended with them. When a fact or one of its consequences
    is an atom of a predicate the core negates or uses in a choice
    element's condition, {!Grounder.Incremental.delta_with} refuses the
    batch: [p] extended with the normalized facts
    ({!Program.with_facts}) is then grounded and decided from scratch
    ({!has_answer_set_ground}), and the count is its size less the
    core's. [facts:[]] decides the core, grounding nothing.
    @raise Invalid_argument on a non-ground fact. *)
val has_answer_set_extended : compiled -> facts:Atom.t list -> bool * int

(** Atoms true in at least one answer set, optionally restricted to a
    predicate. *)
val brave_consequences : ?pred:string -> Program.t -> Atom.Set.t

(** Atoms true in every answer set; empty if there is none. *)
val cautious_consequences : ?pred:string -> Program.t -> Atom.Set.t

(** {2 Optimization (weak constraints)} *)

(** Summed weights of the weak-constraint instances whose bodies the
    model satisfies. *)
val model_cost : Grounder.ground_program -> model -> int

(** Stable models ranked by cost, cheapest first. *)
val solve_ranked : ?limit:int -> Program.t -> (model * int) list

(** The minimal-cost stable models and their cost; [None] if the program
    has no stable model. *)
val solve_optimal : ?limit:int -> Program.t -> (model list * int) option
