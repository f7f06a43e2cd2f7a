(** Stable-model (answer-set) computation: well-founded narrowing followed
    by DPLL-style search with a Gelfond–Lifschitz stability check at each
    complete assignment. Sound and complete for normal rules, constraints
    and bounded choice rules; weak constraints rank models.

    Unit propagation is {e counter-based} in the style of two-watched
    literals: ground rules are integer-indexed, each keeps satisfied- and
    blocked-literal counters that are updated through per-atom occurrence
    lists, so an assignment touches only the rules it appears in instead
    of rescanning the program. Source pointers track one non-blocked
    supporting rule per true atom and propagate unsupportedness eagerly.
    Search statistics (propagations, decisions, conflicts, GL checks) are
    accumulated in {!Stats}. *)

(** A stable model: the set of atoms assigned true. *)
type model = Atom.Set.t

val pp_model : Format.formatter -> model -> unit
val model_to_string : model -> string

(** Enumerate stable models of a ground program, up to [limit].
    [wellfounded:false] disables the well-founded narrowing (ablation
    knob); results are identical, search is slower.

    Complexity: deciding stable-model existence is NP-complete, so the
    worst case is exponential in the number of unknown atoms after
    propagation. Each unit propagation is amortized O(occurrences of the
    assigned atom); each leaf runs one Gelfond–Lifschitz least-model
    check, linear in the size of the ground program. *)
val solve_ground :
  ?limit:int -> ?wellfounded:bool -> Grounder.ground_program -> model list

(** Ground and solve: [solve p] is
    [solve_ground (Grounder.ground p)] (see {!Grounder.ground} for
    grounding complexity). *)
val solve : ?limit:int -> ?wellfounded:bool -> Program.t -> model list

(** Is there at least one stable model? Stops at the first. *)
val has_answer_set : Program.t -> bool

(** The first stable model found, if any. *)
val first_answer_set : Program.t -> model option

(** {!has_answer_set} over a pre-grounded core: callers holding a cached
    {!Grounder.ground_program} skip grounding entirely. Coincides with
    [has_answer_set p] when the core is [Grounder.ground p]. *)
val has_answer_set_ground : Grounder.ground_program -> bool

(** {!first_answer_set} over a pre-grounded core. *)
val first_answer_set_ground : Grounder.ground_program -> model option

(** {2 Delta solving over a prepared core}

    For the serve hot path: compile a ground core once with {!prepare},
    then decide satisfiability of core + per-request delta rules with
    {!has_answer_set_prepared} — only the delta is compiled per call.
    Pairs with {!Grounder.Incremental.delta_with}, which produces exactly
    the extension rules when the frozen core needs no repair. *)

type prepared
(** The compiled, immutable slice of a ground program (atom ids, indexed
    rules, occurrence lists). Never mutated after {!prepare}; safe to
    share across threads and extend concurrently. *)

val prepare : Grounder.ground_program -> prepared

(** [has_answer_set_prepared pr ~delta] coincides with
    {!has_answer_set_ground} on the prepared program extended with the
    [delta] ground rules, skipping the per-call recompilation of the
    core. [delta:[]] decides the prepared program itself. *)
val has_answer_set_prepared :
  ?wellfounded:bool -> prepared -> delta:Grounder.ground_rule list -> bool

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
