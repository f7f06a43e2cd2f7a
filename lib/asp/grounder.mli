(** Grounding: instantiating a safe program's variables with the constants
    that can matter, via the standard two-phase scheme — a possible-atom
    fixpoint computed by SCC-stratified {e semi-naive evaluation} over
    per-predicate first-argument indexes, then rule instantiation by
    selectivity-ordered indexed joins with builtin evaluation.

    {2 Negative body literals}

    A ground negative literal [not a] whose atom lies outside the
    possible-atom base is trivially true: the literal is dropped and the
    rule instance is {e kept}. Interval arguments inside a negative
    literal denote the conjunction over their expansion ([not q(1..2)]
    grounds to [not q(1), not q(2)]); a negative literal whose arguments
    fail to evaluate once ground (e.g. division by zero) makes that rule
    instance inapplicable. Earlier revisions silently dropped whole rules
    in these cases; the regression tests pin the current semantics. *)

exception Unsafe_rule of Rule.t
(** Raised on rules with variables not bound by the positive body. *)

exception Aggregate_in_rule of Rule.t
(** Aggregates are admitted only in constraint and weak-constraint
    bodies. *)

type ghead =
  | GAtom of Atom.t
  | GFalse
  | GWeak of int  (** evaluated weight of a weak-constraint instance *)
  | GChoice of int option * Atom.t list * int option

type ground_rule = {
  ghead : ghead;
  gpos : Atom.t list;
  gneg : Atom.t list;
  gcounts : Rule.count list;
      (** outer-ground aggregates, evaluated against candidate models *)
}

type ground_program = {
  grules : ground_rule list;
  base : Atom.Set.t;  (** all possible atoms *)
}

val pp_ground_rule : Format.formatter -> ground_rule -> unit

(** Expand interval arguments: [p(1..3)] to [p(1)], [p(2)], [p(3)]. *)
val expand_atom : Atom.t -> Atom.t list

(** Ground a program. Negative literals over underivable atoms are
    dropped (trivially true); rules that can never fire are omitted.

    Complexity: worst-case O(|rules| * |base|{^ v}) instantiations, for
    [v] the maximum number of variables in any rule body — grounding is
    inherently exponential in rule width. In practice the first-argument
    indexes restrict each join step to candidates matching the bound
    prefix, and semi-naive delta evaluation enumerates each derivation at
    most once across the whole fixpoint instead of once per iteration.

    @raise Unsafe_rule on unsafe input.
    @raise Aggregate_in_rule when an aggregate occurs in a normal or
    choice rule body. *)
val ground : Program.t -> ground_program

(** Number of ground rules. *)
val size : ground_program -> int

(** Size of the possible-atom base. *)
val atom_count : ground_program -> int

(** Two-stage incremental grounding: ground a context-free core program
    once with {!Incremental.freeze}, then extend it per request with a
    batch of ground context facts — only the delta is grounded. A batch
    layers its own atom base over the frozen core's (which is never
    written through, so one core can back many batches), continues the
    core's semi-naive fixpoint on the facts, and instantiates only the
    join plans that can see a new atom, each new combination exactly
    once. A core is extended, never repaired: a batch that could change
    one of its ground rules is refused, and the caller decides it from
    scratch. *)
module Incremental : sig
  type core
  (** A frozen grounded program plus the state needed to delta-ground
      against it. Immutable after {!freeze}; safe to share. *)

  (** Ground [p] and freeze the result as an incremental core.
      @raise Unsafe_rule / @raise Aggregate_in_rule as {!ground}. *)
  val freeze : Program.t -> core

  (** The core's own ground program (no context facts). *)
  val core_ground : core -> ground_program

  (** A batch of context facts as the grounder asserts them: intervals
      expand, arithmetic is evaluated, unevaluable facts are
      inapplicable and dropped, and duplicates go (first occurrence
      kept, in order).
      @raise Invalid_argument on a non-ground fact. *)
  val normalize_facts : Atom.t list -> Atom.t list

  (** The delta rules [facts] add to [core] (normalized as
      {!normalize_facts}): [Some rules] such that {!core_ground}'s rules
      followed by [rules] are, as a set of rules, the ground program of
      the core program extended with the facts — so a solver holding
      precompiled state for {!core_ground} can be extended with exactly
      these rules ({!Solver.has_answer_set_prepared}). [None] when the
      facts and their consequences include an atom of a predicate the
      core negates or uses in a choice element's condition: such an
      atom could change an existing ground rule (a negative literal
      dropped as trivially true, a choice head's elements), so the
      batch is left to a from-scratch ground of the extended program.
      @raise Invalid_argument on a non-ground fact. *)
  val delta_with : core -> facts:Atom.t list -> ground_rule list option
end
