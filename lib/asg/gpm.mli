(** Answer set grammars (Definition 2) — the representation of a
    generative policy model: a CFG whose productions carry annotated ASP
    programs, plus the two operations of the learning task: [G(C)]
    (context extension) and [G : H] (hypothesis extension). *)

type t

val make : ?annotations:(int * Annotation.program) list -> Grammar.Cfg.t -> t
val cfg : t -> Grammar.Cfg.t

(** Process-unique version stamp: every construction and every derivation
    ({!make}, {!with_context}, {!with_hypothesis}, {!add_annotation},
    {!clean}) yields a fresh version, so equal versions imply the same
    grammar value. The serving layer keys its decision memo on this, which
    makes cache invalidation on hypothesis/context changes automatic. *)
val version : t -> int

(** Rules attached to every production (contexts). *)
val shared : t -> Annotation.program

(** Annotation of one production (excluding shared rules). *)
val annotation : t -> int -> Annotation.program

(** Annotation of one production including shared rules. *)
val full_annotation : t -> int -> Annotation.program

(** [G(C)]: add a program to every production's annotation. *)
val with_context : t -> Asp.Program.t -> t

(** [G : H]: add each rule to the production it names. *)
val with_hypothesis : t -> (int * Annotation.rule) list -> t

val add_annotation : t -> int -> Annotation.rule list -> t
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Remove useless productions (via {!Grammar.Transform}), re-homing
    annotations; shared rules are preserved. *)
val clean : t -> t

(** {2 The compiled view}

    Each model value keeps one memo for membership: a tokenized sentence
    maps to its parse trees under the value, each tree with the value's
    induced program [G[PT]] compiled ({!Asp.Solver.compile}) on first
    use. The memo starts empty at every construction and derivation, so
    a derived model never answers from its parent's; it holds one entry
    per distinct sentence asked of the value and is safe to read and
    fill from several domains. {!Membership} compiles the trees. *)

(** One parse tree of a memoised sentence; [compiled] is [None] until
    the tree is first decided. *)
type tree = {
  tree : Grammar.Parse_tree.t;
  compiled : Asp.Solver.compiled option Atomic.t;
}

(** [compiled_trees g tokens] is the memoised parse trees of [tokens]
    under [g] in Earley order; the first ask of this value parses. When
    two domains race on a first ask, both parse and one result is kept
    for both. *)
val compiled_trees : t -> string list -> tree list

(** {2 What the model reads}

    [reads g a] is [false] only when the ground fact [a] cannot meet any
    atom of [g]: its arguments are values (no variable, arithmetic or
    interval) and it unifies with no atom occurrence in [g]'s
    annotations or shared rules — rule heads, choice elements and their
    conditions, and positive and negative body atoms, at any child site.
    A pattern argument that is a variable, arithmetic or an interval
    matches any value, at any depth of a function term, and a repeated
    variable is not held to one value ([p(X, X)] reads [p(a, b)]), so
    [reads] over-approximates. A fact with a non-value argument, or a
    name containing ['@'] (the trace encoding of {!Annotation.mangle_pred}),
    is always read.

    A context fact [g] does not read changes no answer of [G(C)]: at
    every tree, its instances are atoms that occur in [G(C)[PT]] only as
    those facts, so by the splitting-set theorem (Lifschitz and Turner,
    "Splitting a Logic Program", ICLP 1994) they only add themselves to
    every answer set. Heads count as reads: in
    [1 { p ; q } 1. :- not q.] no body reads [p], yet the fact [p.]
    makes the program unsatisfiable.

    The index behind [reads] is built on the first ask of each value and
    kept with it; like the compiled view, every construction and
    derivation starts a new one, so a relearned model reads what its
    hypothesis reads. {!Membership.project} drops unread facts. *)
val reads : t -> Asp.Atom.t -> bool
