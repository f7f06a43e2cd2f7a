(** Language membership: [s ∈ L(G(C))] iff some parse tree of the
    underlying CFG induces a program with an answer set.

    A sentence is evaluated under [G(C)] in one of two ways. {!programs}
    builds [G(C)[PT]] from scratch; the learner's witnesses, preference
    pricing, explanations and repair reach the programs through it. The
    membership predicates {!accepts} and {!accepts_in_context} decide a
    ground-fact context through the model's compiled view instead:
    frozen [G[PT]] cores kept on the model, extended with the context
    facts the model reads ({!project}). The serving layer decides
    through {!accepts_in_context}. {!programs}, and so the learner, sees
    every fact: a candidate hypothesis may read any of them. *)

val tokenize : string -> string list

(** One parse tree of a sentence with the program [G(C)[PT]] it induces,
    built only when forced. *)
type tree_program = {
  tree : Grammar.Parse_tree.t;
  program : Asp.Program.t Lazy.t;
}

(** The parse trees of [sentence] in Earley order, each with its induced
    program. Nothing is computed until the sequence is forced; then
    [G(C)] is built once ([G] itself without [context]), the sentence is
    parsed, and each tree's program is induced on demand. Opens no span
    and bumps no counter: those belong to the consumers. *)
val programs :
  ?context:Asp.Program.t -> Gpm.t -> string -> tree_program Seq.t

(** The node traces of [tree] grouped by the production labelling each
    node: [(production id, traces)] — where a candidate rule for that
    production would be instantiated. *)
val traces_by_production :
  Grammar.Parse_tree.t -> (int * int list list) list

(** Does [tree]'s induced program (under [G]) have an answer set? *)
val tree_accepted : Gpm.t -> Grammar.Parse_tree.t -> bool

(** [s ∈ L(G(C))] from scratch: parse [tokens], induce each tree's
    program under [G(C)] ([G] without [context]), ground and solve it,
    stopping at the first satisfiable tree. Nothing is memoised. The
    reference and one-shot check, with two callers: {!Serve.decide_uncached}
    (the cache-free reference the serving layer is tested against) and
    policy repair, which asks each of many distinct edited sentences
    once, where compiling would cost more than it saves and fill the
    model's memo. *)
val accepts_uncompiled :
  ?context:Asp.Program.t -> Gpm.t -> string list -> bool

(** [s ∈ L(G)], through the model's compiled view ({!Gpm.compiled_trees}):
    the first ask of a sentence parses it and the first decision of each
    tree compiles [G[PT]]; later asks only decide the prepared state. *)
val accepts : Gpm.t -> string -> bool

(** The work one or more compiled-view checks did, for a caller that
    accounts for it (the serving layer's ground tier and delta counts).
    Membership only adds to it and never reads it, so no answer depends
    on a tally. *)
type tally = {
  mutable trees : int;  (** trees decided *)
  mutable compiles : int;  (** cores compiled by these checks *)
  mutable facts : int;  (** context facts instantiated at node traces *)
  mutable rules : int;  (** ground rules the facts added to the cores *)
}

(** A zeroed tally. *)
val tally : unit -> tally

(** [project g context] is [context] without the facts [g] does not
    read ({!Gpm.reads}): for a context of ground facts only, the facts
    [g] reads, in order; a context with a proper rule is returned
    unchanged, since a rule can derive a read atom from unread ones.
    When nothing is dropped the result is [context] itself (physically
    equal) and nothing is allocated.

    Membership is the same under [context] and [project g context]: an
    unread fact only adds itself to every answer set of every
    [G(C)[PT]] (the splitting-set argument of {!Gpm.reads}). Heads are
    reads because a fact that meets a head, a choice element above all,
    can make a program unsatisfiable. *)
val project : Gpm.t -> Asp.Program.t -> Asp.Program.t

(** [s ∈ L(G(C))]. When [context] is ground facts only
    ({!Asp.Program.ground_facts}, the empty context included), through
    the model's compiled view on the facts [g] reads ({!project}): only
    those facts, instantiated at each tree's node traces
    ({!Tree_program.context_facts}), are grounded against the tree's
    frozen core ({!Asp.Solver.has_answer_set_extended}), stopping at the
    first accepting tree; [tally] counts that work. A context with
    proper rules changes [G(C)[PT]] beyond facts and takes
    {!accepts_uncompiled}, leaving [tally] untouched. Answers equal
    {!accepts_uncompiled} on every context. Applied to [g] and
    [context] alone, it projects once for every sentence it is then
    asked. *)
val accepts_in_context :
  ?tally:tally -> Gpm.t -> context:Asp.Program.t -> string -> bool

(** A witnessing answer set for an accepted sentence: the first answer
    set of the first parse tree that has one. *)
val witness :
  ?context:Asp.Program.t -> Gpm.t -> string -> Asp.Solver.model option
