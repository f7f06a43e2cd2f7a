(** Language membership: [s ∈ L(G(C))] iff some parse tree of the
    underlying CFG induces a program with an answer set.

    This is the one evaluator of a sentence under [G(C)]: every consumer
    (the decision predicates below, the learner's witnesses, preference
    pricing, explanations, repair, the serving layer) reaches the
    programs [G(C)[PT]] through {!programs}. *)

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

(** Membership of an already tokenized sentence in [L(G(C))]; tries
    parse trees lazily and stops at the first satisfiable one. *)
val accepts_tokens : ?context:Asp.Program.t -> Gpm.t -> string list -> bool

val accepts : Gpm.t -> string -> bool

(** [s ∈ L(G(C))]. *)
val accepts_in_context : Gpm.t -> context:Asp.Program.t -> string -> bool

(** A witnessing answer set for an accepted sentence: the first answer
    set of the first parse tree that has one. *)
val witness :
  ?context:Asp.Program.t -> Gpm.t -> string -> Asp.Solver.model option
