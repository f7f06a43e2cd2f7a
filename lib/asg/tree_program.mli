(** The [G[PT]] mapping (Section II-A): the ASP program a parse tree
    induces — each node's annotation instantiated at the node's trace. *)

val program : Gpm.t -> Grammar.Parse_tree.t -> Asp.Program.t

(** [sites g tree]: for each node trace of [tree], in order, the
    predicate names some rule of [program g tree] uses at that trace,
    each with its name there. An annotation atom whose name contains
    ['@'] counts its base name at every trace. *)
val sites : Gpm.t -> Grammar.Parse_tree.t -> Gpm.sites

(** [context_facts (sites g tree) facts] is the ground fact set a
    fact-only context contributes to [tree]'s induced program, less the
    copies no rule of it uses. {!Gpm.with_context} adds each fact to every
    node's annotation, which instantiates it at every node's trace; a
    copy whose predicate no rule of [program g tree] uses only adds
    itself to every answer set (the splitting-set argument of
    {!Gpm.reads}), so only the copies at the traces where a rule uses the
    fact's predicate are built, under the stored name. A fact whose name
    contains ['@'] is copied at every trace. [program g tree] extended
    with these facts has an answer set iff
    [program (Gpm.with_context g ctx) tree] does — the decomposition
    behind deciding a context on a compiled core. *)
val context_facts : Gpm.sites -> Asp.Atom.t list -> Asp.Atom.t list
