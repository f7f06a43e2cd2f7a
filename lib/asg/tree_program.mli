(** The [G[PT]] mapping (Section II-A): the ASP program a parse tree
    induces — each node's annotation instantiated at the node's trace. *)

val program : Gpm.t -> Grammar.Parse_tree.t -> Asp.Program.t

(** [context_facts tree facts] is the ground fact set a fact-only context
    contributes to [tree]'s induced program: each atom instantiated at
    every node's trace, mirroring {!Gpm.with_context}'s shared-annotation
    injection. [program g tree] extended with these facts equals (up to
    rule order) [program (Gpm.with_context g ctx) tree] — the
    decomposition behind incremental per-request grounding. *)
val context_facts : Grammar.Parse_tree.t -> Asp.Atom.t list -> Asp.Atom.t list
