(** The [G[PT]] mapping (Section II-A): a parse tree of an ASG induces an
    ASP program by instantiating each node's production annotation at the
    node's trace. The string is in the language of the grammar iff some
    parse tree's induced program has an answer set. *)

(** Build the ASP program induced by [tree] under grammar [g]. *)
let program (g : Gpm.t) (tree : Grammar.Parse_tree.t) : Asp.Program.t =
  let rules =
    List.concat_map
      (fun (trace, (p : Grammar.Production.t), _children) ->
        Annotation.instantiate_program trace
          (Gpm.full_annotation g p.Grammar.Production.id))
      (Grammar.Parse_tree.nodes_with_traces tree)
  in
  Asp.Program.of_rules rules

(** The ground atoms a fact-only context contributes to [tree]'s induced
    program: each atom instantiated at every node's trace — exactly the
    fact rules {!Gpm.with_context} would inject through the shared
    annotation, without rebuilding the grammar or re-inducing the
    program. [program g tree] plus these facts is therefore
    rule-for-rule the program [program (Gpm.with_context g ctx) tree]
    induces (up to rule order), which is what lets a serving layer keep
    the induced program as a frozen incremental-grounding core and
    delta-ground only the context. *)
let context_facts (tree : Grammar.Parse_tree.t) (facts : Asp.Atom.t list) :
    Asp.Atom.t list =
  List.concat_map
    (fun (trace, _p, _children) ->
      List.map
        (fun a -> Annotation.instantiate_atom trace (Annotation.at a))
        facts)
    (Grammar.Parse_tree.nodes_with_traces tree)
