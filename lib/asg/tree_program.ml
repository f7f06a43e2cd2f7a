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

(** For each node trace of [tree], in order, the predicates some rule of
    [program g tree] uses at that trace, each with its name there. An
    annotation atom whose name contains ['@'] counts its base name at
    every trace: instantiated at the root it is the name of that base's
    copy at some trace (as {!Gpm.reads} counts it). *)
let sites (g : Gpm.t) (tree : Grammar.Parse_tree.t) : Gpm.sites =
  let nodes = Grammar.Parse_tree.nodes_with_traces tree in
  let used = Hashtbl.create 8 in
  let use trace pred =
    let preds = Option.value ~default:[] (Hashtbl.find_opt used trace) in
    if not (List.mem pred preds) then Hashtbl.replace used trace (pred :: preds)
  in
  List.iter
    (fun (trace, (p : Grammar.Production.t), _children) ->
      let use_atom (a : Annotation.aatom) =
        let pred = a.atom.Asp.Atom.pred in
        match String.index_opt pred '@' with
        | Some i ->
          let base = String.sub pred 0 i in
          List.iter (fun (t, _, _) -> use t base) nodes
        | None ->
          use (match a.site with None -> trace | Some i -> trace @ [ i ]) pred
      in
      List.iter
        (Annotation.iter_atoms use_atom)
        (Gpm.full_annotation g p.Grammar.Production.id))
    nodes;
  List.map
    (fun (trace, _p, _children) ->
      ( trace,
        List.rev_map
          (fun pred -> (pred, Annotation.mangle_pred pred trace))
          (Option.value ~default:[] (Hashtbl.find_opt used trace)) ))
    nodes

(** The ground facts a fact-only context contributes to the tree's
    induced program, less the copies no rule of it uses: each fact is
    copied at the traces where a rule uses its predicate, under the
    stored name, as {!Gpm.with_context}'s shared annotation would
    instantiate it there. A fact whose name contains ['@'] is copied at
    every trace. A copy no rule uses only adds itself to every answer set
    (the splitting-set argument of {!Gpm.reads}). *)
let context_facts (sites : Gpm.sites) (facts : Asp.Atom.t list) :
    Asp.Atom.t list =
  List.concat_map
    (fun (trace, preds) ->
      List.filter_map
        (fun (a : Asp.Atom.t) ->
          if String.contains a.pred '@' then
            Some (Annotation.instantiate_atom trace (Annotation.at a))
          else
            Option.map
              (fun pred -> if String.equal pred a.pred then a else { a with pred })
              (List.assoc_opt a.pred preds))
        facts)
    sites
