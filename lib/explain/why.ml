(** Rule-level explanations for generative-policy decisions (Section V-B):
    {e why} is a policy valid (a witnessing answer set), and {e why not}
    (which learned constraints block it, with the ground conditions that
    fired). *)

type blocker = {
  trace : int list;  (** parse-tree node whose annotation blocks *)
  constraint_rule : Asp.Rule.t;  (** the instantiated constraint *)
  fired_body : Asp.Rule.body_elt list;  (** the ground instance that fired *)
}

type why_not =
  | Not_in_cfg  (** the sentence is not even syntactically valid *)
  | No_model  (** the non-constraint part of the program is inconsistent *)
  | Blocked of blocker list  (** violated constraints, per candidate model *)

let c_why = Obs.Counter.make "explain.why_calls"
let c_why_not = Obs.Counter.make "explain.why_not_calls"
let c_derivations = Obs.Counter.make "explain.derivation_calls"
let h_derivation_size = Obs.Histogram.make "explain.derivation_size"
let h_blockers = Obs.Histogram.make "explain.blockers"

(* nodes in a justification tree — the derivation-size metric *)
let rec justification_size (j : Asp.Justification.t) : int =
  match j with
  | Asp.Justification.Fact _ -> 1
  | Asp.Justification.Derived { premises; _ }
  | Asp.Justification.Chosen { premises; _ } ->
    1 + List.fold_left (fun acc p -> acc + justification_size p) 0 premises

let pp_blocker ppf b =
  Fmt.pf ppf "at node %s: %a fired with %a"
    (Grammar.Parse_tree.trace_to_string b.trace)
    Asp.Rule.pp b.constraint_rule
    Fmt.(list ~sep:(any ", ") Asp.Rule.pp_body_elt)
    b.fired_body

(** A derivation tree for the chosen decision atom of an accepted
    sentence: the witnessing answer set plus the justification (paper
    Section V-B's "which rules within a policy were the ones that were
    applied"). *)
let why_derivation (gpm : Asg.Gpm.t) ~(context : Asp.Program.t)
    (sentence : string) (target : Asp.Atom.t) : Asp.Justification.t option =
  Obs.span "explain.why_derivation" @@ fun () ->
  Obs.Counter.incr c_derivations;
  let j =
    Seq.find_map
      (fun (tp : Asg.Membership.tree_program) ->
        let gp = Asp.Grounder.ground (Lazy.force tp.program) in
        match Asp.Solver.solve_ground ~limit:1 gp with
        | [] -> None
        | m :: _ -> Asp.Justification.justify gp m target)
      (Asg.Membership.programs ~context gpm sentence)
  in
  (match j with
  | Some j ->
    Obs.Histogram.observe h_derivation_size
      (float_of_int (justification_size j))
  | None -> ());
  j

(** Witnessing answer set for an accepted sentence. *)
let why (gpm : Asg.Gpm.t) ~(context : Asp.Program.t) (sentence : string) :
    Asp.Solver.model option =
  Obs.span "explain.why" @@ fun () ->
  Obs.Counter.incr c_why;
  Asg.Membership.witness ~context gpm sentence

(** Explain a rejection: for the first parse tree, compute the models of
    the program without its constraints and report which constraints each
    model violates (with their ground firing instances). *)
let why_not (gpm : Asg.Gpm.t) ~(context : Asp.Program.t) (sentence : string) :
    why_not =
  Obs.span "explain.why_not" @@ fun () ->
  Obs.Counter.incr c_why_not;
  match Asg.Membership.programs ~context gpm sentence () with
  | Seq.Nil -> Not_in_cfg
  | Seq.Cons ({ tree; program }, _) ->
    (* collect instantiated constraints per node, from G(C)'s annotations *)
    let g = Asg.Gpm.with_context gpm context in
    let node_constraints =
      List.concat_map
        (fun (trace, (p : Grammar.Production.t), _) ->
          List.filter_map
            (fun (r : Asg.Annotation.rule) ->
              match r.Asg.Annotation.head with
              | Asg.Annotation.Falsity ->
                Some (trace, Asg.Annotation.instantiate_rule trace r)
              | Asg.Annotation.Head _ | Asg.Annotation.Choice _
              | Asg.Annotation.Weak _ ->
                None)
            (Asg.Gpm.full_annotation g p.Grammar.Production.id))
        (Grammar.Parse_tree.nodes_with_traces tree)
    in
    let full = Lazy.force program in
    let without_constraints =
      Asp.Program.of_rules
        (List.filter
           (fun r -> not (Asp.Rule.is_constraint r))
           (Asp.Program.rules full))
    in
    (match Asp.Solver.solve ~limit:8 without_constraints with
    | [] -> No_model
    | models ->
      let blockers =
        List.concat_map
          (fun model ->
            List.concat_map
              (fun (trace, (c : Asp.Rule.t)) ->
                List.map
                  (fun fired_body -> { trace; constraint_rule = c; fired_body })
                  (Asp.Query.satisfying_instances model c.Asp.Rule.body))
              node_constraints)
          models
      in
      let dedup =
        List.sort_uniq
          (fun a b ->
            compare
              (Fmt.str "%a" pp_blocker a)
              (Fmt.str "%a" pp_blocker b))
          blockers
      in
      Obs.Histogram.observe h_blockers (float_of_int (List.length dedup));
      Blocked dedup)

let why_not_to_string = function
  | Not_in_cfg -> "the policy is not syntactically valid in the grammar"
  | No_model -> "the grammar's annotations are inconsistent for this policy"
  | Blocked [] -> "no single blocking constraint found"
  | Blocked bs ->
    String.concat "\n" (List.map (fun b -> Fmt.str "%a" pp_blocker b) bs)
