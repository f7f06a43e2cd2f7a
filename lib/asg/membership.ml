(** Language membership for answer set grammars: [s] is in [L(G(C))] iff
    at least one parse tree of the underlying CFG for [s] induces a
    program with an answer set. {!programs} builds those programs from
    scratch; membership under a ground-fact context reads the model's
    compiled view ({!Gpm.compiled_trees}) instead, on the facts the
    model reads ({!project}). *)

let c_hypothesis_evals = Obs.Counter.make "asg.hypothesis_evals"

let tokenize sentence =
  String.split_on_char ' ' sentence |> List.filter (fun s -> s <> "")

type tree_program = {
  tree : Grammar.Parse_tree.t;
  program : Asp.Program.t Lazy.t;
}

let tree_programs ?context (g : Gpm.t) (tokens : string list) :
    tree_program Seq.t =
 fun () ->
  let g = match context with Some c -> Gpm.with_context g c | None -> g in
  Seq.map
    (fun tree -> { tree; program = lazy (Tree_program.program g tree) })
    (List.to_seq (Grammar.Earley.parses (Gpm.cfg g) tokens))
    ()

let programs ?context g sentence = tree_programs ?context g (tokenize sentence)

let traces_by_production (tree : Grammar.Parse_tree.t) :
    (int * int list list) list =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (trace, (p : Grammar.Production.t), _) ->
      let id = p.Grammar.Production.id in
      Hashtbl.replace tbl id
        (trace :: Option.value ~default:[] (Hashtbl.find_opt tbl id)))
    (Grammar.Parse_tree.nodes_with_traces tree);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

(* one tree's membership check; the program is induced inside the span *)
let satisfiable (program : Asp.Program.t Lazy.t) =
  Obs.Counter.incr c_hypothesis_evals;
  Obs.fine_span "asg.tree_eval" @@ fun () ->
  Asp.Solver.has_answer_set (Lazy.force program)

let tree_accepted (g : Gpm.t) tree =
  satisfiable (lazy (Tree_program.program g tree))

let accepts_uncompiled ?context (g : Gpm.t) (tokens : string list) : bool =
  Obs.span "asg.membership" @@ fun () ->
  Seq.exists (fun tp -> satisfiable tp.program) (tree_programs ?context g tokens)

type tally = {
  mutable trees : int;
  mutable compiles : int;
  mutable facts : int;
  mutable rules : int;
}

let tally () = { trees = 0; compiles = 0; facts = 0; rules = 0 }

let compiled ?tally (g : Gpm.t) (t : Gpm.tree) : Asp.Solver.compiled =
  match Atomic.get t.compiled with
  | Some c -> c
  | None ->
    (* a racing domain compiles the same pure value; either may stay *)
    let c = Asp.Solver.compile (Tree_program.program g t.tree) in
    Atomic.set t.compiled (Some c);
    Option.iter (fun k -> k.compiles <- k.compiles + 1) tally;
    c

(* membership of [tokens] in [L(G(C))] for a context [C] of ground facts:
   each memoised tree's frozen core extended with [C]'s facts at the
   tree's node traces *)
let accepts_facts ?tally (g : Gpm.t) ~(facts : Asp.Atom.t list)
    (tokens : string list) : bool =
  Obs.span "asg.membership" @@ fun () ->
  List.exists
    (fun (t : Gpm.tree) ->
      Obs.Counter.incr c_hypothesis_evals;
      Obs.fine_span "asg.tree_eval" @@ fun () ->
      let facts = Tree_program.context_facts t.tree facts in
      let sat, rules =
        Asp.Solver.has_answer_set_extended (compiled ?tally g t) ~facts
      in
      (match tally with
      | Some k ->
        k.trees <- k.trees + 1;
        k.facts <- k.facts + List.length facts;
        k.rules <- k.rules + rules
      | None -> ());
      sat)
    (Gpm.compiled_trees g tokens)

let accepts (g : Gpm.t) (sentence : string) : bool =
  accepts_facts g ~facts:[] (tokenize sentence)

exception Rule_bearing

(* the read facts of [rules], sharing the longest unchanged tail, so a
   list that loses nothing comes back physically equal; raises
   [Rule_bearing] at a rule that is not a ground fact *)
let rec read_facts g = function
  | [] -> []
  | ({ Asp.Rule.head = Head a; body = [] } as r) :: rest as rules
    when Asp.Atom.is_ground a ->
    let rest' = read_facts g rest in
    if not (Gpm.reads g a) then rest'
    else if rest' == rest then rules
    else r :: rest'
  | _ :: _ -> raise Rule_bearing

let project (g : Gpm.t) (context : Asp.Program.t) : Asp.Program.t =
  match read_facts g (Asp.Program.rules context) with
  | rules when rules == Asp.Program.rules context -> context
  | rules -> Asp.Program.of_rules rules
  | exception Rule_bearing -> context

let accepts_in_context ?tally (g : Gpm.t) ~(context : Asp.Program.t) =
  let projected = Asp.Program.ground_facts (project g context) in
  fun (sentence : string) ->
    let tokens = tokenize sentence in
    match projected with
    | Some facts -> accepts_facts ?tally g ~facts tokens
    | None -> accepts_uncompiled ~context g tokens

let witness ?context (g : Gpm.t) (sentence : string) :
    Asp.Solver.model option =
  Obs.span "asg.witness" @@ fun () ->
  Seq.find_map
    (fun tp ->
      Obs.Counter.incr c_hypothesis_evals;
      Asp.Solver.first_answer_set (Lazy.force tp.program))
    (programs ?context g sentence)
