(** Language membership for answer set grammars: [s] is in [L(G(C))] iff
    at least one parse tree of the underlying CFG for [s] induces a
    program with an answer set. {!programs} is the single path from a
    sentence to those programs; everything else here is built on it. *)

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

let accepts_tokens ?context (g : Gpm.t) (tokens : string list) : bool =
  Obs.span "asg.membership" @@ fun () ->
  Seq.exists (fun tp -> satisfiable tp.program) (tree_programs ?context g tokens)

let accepts (g : Gpm.t) (sentence : string) : bool =
  accepts_tokens g (tokenize sentence)

let accepts_in_context (g : Gpm.t) ~(context : Asp.Program.t)
    (sentence : string) : bool =
  accepts_tokens ~context g (tokenize sentence)

let witness ?context (g : Gpm.t) (sentence : string) :
    Asp.Solver.model option =
  Obs.span "asg.witness" @@ fun () ->
  Seq.find_map
    (fun tp ->
      Obs.Counter.incr c_hypothesis_evals;
      Asp.Solver.first_answer_set (Lazy.force tp.program))
    (programs ?context g sentence)
