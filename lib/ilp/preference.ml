(** Learning value functions from ordering examples — the preference
    counterpart of Definition 3 (ILASP's context-dependent ordering
    examples). An ordering example ⟨s₁ ≻ s₂, C⟩ states that in context C
    policy s₁ should cost strictly less than s₂ under the learned weak
    constraints; ⟨s₁ ≽ s₂, C⟩ demands no more. The learner searches the
    weak-constraint hypothesis space (cheapest subsets first) for one that
    satisfies every ordering, pricing each candidate on each sentence's
    witnesses via {!Asp.Query.weak_cost}. *)

type ordering = {
  better : string;
  worse : string;
  context : Asp.Program.t;
  strict : bool;
}

let prefer ?(strict = true) ?(context = Asp.Program.empty) better worse =
  { better; worse; context; strict }

let prefer_ctx ?strict better worse ctx =
  prefer ?strict ~context:(Asp.Parser.parse_program ctx) better worse

(** Witness models of a sentence under a context (valid parse trees'
    answer sets). *)
let sentence_models ?(max_models = 16) (gpm : Asg.Gpm.t)
    ~(context : Asp.Program.t) (sentence : string) : Asp.Solver.model list =
  List.concat_map
    (fun (tp : Asg.Membership.tree_program) ->
      Asp.Solver.solve ~limit:max_models (Lazy.force tp.program))
    (List.of_seq (Asg.Membership.programs ~context gpm sentence))

(** Per-candidate cost contributions on each witness of a sentence. A
    candidate weak rule is instantiated at every node of the witness's
    tree; here sentences are priced against full witness models, so the
    instantiation happens at the root-relative traces recorded in the
    model's mangled atoms — we instantiate at all traces of the
    candidate's production in each parse tree. *)
let contributions (gpm : Asg.Gpm.t) (space : Hypothesis_space.t)
    ~(context : Asp.Program.t) (sentence : string) : int array list =
  List.concat_map
    (fun (tp : Asg.Membership.tree_program) ->
      let traces_by_prod = Asg.Membership.traces_by_production tp.tree in
      let models = Asp.Solver.solve ~limit:16 (Lazy.force tp.program) in
      List.map
        (fun model ->
          Array.of_list
            (List.map
               (fun (c : Hypothesis_space.candidate) ->
                 let traces =
                   Option.value ~default:[]
                     (List.assoc_opt c.prod_id traces_by_prod)
                 in
                 List.fold_left
                   (fun acc trace ->
                     acc
                     + Asp.Query.weak_cost model
                         (Asg.Annotation.instantiate_rule trace c.rule))
                   0 traces)
               space))
        models)
    (List.of_seq (Asg.Membership.programs ~context gpm sentence))

type outcome = {
  hypothesis : Task.hypothesis;
  cost : int;  (** total cost of hypothesis rules (minimality) *)
  checked : int;  (** subsets examined *)
}

(** Learn a minimal-cost set of weak constraints satisfying every ordering
    example. Each sentence's cost under a hypothesis is the minimum over
    its witnesses of the summed contributions. Returns [None] when no
    subset of the space (within [max_subsets]) satisfies the orderings. *)
let learn ?(max_subsets = 50_000) ~(gpm : Asg.Gpm.t)
    ~(space : Hypothesis_space.t) ~(orderings : ordering list) () :
    outcome option =
  let candidates = Array.of_list space in
  let n = Array.length candidates in
  (* precompute per-ordering contribution tables *)
  let tables =
    List.map
      (fun o ->
        ( o,
          contributions gpm space ~context:o.context o.better,
          contributions gpm space ~context:o.context o.worse ))
      orderings
  in
  let sentence_cost (chosen : int list) (rows : int array list) : int option =
    match rows with
    | [] -> None (* sentence not even valid: ordering unsatisfiable *)
    | _ ->
      Some
        (List.fold_left
           (fun acc row ->
             let c = List.fold_left (fun s ci -> s + row.(ci)) 0 chosen in
             min acc c)
           max_int rows)
  in
  let satisfies chosen =
    List.for_all
      (fun (o, better_rows, worse_rows) ->
        match (sentence_cost chosen better_rows, sentence_cost chosen worse_rows) with
        | Some cb, Some cw -> if o.strict then cb < cw else cb <= cw
        | _ -> false)
      tables
  in
  (* best-first over subsets by total rule cost *)
  let module M = Map.Make (Int) in
  let pq = ref M.empty in
  let push cost v =
    pq := M.update cost (fun l -> Some (v :: Option.value ~default:[] l)) !pq
  in
  let pop () =
    match M.min_binding_opt !pq with
    | None -> None
    | Some (cost, v :: rest) ->
      if rest = [] then pq := M.remove cost !pq else pq := M.add cost rest !pq;
      Some (cost, v)
    | Some (cost, []) ->
      pq := M.remove cost !pq;
      None
  in
  push 0 (0, []);
  let checked = ref 0 in
  let rec loop () =
    if !checked >= max_subsets then None
    else
      match pop () with
      | None -> None
      | Some (cost, (next, chosen_rev)) ->
        incr checked;
        let chosen = List.rev chosen_rev in
        if satisfies chosen then
          Some
            {
              hypothesis = List.map (fun i -> candidates.(i)) chosen;
              cost;
              checked = !checked;
            }
        else begin
          for i = next to n - 1 do
            push (cost + candidates.(i).Hypothesis_space.cost) (i + 1, i :: chosen_rev)
          done;
          loop ()
        end
  in
  loop ()
