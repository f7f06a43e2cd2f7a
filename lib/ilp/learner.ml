(** The inductive learner: finds a minimal-cost hypothesis [H ⊆ S_M]
    solving a context-dependent ASG learning task (Definition 3), like the
    ILASP system the paper builds on.

    Two search engines are provided.

    {b Constraint path} (the common case: every candidate is a constraint).
    Adding constraints never creates answer sets, so an example's possible
    {e witnesses} — (parse tree, answer set) pairs of the base grammar under
    the example's context — are fixed up front. A candidate {e kills} a
    witness when its instantiation at some node of the witness's tree is
    violated by the witness's model. Learning then reduces to a weighted
    set-cover problem: kill every witness of every negative example while
    leaving at least one witness of every positive example alive. A
    branch-and-bound search finds the minimum-cost hypothesis; soft
    examples may instead be sacrificed at their penalty weight, which
    yields ILASP-style noise tolerance. Witnesses and kill columns are
    computed once per key — the sentence and the context projected onto
    what the space can read — and shared by the examples with it.

    {b General path} (candidates may define new atoms): best-first search
    over subsets in cost order, validating each candidate hypothesis with
    full membership checks. Exponential — intended for small spaces. *)

let c_hypothesis_evals = Obs.Counter.make "ilp.hypothesis_evals"
let c_candidate_evals = Obs.Counter.make "ilp.candidate_evals"
let c_search_nodes = Obs.Counter.make "ilp.search_nodes"
let c_witnesses_truncated = Obs.Counter.make "ilp.witnesses_truncated"
let c_candidates = Obs.Counter.make "ilp.candidates"
let c_nodes_pruned = Obs.Counter.make "ilp.nodes_pruned"
let c_kill_cells = Obs.Counter.make "ilp.kill_cells"
let c_examples_carried = Obs.Counter.make "ilp.examples_carried"
let c_examples_shared = Obs.Counter.make "ilp.examples_shared"
let h_kill_density = Obs.Histogram.make "ilp.kill_matrix.density"

type stats = {
  witnesses : int;
  truncated : int;  (** examples whose witness enumeration hit the cap *)
  nodes : int;  (** branch-and-bound nodes explored *)
  duration : float;  (** seconds, wall-clock *)
  candidates : int;  (** hypothesis-space candidates considered *)
  pruned : int;  (** search nodes cut by the cost bound *)
  kill_cells : int;  (** set (candidate, witness) kill-matrix cells *)
  max_depth : int;  (** deepest refinement (chosen-set size) reached *)
}

type witness = {
  ex_idx : int;
  model : Asp.Solver.model;
  index : Asp.Query.index;  (** [model]'s index, built with the witness *)
  traces_by_prod : (int * int list list) list;  (** prod id -> node traces *)
}

type evidence = {
  witnesses : witness list;
  truncated : bool;  (** the cap truncated [witnesses] *)
  killers : int list list;
      (** per witness, in order: the space indices of the candidates
          killing it, descending *)
  context : Asp.Program.t;
      (** the example's context projected onto what [G : S_M] reads: with
          the sentence, the key. [witnesses] were enumerated under it,
          or under the whole context when [truncated]. *)
  fingerprint : int;  (** [Asp.Program.fingerprint context] *)
}

type outcome = {
  hypothesis : Task.hypothesis;
  cost : int;  (** total cost of hypothesis rules *)
  penalty : int;  (** total weight of sacrificed (uncovered) examples *)
  sacrificed : Example.t list;
  stats : stats;
  evidence : evidence list;
      (** per task example, in order; empty on the general path *)
  max_witnesses : int;  (** the cap [evidence] was enumerated under *)
}

(* Witness enumeration with exact truncation detection: each solve asks
   for one model more than the remaining budget, so a within-tree cutoff
   is observed (the surplus model is discarded, keeping the returned set
   identical to a plain capped enumeration); a parse tree skipped after
   the budget is exhausted also reports truncation, conservatively — its
   induced program may or may not have had answer sets. *)
let witnesses_of_example_counted ?(max_witnesses = 64) (gpm : Asg.Gpm.t)
    (e : Example.t) : witness list * bool =
  let out = ref [] in
  let count = ref 0 in
  let truncated = ref false in
  Seq.iter
    (fun (tp : Asg.Membership.tree_program) ->
      if !count >= max_witnesses then truncated := true
      else begin
        let traces_by_prod = Asg.Membership.traces_by_production tp.tree in
        Obs.Counter.incr c_hypothesis_evals;
        let remaining = max_witnesses - !count in
        let models =
          Obs.fine_span "ilp.witness_solve" @@ fun () ->
          Asp.Solver.solve ~limit:(remaining + 1) (Lazy.force tp.program)
        in
        List.iteri
          (fun k model ->
            if k < remaining then begin
              incr count;
              out :=
                {
                  ex_idx = -1;
                  model;
                  index = Asp.Query.index model;
                  traces_by_prod;
                }
                :: !out
            end
            else truncated := true)
          models
      end)
    (Asg.Membership.programs ~context:e.Example.context gpm
       e.Example.sentence);
  if !truncated then Obs.Counter.incr c_witnesses_truncated;
  (List.rev !out, !truncated)

let witnesses_of_example ?max_witnesses gpm e =
  fst (witnesses_of_example_counted ?max_witnesses gpm e)

(* [kills] with [instantiate trace] giving the candidate's rule at a node *)
let kills_with instantiate (c : Hypothesis_space.candidate) (w : witness) =
  match List.assoc_opt c.Hypothesis_space.prod_id w.traces_by_prod with
  | None -> false
  | Some traces ->
    List.exists
      (fun trace -> Asp.Query.violates_in w.index (instantiate trace))
      traces

(** Does candidate [c] kill witness [w]? True when the candidate's
    constraint, instantiated at some node of the witness's tree carrying
    the candidate's production, is violated by the witness's model. *)
let kills (c : Hypothesis_space.candidate) (w : witness) : bool =
  kills_with
    (fun trace -> Asg.Annotation.instantiate_rule trace c.Hypothesis_space.rule)
    c w

(* The candidate's rule instantiated once per distinct trace. The memo
   belongs to its caller: the kill matrix makes one per candidate row. *)
let instantiator (c : Hypothesis_space.candidate) : int list -> Asp.Rule.t =
  let memo = Hashtbl.create 4 in
  fun trace ->
    match Hashtbl.find_opt memo trace with
    | Some r -> r
    | None ->
      let r = Asg.Annotation.instantiate_rule trace c.Hypothesis_space.rule in
      Hashtbl.add memo trace r;
      r

exception Infeasible

(* Greedy preference over (gain, cost, candidate index): higher
   gain-per-cost first, compared exactly by cross-multiplication (costs
   are positive integers), then higher index first. The ratio order used
   to rely on polymorphic [compare] over floats and the tie order on
   sort stability over the ci-descending killer lists; both are now
   pinned explicitly. *)
let greedy_score_compare (g1, c1, i1) (g2, c2, i2) =
  let r = Int.compare (g2 * c1) (g1 * c2) in
  if r <> 0 then r else Int.compare i2 i1

(* ---- Constraint path -------------------------------------------------- *)

(* Where an example's evidence comes from, decided in example order
   before any enumeration. *)
type source =
  | Prior of evidence  (** the carried outcome's, killer lists included *)
  | Fresh  (** enumerated and evaluated by this learn *)
  | Same_as of int  (** the first example of this learn with an equal key *)

(* Where a key of the table was seen: at an example of the carried task,
   or at the first example of this learn with it. *)
type seen = Carried of int | First of int

let learn_constraints ?pool ?(max_witnesses = 64) ?(max_nodes = 300_000)
    ?carried (t : Task.t) : outcome option =
  Obs.span "ilp.learn" @@ fun () ->
  let pool = match pool with Some p -> p | None -> Par.Config.pool () in
  let t0 = Obs.now () in
  let examples = Array.of_list t.Task.examples in
  let n_ex = Array.length examples in
  let candidates = Array.of_list t.Task.space in
  let n_cand = Array.length candidates in
  (* the carried task's examples and evidence; the evidence depends only
     on the base GPM, the space (for the killer lists and the projection)
     and the cap, so it is ignored unless all three are the same *)
  let prev_examples, prev_evidence =
    match carried with
    | Some ((prev : Task.t), (o : outcome))
      when prev.Task.gpm == t.Task.gpm
           && prev.Task.space == t.Task.space
           && o.max_witnesses = max_witnesses
           && List.compare_lengths o.evidence prev.Task.examples = 0 ->
      (Array.of_list prev.Task.examples, Array.of_list o.evidence)
    | Some _ | None -> ([||], [||])
  in
  (* Every example's source, in example order and so the same at any
     pool size: its own carried evidence, else an equal key's (the
     carried outcome's, then this learn's first example with it), else a
     new key. A key is the sentence and the context projected onto what
     [G : S_M] reads. A fact no rule of [G : S_M] reads only adds itself
     to every answer set (the splitting-set argument of {!Asg.Gpm.reads}),
     so the projected witnesses are the whole context's one for one, and
     each kills the candidates its counterpart kills. The table buckets
     keys by the sentence and the projected context's fingerprint, and a
     hit is confirmed by [Asp.Program.equal]; it holds the carried task's
     examples and this learn's new keys, so it is bounded by the examples
     of the two tasks. *)
  let view = lazy (Task.apply_hypothesis t.Task.gpm t.Task.space) in
  let keys = Hashtbl.create (Array.length prev_examples + n_ex) in
  Array.iteri
    (fun k (e : Example.t) ->
      let ev = prev_evidence.(k) in
      Hashtbl.add keys (e.Example.sentence, ev.fingerprint) (ev.context, Carried k))
    prev_examples;
  let n_carried = ref 0 in
  (* the carried example expected next: a sliding window keeps its
     examples in order, so they match without a lookup *)
  let next = ref 0 in
  (* per example: the projected context and its fingerprint *)
  let key = Array.make n_ex (Asp.Program.empty, 0) in
  let sources =
    Array.mapi
      (fun i (e : Example.t) ->
        let carry k =
          next := k + 1;
          incr n_carried;
          key.(i) <- (prev_evidence.(k).context, prev_evidence.(k).fingerprint);
          Prior prev_evidence.(k)
        in
        if !next < Array.length prev_examples && prev_examples.(!next) == e then
          carry !next
        else begin
          let context =
            Asg.Membership.project (Lazy.force view) e.Example.context
          in
          let fingerprint = Asp.Program.fingerprint context in
          key.(i) <- (context, fingerprint);
          let seen = Hashtbl.find_all keys (e.Example.sentence, fingerprint) in
          let equal_key = function
            | c, Carried k ->
              (not prev_evidence.(k).truncated) && Asp.Program.equal c context
            | c, First _ -> Asp.Program.equal c context
          in
          match
            List.find_map
              (function
                | _, Carried k when prev_examples.(k) == e -> Some k
                | _ -> None)
              seen
          with
          | Some k -> carry k
          | None -> (
            (* a key is first seen at most once, and only where no usable
               carried evidence has it: at most one kind matches *)
            match List.find_opt equal_key seen with
            | Some (_, Carried k) -> Prior prev_evidence.(k)
            | Some (_, First k) -> Same_as k
            | None ->
              Hashtbl.add keys (e.Example.sentence, fingerprint) (context, First i);
              Fresh)
        end)
      examples
  in
  (* per example: its witnesses and truncation flag *)
  let found = Array.make n_ex ([], false) in
  (* enumerate each [(i, context)] across the pool, example [i] under
     [context] *)
  let enumerate todo =
    let todo = Array.of_list (List.rev todo) in
    Array.iter2
      (fun (i, _) enumerated -> found.(i) <- enumerated)
      todo
      (Par.parallel_map pool
         (fun (i, context) ->
           witnesses_of_example_counted ~max_witnesses t.Task.gpm
             { (examples.(i)) with Example.context })
         todo)
  in
  Obs.span "ilp.witnesses" (fun () ->
      let fresh = ref [] in
      Array.iteri
        (fun i -> function
          | Prior ev -> found.(i) <- (ev.witnesses, ev.truncated)
          | Fresh -> fresh := (i, fst key.(i)) :: !fresh
          | Same_as _ -> ())
        sources;
      enumerate !fresh;
      (* the cap keeps a prefix of an enumeration order that unread facts
         may change: each example of a truncated key is enumerated on its
         whole context, and shares nothing *)
      let whole = ref [] in
      Array.iteri
        (fun i (e : Example.t) ->
          match sources.(i) with
          | Prior _ -> ()
          | Fresh ->
            if snd found.(i) && fst key.(i) != e.Example.context then
              whole := (i, e.Example.context) :: !whole
          | Same_as k ->
            if snd found.(k) then begin
              sources.(i) <- Fresh;
              whole := (i, e.Example.context) :: !whole
            end
            else found.(i) <- found.(k))
        examples;
      if !whole <> [] then enumerate !whole);
  let count p a = Array.fold_left (fun n x -> if p x then n + 1 else n) 0 a in
  Obs.Counter.incr ~by:!n_carried c_examples_carried;
  Obs.Counter.incr
    ~by:(count (function Fresh -> false | Prior _ | Same_as _ -> true) sources
        - !n_carried)
    c_examples_shared;
  (* per example: its witnesses, re-indexed to this task, and the id of
     its first witness *)
  let per_example =
    Array.mapi
      (fun i (ws, _) ->
        List.map (fun w -> if w.ex_idx = i then w else { w with ex_idx = i }) ws)
      found
  in
  let first_wid = Array.make n_ex 0 in
  Array.iteri
    (fun i ws ->
      if i + 1 < n_ex then first_wid.(i + 1) <- first_wid.(i) + List.length ws)
    per_example;
  let witnesses = Array.of_list (List.concat (Array.to_list per_example)) in
  let n_wit = Array.length witnesses in
  let wit_ids_of_ex = Array.make n_ex [] in
  Array.iteri
    (fun wid w -> wit_ids_of_ex.(w.ex_idx) <- wid :: wit_ids_of_ex.(w.ex_idx))
    witnesses;
  let n_truncated = count snd found in
  if n_truncated > 0 then
    Obs.Log.warn
      "witness enumeration hit the cap; the result may change with a larger \
       cap"
      ~attrs:
        [
          ("cap", string_of_int max_witnesses);
          ("examples_truncated", string_of_int n_truncated);
        ];
  (* kill matrix: carried killer lists are kept, and an example sharing a
     key copies its first example's; the rest are evaluated in one task
     per candidate row — each task writes only its own [rows.(ci)], so
     rows race on nothing. Both index lists are then rebuilt
     sequentially, in the order a scan of the whole matrix gives:
     [killers_of] ci-descending, [killed_by_cand] wid-descending. *)
  let killers_of = Array.make n_wit [] in
  Array.iteri
    (fun i -> function
      | Prior ev ->
        List.iteri (fun j k -> killers_of.(first_wid.(i) + j) <- k) ev.killers
      | Fresh | Same_as _ -> ())
    sources;
  let to_eval =
    Array.of_list
      (List.filter
         (fun wid ->
           match sources.(witnesses.(wid).ex_idx) with
           | Fresh -> true
           | Prior _ | Same_as _ -> false)
         (List.init n_wit Fun.id))
  in
  let rows = Array.make n_cand [] in
  let killed_by_cand = Array.make n_cand [] in
  Obs.span "ilp.kill_matrix" (fun () ->
      Par.parallel_iter pool
        (fun ci ->
          Obs.Counter.incr c_candidate_evals;
          Obs.fine_span "ilp.candidate_eval" (fun () ->
              let c = candidates.(ci) in
              let instantiate = instantiator c in
              Array.iter
                (fun wi ->
                  if kills_with instantiate c witnesses.(wi) then
                    rows.(ci) <- wi :: rows.(ci))
                to_eval))
        (Array.init n_cand Fun.id);
      for ci = 0 to n_cand - 1 do
        List.iter (fun wi -> killers_of.(wi) <- ci :: killers_of.(wi)) rows.(ci)
      done;
      Array.iteri
        (fun i -> function
          | Same_as k ->
            List.iter
              (fun wid ->
                killers_of.(wid) <- killers_of.(first_wid.(k) + wid - first_wid.(i)))
              wit_ids_of_ex.(i)
          | Prior _ | Fresh -> ())
        sources;
      for wi = 0 to n_wit - 1 do
        List.iter
          (fun ci -> killed_by_cand.(ci) <- wi :: killed_by_cand.(ci))
          killers_of.(wi)
      done);
  let kill_cells =
    Array.fold_left (fun acc l -> acc + List.length l) 0 killed_by_cand
  in
  Obs.Counter.incr ~by:n_cand c_candidates;
  Obs.Counter.incr ~by:kill_cells c_kill_cells;
  if n_cand > 0 && n_wit > 0 then
    Obs.Histogram.observe h_kill_density
      (float_of_int kill_cells /. float_of_int (n_cand * n_wit));
  (* search state: [surviving.(i)] counts example [i]'s unkilled
     witnesses, so the pending scans read one cell per example *)
  let kill_count = Array.make n_wit 0 in
  (* [banned.(ci)] is the search node that banned candidate [ci], 0 when
     it is not banned *)
  let banned = Array.make n_cand 0 in
  let sacrificed = Array.make n_ex false in
  let surviving = Array.map List.length wit_ids_of_ex in
  let nodes = ref 0 in
  let pruned = ref 0 in
  let search_depth = ref 0 in
  let max_depth = ref 0 in
  let best : (int * int list * int list) option ref = ref None in
  let base_penalty = ref 0 in
  (* Greedy warm start: repeatedly kill the cheapest-per-kill candidate (or
     sacrifice) to seed the branch-and-bound with a tight upper bound —
     without it, soft examples make the sacrifice branching explode. *)
  let greedy_warm_start () =
    let kc = Array.make n_wit 0 in
    let surv = Array.copy surviving in
    let sac = Array.copy sacrificed in
    let cost = ref 0 in
    let choice = ref [] in
    let ok = ref true in
    let hard_pos_safe ci =
      (* choosing ci must not kill the last witness of a live hard positive *)
      List.for_all
        (fun wid ->
          let ei = witnesses.(wid).ex_idx in
          not
            (kc.(wid) = 0
            && examples.(ei).Example.label = Example.Positive
            && (not sac.(ei))
            && examples.(ei).Example.weight = None
            && surv.(ei) = 1))
        killed_by_cand.(ci)
    in
    let apply ci =
      choice := ci :: !choice;
      cost := !cost + candidates.(ci).Hypothesis_space.cost;
      List.iter
        (fun wid ->
          kc.(wid) <- kc.(wid) + 1;
          if kc.(wid) = 1 then begin
            let ei = witnesses.(wid).ex_idx in
            surv.(ei) <- surv.(ei) - 1
          end)
        killed_by_cand.(ci)
    in
    let pending () =
      let rec go i =
        if i >= n_ex then None
        else if
          examples.(i).Example.label = Example.Negative
          && (not sac.(i))
          && surv.(i) > 0
        then Some i
        else go (i + 1)
      in
      go 0
    in
    let continue = ref true in
    while !continue && !ok do
      match pending () with
      | None -> continue := false
      | Some ei -> (
        let wid = List.find (fun w -> kc.(w) = 0) wit_ids_of_ex.(ei) in
        (* no chosen candidate kills [wid], so none is among its killers *)
        let usable = List.filter hard_pos_safe killers_of.(wid) in
        (* prefer the candidate killing the most still-unkilled negatives
           per unit cost *)
        let scored =
          List.map
            (fun ci ->
              let gain =
                List.fold_left
                  (fun n w ->
                    if
                      kc.(w) = 0
                      && examples.(witnesses.(w).ex_idx).Example.label
                         = Example.Negative
                    then n + 1
                    else n)
                  0 killed_by_cand.(ci)
              in
              (gain, candidates.(ci).Hypothesis_space.cost, ci))
            usable
        in
        match List.sort greedy_score_compare scored with
        | (_, _, ci) :: _ -> apply ci
        | [] -> (
          match examples.(ei).Example.weight with
          | Some w ->
            sac.(ei) <- true;
            cost := !cost + w
          | None -> ok := false))
    done;
    if !ok then begin
      (* pay for dead soft positives and list them with the sacrificed,
         as the DFS leaf does; fail if a hard positive died *)
      (try
         Array.iteri
           (fun i (e : Example.t) ->
             if
               e.Example.label = Example.Positive
               && (not sac.(i))
               && surv.(i) = 0
             then
               match e.Example.weight with
               | None -> raise Exit
               | Some w ->
                 cost := !cost + w;
                 sac.(i) <- true)
           examples;
         let sac_list =
           Array.to_list (Array.mapi (fun i s -> (i, s)) sac)
           |> List.filter_map (fun (i, s) -> if s then Some i else None)
         in
         best := Some (!cost + !base_penalty, !choice, sac_list)
       with Exit -> ())
    end
  in
  (* upfront feasibility and base penalty *)
  (try
     Array.iteri
       (fun i (e : Example.t) ->
         match e.Example.label with
         | Example.Positive ->
           if surviving.(i) = 0 then begin
             match e.Example.weight with
             | None -> raise Infeasible
             | Some w ->
               sacrificed.(i) <- true;
               base_penalty := !base_penalty + w
           end
         | Example.Negative ->
           let unkillable =
             List.exists (fun wid -> killers_of.(wid) = []) wit_ids_of_ex.(i)
           in
           if unkillable then begin
             match e.Example.weight with
             | None -> raise Infeasible
             | Some w ->
               sacrificed.(i) <- true;
               base_penalty := !base_penalty + w
           end)
       examples;
     greedy_warm_start ();
     (* DFS branch and bound. [dead_penalty] tracks the weights of soft
        positive examples whose witnesses are all killed on the current
        branch; killed witnesses never revive deeper in the branch, so it
        is a sound lower bound and makes the pruning tight. *)
     let current_cost = ref !base_penalty in
     let dead_penalty = ref 0 in
     let current_choice = ref [] in
     (* the negative examples, in order: down a branch kills and
        sacrifices only accumulate, so a negative that is not pending at
        a node is not pending below it, and each node's scan starts at
        its parent's pending position *)
     let negatives =
       Array.of_list
         (List.filter
            (fun i -> examples.(i).Example.label = Example.Negative)
            (List.init n_ex Fun.id))
     in
     let n_neg = Array.length negatives in
     (* a witness's killers by cost, sorted (stably, so ties keep their
        descending index order) the first time the search branches on it *)
     let by_cost = Array.make n_wit [] in
     let sorted = Array.make n_wit false in
     let killers_by_cost wid =
       if not sorted.(wid) then begin
         by_cost.(wid) <-
           List.stable_sort
             (fun a b ->
               Int.compare candidates.(a).Hypothesis_space.cost
                 candidates.(b).Hypothesis_space.cost)
             killers_of.(wid);
         sorted.(wid) <- true
       end;
       by_cost.(wid)
     in
     let rec next_pending p =
       (* first position from [p] of a negative example, not sacrificed,
          with an unkilled witness; [n_neg] when there is none *)
       if p >= n_neg then p
       else
         let i = negatives.(p) in
         if (not sacrificed.(i)) && surviving.(i) > 0 then p
         else next_pending (p + 1)
     and leaf_total () = !current_cost + !dead_penalty
     and choose ci from =
       current_cost := !current_cost + candidates.(ci).Hypothesis_space.cost;
       current_choice := ci :: !current_choice;
       incr search_depth;
       if !search_depth > !max_depth then max_depth := !search_depth;
       let hard_pos_dead = ref false in
       List.iter
         (fun wid ->
           kill_count.(wid) <- kill_count.(wid) + 1;
           if kill_count.(wid) = 1 then begin
             let ei = witnesses.(wid).ex_idx in
             surviving.(ei) <- surviving.(ei) - 1;
             if
               surviving.(ei) = 0
               && examples.(ei).Example.label = Example.Positive
               && not sacrificed.(ei)
             then
               match examples.(ei).Example.weight with
               | None -> hard_pos_dead := true
               | Some w -> dead_penalty := !dead_penalty + w
           end)
         killed_by_cand.(ci);
       if not !hard_pos_dead then dfs from;
       List.iter
         (fun wid ->
           kill_count.(wid) <- kill_count.(wid) - 1;
           if kill_count.(wid) = 0 then begin
             let ei = witnesses.(wid).ex_idx in
             surviving.(ei) <- surviving.(ei) + 1;
             if
               surviving.(ei) = 1
               && examples.(ei).Example.label = Example.Positive
               && not sacrificed.(ei)
             then
               match examples.(ei).Example.weight with
               | None -> ()
               | Some w -> dead_penalty := !dead_penalty - w
           end)
         killed_by_cand.(ci);
       decr search_depth;
       current_choice := List.tl !current_choice;
       current_cost := !current_cost - candidates.(ci).Hypothesis_space.cost
     and dfs from =
       incr nodes;
       Obs.Counter.incr c_search_nodes;
       (match !best with
       | _ when !nodes > max_nodes -> ()  (* anytime cutoff: keep best so far *)
       | Some (bcost, _, _) when !current_cost + !dead_penalty >= bcost ->
         incr pruned;
         Obs.Counter.incr c_nodes_pruned
       | _ -> (
         let p = next_pending from in
         if p = n_neg then begin
           let total = leaf_total () in
           (match !best with
           | Some (bcost, _, _) when total >= bcost -> ()
           | _ ->
             let sac =
               Array.to_list
                 (Array.mapi (fun i s -> if s then Some i else None) sacrificed)
               |> List.filter_map Fun.id
             in
             let pos_dead =
               Array.to_list
                 (Array.mapi
                    (fun i (e : Example.t) ->
                      if
                        e.Example.label = Example.Positive
                        && (not sacrificed.(i))
                        && surviving.(i) = 0
                      then Some i
                      else None)
                    examples)
               |> List.filter_map Fun.id
             in
             if total < max_int / 4 then
               best := Some (total, !current_choice, sac @ pos_dead))
         end
         else begin
           let ei = negatives.(p) in
           (* pick its first unkilled witness *)
           let wid =
             List.find (fun wid -> kill_count.(wid) = 0) wit_ids_of_ex.(ei)
           in
           (* branch on each killer, cheapest first. Once a killer's branch
              returns it is banned from its later siblings, their subtrees
              and the sacrifice branch, until this node returns: every
              killer set is then reached once, at its first position in
              the unbanned order. A subtree unbans what it bans, so the
              killers this node finds unbanned are those it would find
              unbanned on entry. *)
           let node = !nodes in
           let killers = killers_by_cost wid in
           List.iter
             (fun ci ->
               if banned.(ci) = 0 then begin
                 choose ci p;
                 banned.(ci) <- node
               end)
             killers;
           (* branch: sacrifice the example *)
           (match examples.(ei).Example.weight with
           | Some w ->
             sacrificed.(ei) <- true;
             current_cost := !current_cost + w;
             dfs p;
             current_cost := !current_cost - w;
             sacrificed.(ei) <- false
           | None -> ());
           List.iter (fun ci -> if banned.(ci) = node then banned.(ci) <- 0) killers
         end))
     in
     Obs.span "ilp.search" (fun () -> dfs 0)
   with Infeasible -> ());
  Obs.set_attr "witnesses" (string_of_int n_wit);
  Obs.set_attr "truncated" (string_of_int n_truncated);
  Obs.set_attr "nodes" (string_of_int !nodes);
  Obs.set_attr "candidates" (string_of_int n_cand);
  Obs.set_attr "pruned" (string_of_int !pruned);
  Obs.set_attr "kill_cells" (string_of_int kill_cells);
  Obs.set_attr "max_depth" (string_of_int !max_depth);
  match !best with
  | None -> None
  | Some (total, choice, sac) ->
    let hypothesis = List.map (fun ci -> candidates.(ci)) (List.rev choice) in
    let cost = Task.hypothesis_cost hypothesis in
    Some
      {
        hypothesis;
        cost;
        penalty = total - cost;
        sacrificed = List.map (fun i -> examples.(i)) sac;
        stats =
          {
            witnesses = n_wit;
            truncated = n_truncated;
            nodes = !nodes;
            duration = Obs.now () -. t0;
            candidates = n_cand;
            pruned = !pruned;
            kill_cells;
            max_depth = !max_depth;
          };
        evidence =
          Array.to_list
            (Array.mapi
               (fun i witnesses ->
                 let truncated = snd found.(i) and context, fingerprint = key.(i) in
                 let killers =
                   match sources.(i) with
                   | Prior ev -> ev.killers
                   | Fresh | Same_as _ ->
                     List.mapi (fun j _ -> killers_of.(first_wid.(i) + j)) witnesses
                 in
                 { witnesses; truncated; killers; context; fingerprint })
               per_example);
        max_witnesses;
      }

(* ---- General path ------------------------------------------------------ *)

(** Best-first search over hypothesis subsets in cost order; sound for any
    hypothesis space but exponential. Soft example weights are ignored
    (all examples are treated as hard). *)
let learn_general ?(max_subsets = 100_000) (t : Task.t) : outcome option =
  Obs.span "ilp.learn" @@ fun () ->
  let t0 = Obs.now () in
  let candidates = Array.of_list t.Task.space in
  let n = Array.length candidates in
  (* priority queue of (cost, next_index, chosen_rev) *)
  let module Pq = struct
    module M = Map.Make (Int)

    let create () = ref M.empty

    let push q cost v =
      q := M.update cost (fun l -> Some (v :: Option.value ~default:[] l)) !q

    let pop q =
      match M.min_binding_opt !q with
      | None -> None
      | Some (cost, vs) -> (
        match vs with
        | [] ->
          q := M.remove cost !q;
          None
        | v :: rest ->
          if rest = [] then q := M.remove cost !q
          else q := M.add cost rest !q;
          Some (cost, v))
  end in
  let q = Pq.create () in
  Pq.push q 0 (0, []);
  Obs.Counter.incr ~by:n c_candidates;
  let explored = ref 0 in
  let max_depth = ref 0 in
  let rec loop () =
    if !explored >= max_subsets then None
    else
      match Pq.pop q with
      | None -> None
      | Some (cost, (next, chosen_rev)) ->
        incr explored;
        Obs.Counter.incr c_candidate_evals;
        let depth = List.length chosen_rev in
        if depth > !max_depth then max_depth := depth;
        let hypothesis = List.rev_map (fun ci -> candidates.(ci)) chosen_rev in
        if
          Obs.fine_span "ilp.candidate_eval" (fun () ->
              Task.is_solution t hypothesis)
        then
          Some
            {
              hypothesis;
              cost;
              penalty = 0;
              sacrificed = [];
              stats =
                {
                  witnesses = 0;
                  truncated = 0;
                  nodes = !explored;
                  duration = Obs.now () -. t0;
                  candidates = n;
                  pruned = 0;
                  kill_cells = 0;
                  max_depth = !max_depth;
                };
              evidence = [];
              max_witnesses = 0;
            }
        else begin
          for ci = next to n - 1 do
            Pq.push q
              (cost + candidates.(ci).Hypothesis_space.cost)
              (ci + 1, ci :: chosen_rev)
          done;
          loop ()
        end
  in
  loop ()

(** Learn an optimal hypothesis, dispatching on the hypothesis space:
    the set-cover engine when every candidate is a constraint, the
    general subset search otherwise. *)
let learn ?pool ?max_witnesses ?carried (t : Task.t) : outcome option =
  if List.for_all Hypothesis_space.is_constraint_candidate t.Task.space then
    learn_constraints ?pool ?max_witnesses ?carried t
  else learn_general t

(** How many of the task's examples [G : h] covers, [G] the task's base
    GPM and [outcome] the result of learning the task. When every
    candidate of [h] is (physically) one of the task's space, a
    constraint-only [h] only removes answer sets, so an example is decided
    by its killer lists: a witness survives iff none of its killers is in
    [h], and a positive example is covered iff some witness survives, a
    negative one iff none does. {!Task.covers} decides an example whose
    witnesses were truncated, and every example when [h] has a candidate
    outside the space (a projected witness cannot judge a rule that may
    read what the space cannot) or there are no witnesses (the general
    path, or no outcome). *)
let covered (t : Task.t) (outcome : outcome option) (h : Task.hypothesis) :
    int =
  let extended = lazy (Task.apply_hypothesis t.Task.gpm h) in
  let covers e = Task.covers (Lazy.force extended) e in
  let count f l = List.fold_left (fun n x -> if f x then n + 1 else n) 0 l in
  (* [in_h.(k)]: the space's [k]th candidate is in [h]; [None] when some
     candidate of [h] is not in the space *)
  let in_h () =
    let in_h = Array.make (List.length t.Task.space) false in
    let rec index k c = function
      | [] -> None
      | c' :: rest -> if c' == c then Some k else index (k + 1) c rest
    in
    if
      List.for_all
        (fun c ->
          match index 0 c t.Task.space with
          | Some k ->
            in_h.(k) <- true;
            true
          | None -> false)
        h
    then Some in_h
    else None
  in
  match outcome with
  | Some o when List.compare_lengths o.evidence t.Task.examples = 0 -> (
    match in_h () with
    | None -> count covers t.Task.examples
    | Some in_h ->
      let survives killers = not (List.exists (Array.get in_h) killers) in
      List.fold_left2
        (fun n (e : Example.t) ev ->
          let covered =
            if ev.truncated then covers e
            else
              let alive = List.exists survives ev.killers in
              match e.Example.label with
              | Example.Positive -> alive
              | Example.Negative -> not alive
          in
          if covered then n + 1 else n)
        0 t.Task.examples o.evidence)
  | Some _ | None -> count covers t.Task.examples

let pp_outcome ppf o =
  Fmt.pf ppf "learned %d rule(s), cost %d, penalty %d (%d witnesses%s, %d nodes, %.3fs)"
    (List.length o.hypothesis) o.cost o.penalty o.stats.witnesses
    (if o.stats.truncated > 0 then
       Fmt.str ", %d truncated" o.stats.truncated
     else "")
    o.stats.nodes o.stats.duration;
  List.iter
    (fun c ->
      Fmt.pf ppf "@.  [pr%d] %a" c.Hypothesis_space.prod_id
        Asg.Annotation.pp_rule c.Hypothesis_space.rule)
    o.hypothesis
