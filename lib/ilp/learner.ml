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
    yields ILASP-style noise tolerance.

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

type outcome = {
  hypothesis : Task.hypothesis;
  cost : int;  (** total cost of hypothesis rules *)
  penalty : int;  (** total weight of sacrificed (uncovered) examples *)
  sacrificed : Example.t list;
  stats : stats;
}

type witness = {
  ex_idx : int;
  model : Asp.Solver.model;
  traces_by_prod : (int * int list list) list;  (** prod id -> node traces *)
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
              out := { ex_idx = -1; model; traces_by_prod } :: !out
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

(** Does candidate [c] kill witness [w]? True when the candidate's
    constraint, instantiated at some node of the witness's tree carrying
    the candidate's production, is violated by the witness's model. *)
let kills (c : Hypothesis_space.candidate) (w : witness) : bool =
  match List.assoc_opt c.Hypothesis_space.prod_id w.traces_by_prod with
  | None -> false
  | Some traces ->
    List.exists
      (fun trace ->
        let rule = Asg.Annotation.instantiate_rule trace c.Hypothesis_space.rule in
        Asp.Query.violates w.model rule)
      traces

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

let learn_constraints ?pool ?(max_witnesses = 64) ?(max_nodes = 300_000)
    (t : Task.t) : outcome option =
  Obs.span "ilp.learn" @@ fun () ->
  let pool = match pool with Some p -> p | None -> Par.Config.pool () in
  let t0 = Obs.now () in
  let examples = Array.of_list t.Task.examples in
  let n_ex = Array.length examples in
  let candidates = Array.of_list t.Task.space in
  let n_cand = Array.length candidates in
  (* collect witnesses: per-example enumeration fans out across the pool
     (each example is independent); assembly stays sequential in example
     order so witness ids match the sequential run bit for bit *)
  let witnesses = ref [] in
  let n_wit = ref 0 in
  let n_truncated = ref 0 in
  let wit_ids_of_ex = Array.make n_ex [] in
  Obs.span "ilp.witnesses" (fun () ->
      let per_example =
        Par.parallel_map pool
          (fun e -> witnesses_of_example_counted ~max_witnesses t.Task.gpm e)
          examples
      in
      Array.iteri
        (fun i (ws, truncated) ->
          if truncated then incr n_truncated;
          List.iter
            (fun w ->
              let wid = !n_wit in
              incr n_wit;
              witnesses := { w with ex_idx = i } :: !witnesses;
              wit_ids_of_ex.(i) <- wid :: wit_ids_of_ex.(i))
            ws)
        per_example);
  let witnesses = Array.of_list (List.rev !witnesses) in
  let n_wit = !n_wit in
  let n_truncated = !n_truncated in
  if n_truncated > 0 then
    Obs.Log.warn
      "witness enumeration hit the cap; the result may change with a larger \
       cap"
      ~attrs:
        [
          ("cap", string_of_int max_witnesses);
          ("examples_truncated", string_of_int n_truncated);
        ];
  (* kill matrix: one task per candidate row — each task writes only its
     own [kill.(ci)] row and [killed_by_cand.(ci)] cell, so rows race on
     nothing; [killers_of] is rebuilt sequentially afterwards in the same
     ci-ascending order the sequential loop used *)
  let kill = Array.make_matrix n_cand n_wit false in
  let killers_of = Array.make n_wit [] in
  let killed_by_cand = Array.make n_cand [] in
  Obs.span "ilp.kill_matrix" (fun () ->
      Par.parallel_iter pool
        (fun ci ->
          Obs.Counter.incr c_candidate_evals;
          Obs.fine_span "ilp.candidate_eval" (fun () ->
              for wi = 0 to n_wit - 1 do
                if kills candidates.(ci) witnesses.(wi) then begin
                  kill.(ci).(wi) <- true;
                  killed_by_cand.(ci) <- wi :: killed_by_cand.(ci)
                end
              done))
        (Array.init n_cand Fun.id);
      for ci = 0 to n_cand - 1 do
        for wi = 0 to n_wit - 1 do
          if kill.(ci).(wi) then killers_of.(wi) <- ci :: killers_of.(wi)
        done
      done);
  let kill_cells =
    Array.fold_left (fun acc l -> acc + List.length l) 0 killed_by_cand
  in
  Obs.Counter.incr ~by:n_cand c_candidates;
  Obs.Counter.incr ~by:kill_cells c_kill_cells;
  if n_cand > 0 && n_wit > 0 then
    Obs.Histogram.observe h_kill_density
      (float_of_int kill_cells /. float_of_int (n_cand * n_wit));
  (* search state *)
  let kill_count = Array.make n_wit 0 in
  let chosen = Array.make n_cand false in
  let sacrificed = Array.make n_ex false in
  let surviving = Array.make n_ex 0 in
  Array.iteri
    (fun i ids -> surviving.(i) <- List.length ids)
    wit_ids_of_ex;
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
    let surv = Array.map (fun x -> x) surviving in
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
            if examples.(ei).Example.label = Example.Positive then
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
          && List.exists (fun wid -> kc.(wid) = 0) wit_ids_of_ex.(i)
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
        let usable =
          List.filter
            (fun ci -> (not (List.mem ci !choice)) && hard_pos_safe ci)
            killers_of.(wid)
        in
        (* prefer the candidate killing the most still-unkilled negatives
           per unit cost *)
        let scored =
          List.map
            (fun ci ->
              let gain =
                List.length
                  (List.filter
                     (fun w ->
                       kc.(w) = 0
                       && examples.(witnesses.(w).ex_idx).Example.label
                          = Example.Negative)
                     killed_by_cand.(ci))
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
     let rec next_pending () =
       (* first negative example, not sacrificed, with an unkilled witness *)
       let rec go i =
         if i >= n_ex then None
         else if
           examples.(i).Example.label = Example.Negative
           && (not sacrificed.(i))
           && List.exists (fun wid -> kill_count.(wid) = 0) wit_ids_of_ex.(i)
         then Some i
         else go (i + 1)
       in
       go 0
     and leaf_total () = !current_cost + !dead_penalty
     and choose ci k =
       chosen.(ci) <- true;
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
             if examples.(ei).Example.label = Example.Positive then begin
               surviving.(ei) <- surviving.(ei) - 1;
               if surviving.(ei) = 0 && not sacrificed.(ei) then begin
                 match examples.(ei).Example.weight with
                 | None -> hard_pos_dead := true
                 | Some w -> dead_penalty := !dead_penalty + w
               end
             end
           end)
         killed_by_cand.(ci);
       if not !hard_pos_dead then k ();
       List.iter
         (fun wid ->
           kill_count.(wid) <- kill_count.(wid) - 1;
           if kill_count.(wid) = 0 then begin
             let ei = witnesses.(wid).ex_idx in
             if examples.(ei).Example.label = Example.Positive then begin
               surviving.(ei) <- surviving.(ei) + 1;
               if surviving.(ei) = 1 && not sacrificed.(ei) then
                 match examples.(ei).Example.weight with
                 | None -> ()
                 | Some w -> dead_penalty := !dead_penalty - w
             end
           end)
         killed_by_cand.(ci);
       decr search_depth;
       current_choice := List.tl !current_choice;
       current_cost := !current_cost - candidates.(ci).Hypothesis_space.cost;
       chosen.(ci) <- false
     and dfs () =
       incr nodes;
       Obs.Counter.incr c_search_nodes;
       (match !best with
       | _ when !nodes > max_nodes -> ()  (* anytime cutoff: keep best so far *)
       | Some (bcost, _, _) when !current_cost + !dead_penalty >= bcost ->
         incr pruned;
         Obs.Counter.incr c_nodes_pruned
       | _ -> (
         match next_pending () with
         | None ->
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
         | Some ei ->
           (* pick its first unkilled witness *)
           let wid =
             List.find (fun wid -> kill_count.(wid) = 0) wit_ids_of_ex.(ei)
           in
           (* branch on each killer, cheapest first *)
           let killers =
             List.sort
               (fun a b ->
                 Int.compare candidates.(a).Hypothesis_space.cost
                   candidates.(b).Hypothesis_space.cost)
               (List.filter (fun ci -> not chosen.(ci)) killers_of.(wid))
           in
           List.iter (fun ci -> choose ci dfs) killers;
           (* branch: sacrifice the example *)
           (match examples.(ei).Example.weight with
           | Some w ->
             sacrificed.(ei) <- true;
             current_cost := !current_cost + w;
             dfs ();
             current_cost := !current_cost - w;
             sacrificed.(ei) <- false
           | None -> ())))
     in
     Obs.span "ilp.search" dfs
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
let learn ?pool ?max_witnesses (t : Task.t) : outcome option =
  if List.for_all Hypothesis_space.is_constraint_candidate t.Task.space then
    learn_constraints ?pool ?max_witnesses t
  else learn_general t

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
