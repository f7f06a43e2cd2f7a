(* The constraint learner's search as it was before complete branching,
   kept as the reference that Learner.learn_constraints must agree with.
   It branches on every killer not already chosen, so it reaches a killer
   set once per ordering of its members. Its input is built from the
   public witness and kill functions, one cell of the matrix at a time. *)

open Ilp

type result = {
  hypothesis : Task.hypothesis;
  cost : int;
  penalty : int;
  sacrificed : Example.t list;
}

exception Infeasible

(* The result, if any, and the nodes the search explored: more than
   [max_nodes] when it stopped at the cutoff. *)
let learn ?(max_witnesses = 64) ?(max_nodes = 300_000) (t : Task.t) :
    result option * int =
  let examples = Array.of_list t.Task.examples in
  let n_ex = Array.length examples in
  let candidates = Array.of_list t.Task.space in
  let n_cand = Array.length candidates in
  let wit_lists =
    Array.map
      (fun e -> Learner.witnesses_of_example ~max_witnesses t.Task.gpm e)
      examples
  in
  let ex_of_wit =
    Array.of_list
      (List.concat
         (Array.to_list
            (Array.mapi (fun i ws -> List.map (fun _ -> i) ws) wit_lists)))
  in
  let witnesses = Array.of_list (List.concat (Array.to_list wit_lists)) in
  let n_wit = Array.length witnesses in
  let wit_ids_of_ex = Array.make n_ex [] in
  Array.iteri
    (fun wid ei -> wit_ids_of_ex.(ei) <- wid :: wit_ids_of_ex.(ei))
    ex_of_wit;
  let killers_of = Array.make n_wit [] in
  let killed_by_cand = Array.make n_cand [] in
  for ci = 0 to n_cand - 1 do
    for wi = 0 to n_wit - 1 do
      if Learner.kills candidates.(ci) witnesses.(wi) then begin
        killed_by_cand.(ci) <- wi :: killed_by_cand.(ci);
        killers_of.(wi) <- ci :: killers_of.(wi)
      end
    done
  done;
  let kill_count = Array.make n_wit 0 in
  let chosen = Array.make n_cand false in
  let sacrificed = Array.make n_ex false in
  let surviving = Array.map List.length wit_ids_of_ex in
  let nodes = ref 0 in
  let best : (int * int list * int list) option ref = ref None in
  let base_penalty = ref 0 in
  let greedy_warm_start () =
    let kc = Array.make n_wit 0 in
    let surv = Array.copy surviving in
    let sac = Array.copy sacrificed in
    let cost = ref 0 in
    let choice = ref [] in
    let ok = ref true in
    let hard_pos_safe ci =
      List.for_all
        (fun wid ->
          let ei = ex_of_wit.(wid) in
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
            let ei = ex_of_wit.(wid) in
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
        let scored =
          List.map
            (fun ci ->
              let gain =
                List.length
                  (List.filter
                     (fun w ->
                       kc.(w) = 0
                       && examples.(ex_of_wit.(w)).Example.label
                          = Example.Negative)
                     killed_by_cand.(ci))
              in
              (gain, candidates.(ci).Hypothesis_space.cost, ci))
            usable
        in
        match List.sort Learner.greedy_score_compare scored with
        | (_, _, ci) :: _ -> apply ci
        | [] -> (
          match examples.(ei).Example.weight with
          | Some w ->
            sac.(ei) <- true;
            cost := !cost + w
          | None -> ok := false))
    done;
    if !ok then
      try
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
          List.filter (fun i -> sac.(i)) (List.init n_ex Fun.id)
        in
        best := Some (!cost + !base_penalty, !choice, sac_list)
      with Exit -> ()
  in
  (try
     Array.iteri
       (fun i (e : Example.t) ->
         let unsatisfiable =
           match e.Example.label with
           | Example.Positive -> surviving.(i) = 0
           | Example.Negative ->
             List.exists (fun wid -> killers_of.(wid) = []) wit_ids_of_ex.(i)
         in
         if unsatisfiable then
           match e.Example.weight with
           | None -> raise Infeasible
           | Some w ->
             sacrificed.(i) <- true;
             base_penalty := !base_penalty + w)
       examples;
     greedy_warm_start ();
     let current_cost = ref !base_penalty in
     let dead_penalty = ref 0 in
     let current_choice = ref [] in
     let rec next_pending () =
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
     and choose ci k =
       chosen.(ci) <- true;
       current_cost := !current_cost + candidates.(ci).Hypothesis_space.cost;
       current_choice := ci :: !current_choice;
       let hard_pos_dead = ref false in
       List.iter
         (fun wid ->
           kill_count.(wid) <- kill_count.(wid) + 1;
           if kill_count.(wid) = 1 then begin
             let ei = ex_of_wit.(wid) in
             if examples.(ei).Example.label = Example.Positive then begin
               surviving.(ei) <- surviving.(ei) - 1;
               if surviving.(ei) = 0 && not sacrificed.(ei) then
                 match examples.(ei).Example.weight with
                 | None -> hard_pos_dead := true
                 | Some w -> dead_penalty := !dead_penalty + w
             end
           end)
         killed_by_cand.(ci);
       if not !hard_pos_dead then k ();
       List.iter
         (fun wid ->
           kill_count.(wid) <- kill_count.(wid) - 1;
           if kill_count.(wid) = 0 then begin
             let ei = ex_of_wit.(wid) in
             if examples.(ei).Example.label = Example.Positive then begin
               surviving.(ei) <- surviving.(ei) + 1;
               if surviving.(ei) = 1 && not sacrificed.(ei) then
                 match examples.(ei).Example.weight with
                 | None -> ()
                 | Some w -> dead_penalty := !dead_penalty - w
             end
           end)
         killed_by_cand.(ci);
       current_choice := List.tl !current_choice;
       current_cost := !current_cost - candidates.(ci).Hypothesis_space.cost;
       chosen.(ci) <- false
     and dfs () =
       incr nodes;
       match !best with
       | _ when !nodes > max_nodes -> ()
       | Some (bcost, _, _) when !current_cost + !dead_penalty >= bcost -> ()
       | _ -> (
         match next_pending () with
         | None -> (
           let total = !current_cost + !dead_penalty in
           match !best with
           | Some (bcost, _, _) when total >= bcost -> ()
           | _ ->
             let sac = List.filter (fun i -> sacrificed.(i)) (List.init n_ex Fun.id) in
             let pos_dead =
               List.filter
                 (fun i ->
                   examples.(i).Example.label = Example.Positive
                   && (not sacrificed.(i))
                   && surviving.(i) = 0)
                 (List.init n_ex Fun.id)
             in
             if total < max_int / 4 then
               best := Some (total, !current_choice, sac @ pos_dead))
         | Some ei -> (
           let wid =
             List.find (fun wid -> kill_count.(wid) = 0) wit_ids_of_ex.(ei)
           in
           let killers =
             List.sort
               (fun a b ->
                 Int.compare candidates.(a).Hypothesis_space.cost
                   candidates.(b).Hypothesis_space.cost)
               (List.filter (fun ci -> not chosen.(ci)) killers_of.(wid))
           in
           List.iter (fun ci -> choose ci dfs) killers;
           match examples.(ei).Example.weight with
           | Some w ->
             sacrificed.(ei) <- true;
             current_cost := !current_cost + w;
             dfs ();
             current_cost := !current_cost - w;
             sacrificed.(ei) <- false
           | None -> ()))
     in
     dfs ()
   with Infeasible -> ());
  ( Option.map
      (fun (total, choice, sac) ->
        let hypothesis =
          List.map (fun ci -> candidates.(ci)) (List.rev choice)
        in
        let cost = Task.hypothesis_cost hypothesis in
        {
          hypothesis;
          cost;
          penalty = total - cost;
          sacrificed = List.map (fun i -> examples.(i)) sac;
        })
      !best,
    !nodes )
