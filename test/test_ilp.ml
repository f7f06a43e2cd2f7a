(* Tests for the inductive learner: hypothesis-space generation, optimal
   constraint learning, noise tolerance, and the general search engine. *)

open Ilp

let contains needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let decision_gpm () =
  Asg.Asg_parser.parse
    {| start -> decision
       decision -> "accept" { result(accept). } | "reject" { result(reject). } |}

(* Mode bias: constraints on the start production mentioning the decision
   (child 1) and weather context atoms. *)
let weather_modes () =
  Mode.make ~target_prods:[ 0 ] ~heads:[ Mode.Constraint ]
    ~bodies:
      [
        Mode.matom ~site:(Some 1) "result" [ Mode.Constants [ "accept"; "reject" ] ];
        Mode.matom "weather" [ Mode.Constants [ "snow"; "sun"; "rain" ] ];
      ]
    ~max_body:2 ()

let weather_space () = Ilp.Hypothesis_space.generate (weather_modes ())

let base_examples () =
  [
    Ilp.Example.positive_ctx "accept" "weather(sun).";
    Ilp.Example.positive_ctx "reject" "weather(snow).";
    Ilp.Example.positive_ctx "reject" "weather(sun).";
    Ilp.Example.negative_ctx "accept" "weather(snow).";
  ]

let test_space_generation () =
  let space = weather_space () in
  (* bodies: 2 result atoms, 3 weather atoms, and 2x3 pairs = 11 rules *)
  Alcotest.(check int) "11 candidates" 11 (Ilp.Hypothesis_space.size space);
  Alcotest.(check bool) "all constraints" true
    (List.for_all Ilp.Hypothesis_space.is_constraint_candidate space)

let test_space_of_rules () =
  let space =
    Ilp.Hypothesis_space.of_rules
      [ (":- result(accept)@1, weather(snow).", [ 0; 1 ]) ]
  in
  Alcotest.(check int) "expanded per production" 2
    (Ilp.Hypothesis_space.size space);
  Alcotest.(check int) "cost = literals" 2
    (List.hd space).Ilp.Hypothesis_space.cost

let test_space_safety_filter () =
  (* a negated-only variable is unsafe and must be filtered out *)
  let m =
    Mode.make ~target_prods:[ 0 ] ~heads:[ Mode.Constraint ]
      ~bodies:[ Mode.matom ~negated:true "role" [ Mode.Variable "r" ] ]
      ~max_body:1 ()
  in
  Alcotest.(check int) "unsafe rules dropped" 0
    (Ilp.Hypothesis_space.size (Ilp.Hypothesis_space.generate m))

let test_learn_snow_constraint () =
  let task =
    Task.make ~gpm:(decision_gpm ()) ~space:(weather_space ())
      ~examples:(base_examples ())
  in
  match Learner.learn task with
  | None -> Alcotest.fail "expected a solution"
  | Some o ->
    Alcotest.(check int) "one rule" 1 (List.length o.Learner.hypothesis);
    Alcotest.(check int) "cost 2" 2 o.Learner.cost;
    Alcotest.(check int) "no penalty" 0 o.Learner.penalty;
    let rule_text =
      Asg.Annotation.rule_to_string
        (List.hd o.Learner.hypothesis).Ilp.Hypothesis_space.rule
    in
    Alcotest.(check bool) "mentions accept and snow" true
      (contains "result(accept)@1" rule_text
       && contains "weather(snow)" rule_text);
    Alcotest.(check bool) "verified solution" true
      (Task.is_solution task o.Learner.hypothesis)

let test_learned_gpm_behaviour () =
  let task =
    Task.make ~gpm:(decision_gpm ()) ~space:(weather_space ())
      ~examples:(base_examples ())
  in
  match Ilp.Asg_learning.learn_gpm task with
  | None -> Alcotest.fail "expected a solution"
  | Some l ->
    let snow = Asp.Parser.parse_program "weather(snow)." in
    let sun = Asp.Parser.parse_program "weather(sun)." in
    Alcotest.(check bool) "accept blocked in snow" false
      (Asg.Membership.accepts_in_context l.Ilp.Asg_learning.gpm ~context:snow
         "accept");
    Alcotest.(check bool) "accept allowed in sun" true
      (Asg.Membership.accepts_in_context l.Ilp.Asg_learning.gpm ~context:sun
         "accept");
    (* generation: valid policies under snow are exactly {reject} *)
    Alcotest.(check (list string)) "generation under snow" [ "reject" ]
      (Asg.Language.sentences_in_context ~max_depth:4 l.Ilp.Asg_learning.gpm
         ~context:snow)

let test_unsat_task () =
  (* same sentence+context both positive and negative: no solution *)
  let examples =
    [
      Ilp.Example.positive_ctx "accept" "weather(sun).";
      Ilp.Example.negative_ctx "accept" "weather(sun).";
    ]
  in
  let task =
    Task.make ~gpm:(decision_gpm ()) ~space:(weather_space ()) ~examples
  in
  Alcotest.(check bool) "no solution" true (Learner.learn task = None)

let test_noise_sacrifice () =
  (* a mislabeled soft example should be sacrificed, not fitted *)
  let examples =
    base_examples ()
    @ [ Ilp.Example.negative_ctx ~weight:1 "accept" "weather(sun)." ]
  in
  let task =
    Task.make ~gpm:(decision_gpm ()) ~space:(weather_space ()) ~examples
  in
  match Learner.learn task with
  | None -> Alcotest.fail "expected a (noisy) solution"
  | Some o ->
    Alcotest.(check int) "penalty 1" 1 o.Learner.penalty;
    Alcotest.(check int) "one sacrificed" 1 (List.length o.Learner.sacrificed);
    Alcotest.(check int) "still learns the snow rule" 2 o.Learner.cost

let test_hard_conflict_infeasible_vs_soft () =
  (* hard contradictory examples -> None; making one soft -> solvable *)
  let hard =
    [
      Ilp.Example.positive_ctx "accept" "weather(snow).";
      Ilp.Example.negative_ctx "accept" "weather(snow).";
    ]
  in
  let task = Task.make ~gpm:(decision_gpm ()) ~space:(weather_space ()) ~examples:hard in
  Alcotest.(check bool) "hard conflict unsat" true (Learner.learn task = None);
  let soft =
    [
      Ilp.Example.positive_ctx ~weight:5 "accept" "weather(snow).";
      Ilp.Example.negative_ctx "accept" "weather(snow).";
    ]
  in
  let task = Task.make ~gpm:(decision_gpm ()) ~space:(weather_space ()) ~examples:soft in
  match Learner.learn task with
  | None -> Alcotest.fail "soft conflict should be solvable"
  | Some o ->
    Alcotest.(check int) "pays the positive's weight" 5 o.Learner.penalty;
    (* the greedy warm start lists the soft positive it killed *)
    Alcotest.(check int) "sacrificed weights sum to the penalty"
      o.Learner.penalty
      (List.fold_left
         (fun acc (e : Ilp.Example.t) ->
           acc + Option.value ~default:0 e.Ilp.Example.weight)
         0 o.Learner.sacrificed)

let test_learn_general_with_defined_atom () =
  (* the hypothesis must chain a defined atom into a constraint *)
  let space =
    Ilp.Hypothesis_space.of_rules
      [
        ("bad :- weather(snow).", [ 0 ]);
        (":- result(accept)@1, bad.", [ 0 ]);
        (":- result(reject)@1, bad.", [ 0 ]);
      ]
  in
  let task =
    Task.make ~gpm:(decision_gpm ()) ~space ~examples:(base_examples ())
  in
  match Learner.learn task with
  | None -> Alcotest.fail "expected general-path solution"
  | Some o ->
    Alcotest.(check int) "two rules" 2 (List.length o.Learner.hypothesis);
    Alcotest.(check bool) "verified" true (Task.is_solution task o.Learner.hypothesis)

let test_multiple_witnesses () =
  (* an annotation with a choice gives several answer sets per tree; the
     learner must keep one witness alive per positive example *)
  let gpm =
    Asg.Asg_parser.parse
      {| start -> decision { 1 { mode(fast); mode(slow) } 1. }
         decision -> "accept" { result(accept). } | "reject" { result(reject). } |}
  in
  let space =
    Ilp.Hypothesis_space.of_rules
      [
        (":- mode(fast).", [ 0 ]);
        (":- result(accept)@1, weather(snow).", [ 0 ]);
      ]
  in
  let examples =
    [
      Ilp.Example.positive_ctx "accept" "weather(sun).";
      Ilp.Example.negative_ctx "accept" "weather(snow).";
    ]
  in
  let task = Task.make ~gpm ~space ~examples in
  match Learner.learn task with
  | None -> Alcotest.fail "expected solution"
  | Some o ->
    Alcotest.(check bool) "verified" true (Task.is_solution task o.Learner.hypothesis);
    Alcotest.(check int) "only the snow rule" 1 (List.length o.Learner.hypothesis)

(* The choice grammar gives every example two witnesses (mode fast/slow),
   so a cap of 1 must truncate — and say so, instead of the old silent
   drop — while a cap of exactly 2 must not (the detection over-asks the
   solver by one model, which must not misfire at the boundary). *)
let choice_gpm () =
  Asg.Asg_parser.parse
    {| start -> decision { 1 { mode(fast); mode(slow) } 1. }
       decision -> "accept" { result(accept). } | "reject" { result(reject). } |}

let test_witness_truncation_flag () =
  let gpm = choice_gpm () in
  let e = Ilp.Example.positive_ctx "accept" "weather(sun)." in
  let counter_value () =
    match Obs.Counter.find "ilp.witnesses_truncated" with
    | Some c -> Obs.Counter.value c
    | None -> 0
  in
  let before = counter_value () in
  let ws, truncated = Learner.witnesses_of_example_counted ~max_witnesses:1 gpm e in
  Alcotest.(check int) "cap 1 keeps one witness" 1 (List.length ws);
  Alcotest.(check bool) "cap 1 reports truncation" true truncated;
  Alcotest.(check int) "counter incremented" (before + 1) (counter_value ());
  let ws2, truncated2 =
    Learner.witnesses_of_example_counted ~max_witnesses:2 gpm e
  in
  Alcotest.(check int) "cap 2 keeps both" 2 (List.length ws2);
  Alcotest.(check bool) "exact cap is not truncation" false truncated2;
  let ws_default = Learner.witnesses_of_example gpm e in
  Alcotest.(check int) "default cap keeps both" 2 (List.length ws_default)

let test_learn_surfaces_truncation () =
  let space =
    Ilp.Hypothesis_space.of_rules [ (":- result(accept)@1, weather(snow).", [ 0 ]) ]
  in
  let examples =
    [
      Ilp.Example.positive_ctx "accept" "weather(sun).";
      Ilp.Example.negative_ctx "accept" "weather(snow).";
    ]
  in
  let task = Task.make ~gpm:(choice_gpm ()) ~space ~examples in
  (match Learner.learn_constraints ~max_witnesses:1 task with
  | None -> Alcotest.fail "capped task should still solve"
  | Some o ->
    Alcotest.(check int) "both examples truncated" 2 o.Learner.stats.Learner.truncated);
  match Learner.learn_constraints task with
  | None -> Alcotest.fail "uncapped task should solve"
  | Some o ->
    Alcotest.(check int) "no truncation at default cap" 0
      o.Learner.stats.Learner.truncated

(* Pin the greedy warm-start order: exact gain-per-cost descending,
   ties toward the higher candidate index. *)
let test_greedy_score_compare () =
  Alcotest.(check bool) "higher ratio first" true
    (Learner.greedy_score_compare (3, 1, 0) (2, 1, 9) < 0);
  (* 2/5 > 1/3 exactly; float rounding must not be involved *)
  Alcotest.(check bool) "exact rational comparison" true
    (Learner.greedy_score_compare (2, 5, 0) (1, 3, 1) < 0);
  Alcotest.(check bool) "equal ratios tie-break to higher index" true
    (Learner.greedy_score_compare (2, 2, 5) (1, 1, 3) < 0);
  let show (g, c, i) = Printf.sprintf "%d/%d@%d" g c i in
  Alcotest.(check (list string)) "full pinned order"
    [ "4/1@0"; "2/1@7"; "2/1@3"; "1/2@2" ]
    (List.map show
       (List.sort Learner.greedy_score_compare
          [ (1, 2, 2); (2, 1, 3); (4, 1, 0); (2, 1, 7) ]))

let test_accuracy () =
  let gpm = decision_gpm () in
  let h = Asg.Annotation.parse_rule_string ":- result(accept)@1, weather(snow)." in
  let learned = Asg.Gpm.with_hypothesis gpm [ (0, h) ] in
  let examples = base_examples () in
  Alcotest.(check (float 0.001)) "perfect accuracy" 1.0
    (Ilp.Asg_learning.accuracy learned examples);
  Alcotest.(check (float 0.001)) "initial gpm gets 3/4" 0.75
    (Ilp.Asg_learning.accuracy gpm examples)

let test_minimality_prefers_one_general_rule () =
  (* two negatives in snow: one general rule should beat two specific *)
  let space =
    Ilp.Hypothesis_space.of_rules
      [
        (":- result(accept)@1, weather(snow).", [ 0 ]);
        (":- result(accept)@1, weather(snow), time(day).", [ 0 ]);
        (":- result(accept)@1, weather(snow), time(night).", [ 0 ]);
      ]
  in
  let examples =
    [
      Ilp.Example.negative_ctx "accept" "weather(snow). time(day).";
      Ilp.Example.negative_ctx "accept" "weather(snow). time(night).";
      Ilp.Example.positive_ctx "accept" "weather(sun). time(day).";
    ]
  in
  let task = Task.make ~gpm:(decision_gpm ()) ~space ~examples in
  match Learner.learn task with
  | None -> Alcotest.fail "expected solution"
  | Some o ->
    Alcotest.(check int) "single general rule" 1 (List.length o.Learner.hypothesis);
    Alcotest.(check int) "cost 2" 2 o.Learner.cost

let test_guidance_rank_preserves_solution () =
  let task =
    Task.make ~gpm:(decision_gpm ()) ~space:(weather_space ())
      ~examples:(base_examples ())
  in
  let ranked = Ilp.Guidance.rank task in
  Alcotest.(check int) "same space size"
    (Ilp.Hypothesis_space.size task.Task.space)
    (Ilp.Hypothesis_space.size ranked.Task.space);
  match (Learner.learn task, Learner.learn ranked) with
  | Some a, Some b -> Alcotest.(check int) "same optimum" a.Learner.cost b.Learner.cost
  | _ -> Alcotest.fail "both should solve"

let test_guidance_ranks_discriminative_first () =
  let task =
    Task.make ~gpm:(decision_gpm ()) ~space:(weather_space ())
      ~examples:(base_examples ())
  in
  let ranked = Ilp.Guidance.rank task in
  (* snow appears in every negative context and few positive ones, so a
     snow-mentioning candidate must rank above rain (never observed) *)
  let index_of pred =
    let rec go i = function
      | [] -> max_int
      | (c : Ilp.Hypothesis_space.candidate) :: rest ->
        let text = Asg.Annotation.rule_to_string c.rule in
        let nl = String.length pred and hl = String.length text in
        let rec mem j =
          j + nl <= hl && (String.sub text j nl = pred || mem (j + 1))
        in
        if mem 0 then i else go (i + 1) rest
    in
    go 0 ranked.Task.space
  in
  Alcotest.(check bool) "snow before rain" true
    (index_of "weather(snow)" < index_of "weather(rain)")

let test_guidance_prune_keeps_enough () =
  let space = Ilp.Hypothesis_space.generate (Workloads.Cav.modes ()) in
  let examples = Workloads.Cav.examples_of (Workloads.Cav.sample ~seed:42 40) in
  let task = Task.make ~gpm:(Workloads.Cav.gpm ()) ~space ~examples in
  let pruned = Ilp.Guidance.prune ~fraction:0.5 task in
  Alcotest.(check bool) "space halved" true
    (Ilp.Hypothesis_space.size pruned.Task.space
    <= (Ilp.Hypothesis_space.size task.Task.space + 1) / 2 + 1);
  match Learner.learn pruned with
  | Some o ->
    Alcotest.(check bool) "pruned task still solvable" true
      (Task.is_solution pruned o.Learner.hypothesis)
  | None -> Alcotest.fail "pruned task unsolvable"

(* ---- Preference learning (ordering examples) ---- *)

let pref_gpm () =
  Asg.Asg_parser.parse
    {| start -> decision
       decision -> "fast" { picked(fast). } | "safe" { picked(safe). } |}

let pref_space () =
  Ilp.Hypothesis_space.generate
    (Mode.make ~target_prods:[ 0 ]
       ~heads:[ Mode.WeakHead (Mode.IntOperand 1); Mode.WeakHead (Mode.VarOperand "r") ]
       ~bodies:
         [ Mode.matom ~required:true ~site:(Some 1) "picked"
             [ Mode.Constants [ "fast"; "safe" ] ];
           Mode.matom "risk" [ Mode.Variable "r" ] ]
       ~max_body:2 ())

let test_preference_learns_constant_penalty () =
  (* "safe" preferred everywhere: learner should penalize "fast" *)
  let orderings =
    [ Ilp.Preference.prefer_ctx "safe" "fast" "";
      Ilp.Preference.prefer_ctx "safe" "fast" "risk(3)." ]
  in
  match
    Ilp.Preference.learn ~gpm:(pref_gpm ()) ~space:(pref_space ()) ~orderings ()
  with
  | None -> Alcotest.fail "expected a preference hypothesis"
  | Some o ->
    Alcotest.(check int) "one weak rule" 1 (List.length o.Ilp.Preference.hypothesis);
    let text =
      Asg.Annotation.rule_to_string
        (List.hd o.Ilp.Preference.hypothesis).Ilp.Hypothesis_space.rule
    in
    Alcotest.(check bool) "penalizes fast" true (contains "picked(fast)" text)

let test_preference_learns_variable_weight () =
  (* fast costs the context's risk level: fast wins at risk 0, loses at 5 *)
  let orderings =
    [ Ilp.Preference.prefer_ctx "safe" "fast" "risk(5). calm(0).";
      Ilp.Preference.prefer_ctx "safe" "fast" "risk(3). calm(0).";
      (* non-strict the other way at zero risk *)
      Ilp.Preference.prefer_ctx ~strict:false "fast" "safe" "risk(0). calm(0)." ]
  in
  match
    Ilp.Preference.learn ~gpm:(pref_gpm ()) ~space:(pref_space ()) ~orderings ()
  with
  | None -> Alcotest.fail "expected a hypothesis"
  | Some o ->
    let texts =
      List.map
        (fun (c : Ilp.Hypothesis_space.candidate) ->
          Asg.Annotation.rule_to_string c.Ilp.Hypothesis_space.rule)
        o.Ilp.Preference.hypothesis
    in
    Alcotest.(check bool) "uses the risk variable weight" true
      (List.exists (fun t -> contains "[V_r]" t && contains "picked(fast)" t) texts)

let test_preference_unsat () =
  (* contradictory strict orderings cannot be satisfied *)
  let orderings =
    [ Ilp.Preference.prefer_ctx "safe" "fast" "";
      Ilp.Preference.prefer_ctx "fast" "safe" "" ]
  in
  Alcotest.(check bool) "unsat" true
    (Ilp.Preference.learn ~gpm:(pref_gpm ()) ~space:(pref_space ()) ~orderings ()
    = None)

let test_preference_invalid_sentence_unsat () =
  let orderings = [ Ilp.Preference.prefer_ctx "fly" "safe" "" ] in
  Alcotest.(check bool) "invalid sentence cannot be preferred" true
    (Ilp.Preference.learn ~gpm:(pref_gpm ()) ~space:(pref_space ()) ~orderings ()
    = None)

let test_preference_resupply_value_function () =
  let modes =
    Mode.make ~target_prods:[ 0 ]
      ~heads:[ Mode.WeakHead (Mode.VarOperand "t"); Mode.WeakHead (Mode.IntOperand 1) ]
      ~bodies:
        [ Mode.matom ~required:true ~site:(Some 1) "chosen" [ Mode.Variable "rt" ];
          Mode.matom ~required:true ~site:(Some 1) "chosen"
            [ Mode.Constants Workloads.Resupply.routes ];
          Mode.matom "threat" [ Mode.Variable "rt"; Mode.Variable "t" ];
          Mode.matom "weather" [ Mode.Constants Workloads.Resupply.weathers ] ]
      ~max_body:2 ()
  in
  let space = Ilp.Hypothesis_space.generate modes in
  let missions = Workloads.Resupply.campaign ~seed:5 ~n:12 () in
  let orderings =
    List.concat_map
      (fun m ->
        let ctx = Workloads.Resupply.to_context m in
        let valid =
          List.filter (Workloads.Resupply.route_valid m) Workloads.Resupply.routes
        in
        List.concat_map
          (fun r1 ->
            List.filter_map
              (fun r2 ->
                if
                  r1 <> r2
                  && Workloads.Resupply.route_cost m r1
                     < Workloads.Resupply.route_cost m r2
                then Some (Ilp.Preference.prefer ~context:ctx r1 r2)
                else None)
              valid)
          valid)
      missions
  in
  match
    Ilp.Preference.learn ~gpm:(Workloads.Resupply.gpm ()) ~space ~orderings ()
  with
  | None -> Alcotest.fail "expected the threat value function"
  | Some o ->
    let text =
      String.concat " "
        (List.map
           (fun (c : Ilp.Hypothesis_space.candidate) ->
             Asg.Annotation.rule_to_string c.Ilp.Hypothesis_space.rule)
           o.Ilp.Preference.hypothesis)
    in
    Alcotest.(check bool) "threat-weighted rule found" true
      (contains "threat(V_rt, V_t)" text && contains "[V_t]" text)

(* property: on random consistent tasks, the learner's output verifies *)
let prop_learner_sound =
  QCheck2.Test.make ~name:"learned hypotheses are inductive solutions" ~count:25
    QCheck2.Gen.(list_size (int_range 1 6) (pair bool bool))
    (fun flags ->
      (* hidden rule: accept invalid iff snowing *)
      let examples =
        List.map
          (fun (snowing, accepting) ->
            let ctx = if snowing then "weather(snow)." else "weather(sun)." in
            let s = if accepting then "accept" else "reject" in
            let valid = (not snowing) || not accepting in
            if valid then Ilp.Example.positive_ctx s ctx
            else Ilp.Example.negative_ctx s ctx)
          flags
      in
      let task =
        Task.make ~gpm:(decision_gpm ()) ~space:(weather_space ()) ~examples
      in
      match Learner.learn task with
      | None -> false (* consistent tasks always have a solution *)
      | Some o -> Task.is_solution task o.Learner.hypothesis)

let prop_optimality_cost_bound =
  QCheck2.Test.make ~name:"learner never beats brute-force optimum" ~count:10
    QCheck2.Gen.(int_range 1 3)
    (fun _seed ->
      let task =
        Task.make ~gpm:(decision_gpm ()) ~space:(weather_space ())
          ~examples:(base_examples ())
      in
      match (Learner.learn task, Learner.learn_general task) with
      | Some fast, Some general -> fast.Learner.cost = general.Learner.cost
      | _ -> false)

let prop_generated_spaces_are_safe_and_unique =
  QCheck2.Test.make ~name:"mode-generated rules are safe and unique" ~count:20
    QCheck2.Gen.(int_range 1 3)
    (fun max_body ->
      let space =
        Ilp.Hypothesis_space.generate (Workloads.Cav.modes ~max_body ())
      in
      let texts =
        List.map
          (fun (c : Ilp.Hypothesis_space.candidate) ->
            Asg.Annotation.rule_to_string c.rule)
          space
      in
      List.length (List.sort_uniq compare texts) = List.length texts
      && List.for_all
           (fun (c : Ilp.Hypothesis_space.candidate) ->
             Ilp.Hypothesis_space.rule_is_safe c.rule)
           space)

let prop_candidate_costs_positive =
  QCheck2.Test.make ~name:"candidate costs are positive" ~count:10
    QCheck2.Gen.(int_range 1 3)
    (fun max_body ->
      List.for_all
        (fun (c : Ilp.Hypothesis_space.candidate) -> c.cost >= 1)
        (Ilp.Hypothesis_space.generate (Workloads.Cav.modes ~max_body ())))

(* ---- Kill matrix and coverage read from the witnesses ---- *)

(* The workload tasks the kill rows are checked on: flat XACML, XACML
   with the role hierarchy (non-ground role_level(S) with comparisons),
   CAV (V_v < V_r) and resupply. *)
let workload_tasks () =
  let xacml_examples =
    Policy.Xacml.examples_of_log (Workloads.Xacml_logs.log ~seed:1 ~n:12 ())
  in
  let task gpm modes examples =
    Task.make ~gpm ~space:(Hypothesis_space.generate modes) ~examples
  in
  [
    ( "xacml flat",
      task (Workloads.Xacml_logs.gpm ()) (Workloads.Xacml_logs.modes ())
        xacml_examples );
    ( "xacml hierarchy",
      task
        (Workloads.Xacml_logs.gpm_with_hierarchy ())
        (Workloads.Xacml_logs.hierarchy_modes ())
        xacml_examples );
    ( "cav",
      task (Workloads.Cav.gpm ()) (Workloads.Cav.modes ())
        (Workloads.Cav.examples_of (Workloads.Cav.sample ~seed:42 8)) );
    ( "resupply",
      task (Workloads.Resupply.gpm ()) (Workloads.Resupply.modes ())
        (List.concat_map Workloads.Resupply.examples_of_mission
           (Workloads.Resupply.campaign ~seed:21 ~n:3 ())) );
    (* candidates below the root, on a production that sits at different
       traces in different witnesses *)
    ( "repeated production",
      Task.make
        ~gpm:
          (Asg.Asg_parser.parse
             {| start -> slot slot
                slot -> "north" { go(north). } | "south" { go(south). } |})
        ~space:
          (Hypothesis_space.of_rules
             [
               (":- go(X), blocked(X).", [ 1 ]);
               (":- go(south), weather(snow).", [ 2 ]);
             ])
        ~examples:
          [
            Example.negative_ctx "north south" "blocked(north).";
            Example.negative_ctx "south north" "blocked(north).";
            Example.positive_ctx "south south" "blocked(north).";
            Example.negative_ctx "north south" "weather(snow).";
            Example.positive_ctx "north north" "weather(snow).";
          ] );
  ]

(* the reference: count Task.covers under G : h *)
let covers_count (t : Task.t) h =
  let g = Task.apply_hypothesis t.Task.gpm h in
  List.length (List.filter (Task.covers g) t.Task.examples)

(* The kill oracle, independent of the learner's index: the candidate's
   constraint, instantiated at some trace of its production, has a
   satisfying instance on the witness model. *)
let kill_oracle (c : Hypothesis_space.candidate) (w : Learner.witness) =
  match List.assoc_opt c.prod_id w.Learner.traces_by_prod with
  | None -> false
  | Some traces ->
    List.exists
      (fun trace ->
        let r = Asg.Annotation.instantiate_rule trace c.rule in
        r.Asp.Rule.head = Asp.Rule.Falsity
        && Asp.Query.satisfying_instances w.Learner.model r.Asp.Rule.body <> [])
      traces

let test_kill_rows_match_oracle () =
  List.iter
    (fun (name, (t : Task.t)) ->
      let ws =
        List.concat_map (Learner.witnesses_of_example t.Task.gpm) t.Task.examples
      in
      let set = ref 0 in
      List.iter
        (fun c ->
          List.iter
            (fun w ->
              let oracle = kill_oracle c w in
              if oracle then incr set;
              if Learner.kills c w <> oracle then
                Alcotest.failf "%s: kills [pr%d] %s = %b, oracle %b" name
                  c.Hypothesis_space.prod_id
                  (Asg.Annotation.rule_to_string c.Hypothesis_space.rule)
                  (not oracle) oracle)
            ws)
        t.Task.space;
      Alcotest.(check bool) (name ^ ": some cells set") true (!set > 0);
      (* the learner's own matrix and [covered] instantiate each
         candidate once per distinct trace *)
      match Learner.learn_constraints t with
      | Some o ->
        Alcotest.(check int) (name ^ ": learner kill cells") !set
          o.Learner.stats.Learner.kill_cells;
        List.iter
          (fun c ->
            Alcotest.(check int) (name ^ ": covered by one candidate")
              (covers_count t [ c ])
              (Learner.covered t (Some o) [ c ]))
          t.Task.space
      | None -> Alcotest.failf "%s: task should solve" name)
    (workload_tasks ())

(* soft examples with some labels flipped, so learning stays feasible *)
let relabel flips (examples : Example.t list) =
  List.mapi
    (fun i (e : Example.t) ->
      let flip = List.nth flips (i mod List.length flips) in
      let label =
        match (e.label, flip) with
        | l, false -> l
        | Example.Positive, true -> Example.Negative
        | Example.Negative, true -> Example.Positive
      in
      { e with label; weight = Some 1 })
    examples

let prop_covered_matches_covers =
  let xacml_gpm = Workloads.Xacml_logs.gpm ()
  and xacml_space = Hypothesis_space.generate (Workloads.Xacml_logs.modes ())
  and cav_gpm = Workloads.Cav.gpm ()
  and cav_space = Hypothesis_space.generate (Workloads.Cav.modes ()) in
  QCheck2.Test.make ~name:"witness-derived coverage = Task.covers" ~count:20
    QCheck2.Gen.(
      quad bool (int_bound 1000)
        (list_size (int_range 1 5) bool)
        (list_size (int_bound 3) (int_bound 10_000)))
    (fun (cav, seed, flips, picks) ->
      let gpm, space, examples =
        if cav then
          ( cav_gpm,
            cav_space,
            Workloads.Cav.examples_of (Workloads.Cav.sample ~seed 4) )
        else
          ( xacml_gpm,
            xacml_space,
            Policy.Xacml.examples_of_log
              (Workloads.Xacml_logs.log ~seed ~n:8 ()) )
      in
      let t = Task.make ~gpm ~space ~examples:(relabel flips examples) in
      let outcome = Learner.learn_constraints t in
      let drawn =
        List.sort_uniq compare
          (List.map (fun i -> i mod List.length space) picks)
        |> List.map (List.nth space)
      in
      List.for_all
        (fun h -> Learner.covered t outcome h = covers_count t h)
        ([ []; drawn ]
        @ Option.to_list
            (Option.map (fun (o : Learner.outcome) -> o.hypothesis) outcome)))

(* A rule defining a new atom is not read from the witnesses: the
   constraint below fires only through it, so a witness-only count
   would miss every kill. *)
let test_covered_non_constraint_fallback () =
  let t =
    Task.make ~gpm:(decision_gpm ()) ~space:(weather_space ())
      ~examples:(base_examples ())
  in
  let outcome = Learner.learn_constraints t in
  Alcotest.(check bool) "learned" true (outcome <> None);
  let h =
    Hypothesis_space.of_rules
      [ ("bad :- weather(snow).", [ 0 ]); (":- result(accept)@1, bad.", [ 0 ]) ]
  in
  Alcotest.(check int) "all four covered" 4 (covers_count t h);
  Alcotest.(check int) "fallback agrees" (covers_count t h)
    (Learner.covered t outcome h);
  (* the general path keeps no witnesses, so it falls back too *)
  Alcotest.(check int) "general-path outcome" (covers_count t h)
    (Learner.covered t (Learner.learn_general t) h);
  Alcotest.(check int) "no outcome" (covers_count t h) (Learner.covered t None h)

(* Under a cap of 1 each example keeps one of its two witnesses (mode
   fast/slow); ":- mode(fast)." kills the kept one while the other
   survives, so a truncated example must be decided by Task.covers. *)
let test_covered_truncation_fallback () =
  let examples =
    [
      Ilp.Example.positive_ctx ~weight:1 "accept" "weather(sun).";
      Ilp.Example.negative_ctx ~weight:1 "accept" "weather(snow).";
      Ilp.Example.positive_ctx ~weight:1 "reject" "weather(snow).";
    ]
  in
  let space =
    Ilp.Hypothesis_space.of_rules
      [
        (":- mode(fast).", [ 0 ]);
        (":- mode(slow).", [ 0 ]);
        (":- result(accept)@1, weather(snow).", [ 0 ]);
      ]
  in
  let t = Task.make ~gpm:(choice_gpm ()) ~space ~examples in
  let outcome = Learner.learn_constraints ~max_witnesses:1 t in
  (match outcome with
  | Some o ->
    Alcotest.(check int) "every example truncated" 3 o.Learner.stats.Learner.truncated
  | None -> Alcotest.fail "capped task should solve");
  List.iter
    (fun h ->
      Alcotest.(check int) "covered = Task.covers" (covers_count t h)
        (Learner.covered t outcome h))
    [ []; [ List.nth space 0 ]; [ List.nth space 1 ]; [ List.nth space 2 ]; space ]

(* ---- The search against the old one (test/reference_search.ml) ---- *)

(* The five model families, plus a choice rule giving every example two
   witnesses: name, base GPM, space, and [examples seed n]. *)
let search_families =
  let xacml seed n =
    Policy.Xacml.examples_of_log (Workloads.Xacml_logs.log ~seed ~n ())
  in
  (* accepting in snow is invalid *)
  let weather seed n =
    let rng = Random.State.make [| seed |] in
    List.init n (fun _ ->
        let w = List.nth [ "snow"; "sun"; "rain" ] (Random.State.int rng 3) in
        let accepting = Random.State.bool rng in
        let s = if accepting then "accept" else "reject" in
        let ctx = Printf.sprintf "weather(%s)." w in
        if accepting && w = "snow" then Ilp.Example.negative_ctx s ctx
        else Ilp.Example.positive_ctx s ctx)
  in
  let family name gpm modes examples =
    lazy (name, gpm, Hypothesis_space.generate modes, examples)
  in
  [|
    family "xacml flat" (Workloads.Xacml_logs.gpm ())
      (Workloads.Xacml_logs.modes ()) xacml;
    family "xacml hierarchy"
      (Workloads.Xacml_logs.gpm_with_hierarchy ())
      (Workloads.Xacml_logs.hierarchy_modes ())
      xacml;
    family "cav" (Workloads.Cav.gpm ()) (Workloads.Cav.modes ()) (fun seed n ->
        Workloads.Cav.examples_of (Workloads.Cav.sample ~seed n));
    family "resupply" (Workloads.Resupply.gpm ()) (Workloads.Resupply.modes ())
      (fun seed n ->
        List.concat_map Workloads.Resupply.examples_of_mission
          (Workloads.Resupply.campaign ~seed ~n:(1 + (n / 4)) ()));
    family "convoy" (Workloads.Convoy.gpm ()) (Workloads.Convoy.modes ())
      (fun seed n ->
        Workloads.Convoy.examples_of (Workloads.Convoy.sample ~seed n));
    family "weather with a choice" (choice_gpm ())
      (Mode.make ~target_prods:[ 0 ] ~heads:[ Mode.Constraint ]
         ~bodies:
           [
             Mode.matom ~site:(Some 1) "result"
               [ Mode.Constants [ "accept"; "reject" ] ];
             Mode.matom "weather" [ Mode.Constants [ "snow"; "sun"; "rain" ] ];
             Mode.matom "mode" [ Mode.Constants [ "fast"; "slow" ] ];
           ]
         ~max_body:2 ())
      weather;
  |]

(* Per-example marks, applied cyclically: flip the label (noise), and
   hard (no weight) or soft at a weight of 1-3. *)
let mark_examples marks (examples : Example.t list) =
  List.mapi
    (fun i (e : Example.t) ->
      let flip, hard = List.nth marks (i mod List.length marks) in
      let label =
        match (e.label, flip) with
        | l, false -> l
        | Example.Positive, true -> Example.Negative
        | Example.Negative, true -> Example.Positive
      in
      { e with label; weight = (if hard then None else Some (1 + (i mod 3))) })
    examples

let gen_search_task =
  QCheck2.Gen.(
    quad
      (int_bound (Array.length search_families - 1))
      (int_bound 1000) (int_range 2 14)
      (list_size (int_range 1 5)
         (pair
            (frequency [ (1, return true); (4, return false) ])
            (frequency [ (1, return true); (3, return false) ]))))

let print_search_task (fam, seed, n, marks) =
  let name, _, _, _ = Lazy.force search_families.(fam) in
  Printf.sprintf "%s, seed %d, n %d, marks (flip, hard) [%s]" name seed n
    (String.concat "; "
       (List.map (fun (f, h) -> Printf.sprintf "(%b, %b)" f h) marks))

(* Banning a killer once its branch returns keeps the first leaf of
   every killer set, so when the old search finished the two return
   the same hypothesis, cost, penalty and sacrificed list. *)
let prop_search_matches_reference =
  let max_nodes = 20_000 in
  QCheck2.Test.make ~name:"search = old search when it finishes" ~count:100
    ~print:print_search_task gen_search_task (fun (fam, seed, n, marks) ->
      let _, gpm, space, examples = Lazy.force search_families.(fam) in
      let t =
        Task.make ~gpm ~space ~examples:(mark_examples marks (examples seed n))
      in
      match Reference_search.learn ~max_nodes t with
      | _, nodes when nodes > max_nodes -> true
      | reference, _ -> (
        match (reference, Learner.learn_constraints ~max_nodes t) with
        | None, None -> true
        | Some r, Some o ->
          List.equal ( == ) r.Reference_search.hypothesis o.Learner.hypothesis
          && r.Reference_search.cost = o.Learner.cost
          && r.Reference_search.penalty = o.Learner.penalty
          && List.equal ( == ) r.Reference_search.sacrificed
               o.Learner.sacrificed
        | Some _, None | None, Some _ -> false))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_learner_sound; prop_optimality_cost_bound;
      prop_generated_spaces_are_safe_and_unique; prop_candidate_costs_positive;
      prop_covered_matches_covers; prop_search_matches_reference ]

let () =
  (* the truncation tests deliberately trip the learner's witness-cap
     warning; keep it out of the test output *)
  Obs.Log.set_stderr_threshold None;
  Alcotest.run "ilp"
    [
      ( "space",
        [
          Alcotest.test_case "generation" `Quick test_space_generation;
          Alcotest.test_case "of_rules" `Quick test_space_of_rules;
          Alcotest.test_case "safety filter" `Quick test_space_safety_filter;
        ] );
      ( "learning",
        [
          Alcotest.test_case "snow constraint" `Quick test_learn_snow_constraint;
          Alcotest.test_case "learned gpm behaviour" `Quick test_learned_gpm_behaviour;
          Alcotest.test_case "unsat task" `Quick test_unsat_task;
          Alcotest.test_case "noise sacrifice" `Quick test_noise_sacrifice;
          Alcotest.test_case "hard vs soft conflict" `Quick test_hard_conflict_infeasible_vs_soft;
          Alcotest.test_case "general path" `Quick test_learn_general_with_defined_atom;
          Alcotest.test_case "multiple witnesses" `Quick test_multiple_witnesses;
          Alcotest.test_case "witness truncation flag" `Quick test_witness_truncation_flag;
          Alcotest.test_case "truncation in stats" `Quick test_learn_surfaces_truncation;
          Alcotest.test_case "greedy tie-break" `Quick test_greedy_score_compare;
          Alcotest.test_case "accuracy" `Quick test_accuracy;
          Alcotest.test_case "minimality" `Quick test_minimality_prefers_one_general_rule;
        ] );
      ( "witnesses",
        [
          Alcotest.test_case "kill rows = oracle" `Quick test_kill_rows_match_oracle;
          Alcotest.test_case "covered: non-constraint fallback" `Quick
            test_covered_non_constraint_fallback;
          Alcotest.test_case "covered: truncation fallback" `Quick
            test_covered_truncation_fallback;
        ] );
      ( "preference",
        [
          Alcotest.test_case "constant penalty" `Quick test_preference_learns_constant_penalty;
          Alcotest.test_case "variable weight" `Quick test_preference_learns_variable_weight;
          Alcotest.test_case "unsat" `Quick test_preference_unsat;
          Alcotest.test_case "invalid sentence" `Quick test_preference_invalid_sentence_unsat;
          Alcotest.test_case "resupply value function" `Slow test_preference_resupply_value_function;
        ] );
      ( "guidance",
        [
          Alcotest.test_case "rank preserves optimum" `Quick test_guidance_rank_preserves_solution;
          Alcotest.test_case "discriminative first" `Quick test_guidance_ranks_discriminative_first;
          Alcotest.test_case "prune" `Slow test_guidance_prune_keeps_enough;
        ] );
      ("properties", qcheck_cases);
    ]
