(* Tests for the AGENP architecture (Figure 2): refinement, decision
   points, the closed adaptation loop, and coalition policy sharing. *)

let cav_spec : Agenp.Prep.pbms_spec =
  {
    Agenp.Prep.grammar_text =
      {| start -> decision {
           task_req(turn, 2). task_req(straight, 1).
           task_req(overtake, 4). task_req(park, 3).
           needed_loa(R) :- task(T), task_req(T, R).
         }
         decision -> "accept" { result(accept). } | "reject" { result(reject). } |};
    global_constraints = [];
  }

let cav_env : Agenp.Ams.environment =
  {
    Agenp.Ams.options = [ "accept"; "reject" ];
    oracle =
      (fun context opt ->
        (* parse the scenario back from the context program facts *)
        let facts = Asp.Program.facts context in
        let find pred =
          List.find_map
            (fun (a : Asp.Atom.t) ->
              if a.Asp.Atom.pred = pred then
                match a.Asp.Atom.args with
                | [ Asp.Term.Fun (v, []) ] -> Some (`S v)
                | [ Asp.Term.Int v ] -> Some (`I v)
                | _ -> None
              else None)
            facts
        in
        let s = function Some (`S v) -> v | _ -> "" in
        let i = function Some (`I v) -> v | _ -> 0 in
        let scenario =
          {
            Workloads.Cav.task = s (find "task");
            vehicle_loa = i (find "vehicle_loa");
            region_loa = i (find "region_loa");
            weather = s (find "weather");
            time = s (find "time");
          }
        in
        let accept_ok = Workloads.Cav.ground_truth scenario in
        match opt with
        | "accept" -> accept_ok
        | "reject" -> not accept_ok (* rejecting a valid task is a violation *)
        | _ -> false);
    audit_rate = 0.3;
  }

let make_cav_ams ?(seed = 1) ?(name = "cav-1") () =
  let space = Ilp.Hypothesis_space.generate (Workloads.Cav.modes ()) in
  Agenp.Ams.create ~name ~seed ~spec:cav_spec ~space cav_env

let test_prep_refine () =
  let gpm = Agenp.Prep.refine cav_spec in
  Alcotest.(check int) "three productions" 3
    (List.length (Grammar.Cfg.productions (Asg.Gpm.cfg gpm)));
  let spec' =
    { cav_spec with Agenp.Prep.global_constraints = [ ":- result(accept)@1." ] }
  in
  let restricted = Agenp.Prep.refine spec' in
  Alcotest.(check bool) "global constraint applies" false
    (Asg.Membership.accepts restricted "accept")

let test_prep_generate () =
  let gpm = Agenp.Prep.refine cav_spec in
  let repo = Agenp.Repository.create () in
  let context = Asp.Parser.parse_program "task(turn). vehicle_loa(3)." in
  let version, policies = Agenp.Prep.generate_policies gpm ~context repo in
  Alcotest.(check int) "version 1" 1 version;
  Alcotest.(check (list string)) "both decisions initially"
    [ "accept"; "reject" ] (List.sort compare policies);
  Alcotest.(check (list string)) "repo stores them"
    policies (Agenp.Repository.latest_policies repo)

let test_pdp_fallback () =
  let gpm =
    Asg.Asg_parser.parse
      {| start -> decision { :- result(accept)@1. }
         decision -> "accept" { result(accept). } | "reject" { result(reject). } |}
  in
  let d =
    Agenp.Pdp.decide gpm ~context:Asp.Program.empty
      ~options:[ "accept"; "reject" ]
  in
  Alcotest.(check string) "falls to reject" "reject" d.Serve.Decision.chosen;
  Alcotest.(check bool) "not a fallback (reject was valid)" false
    d.Serve.Decision.fallback_used

let test_pdp_fallback_used () =
  let gpm =
    Asg.Asg_parser.parse
      {| start -> decision { :- result(accept)@1. :- result(reject)@1. }
         decision -> "accept" { result(accept). } | "reject" { result(reject). } |}
  in
  let d =
    Agenp.Pdp.decide gpm ~context:Asp.Program.empty
      ~options:[ "accept"; "reject" ]
  in
  Alcotest.(check bool) "fallback flagged" true d.Serve.Decision.fallback_used

let test_context_repo () =
  let repo = Agenp.Context_repo.create () in
  Agenp.Context_repo.update repo (Asp.Parser.parse_program "a.");
  Agenp.Context_repo.update repo (Asp.Parser.parse_program "b.");
  Alcotest.(check bool) "change detected" true (Agenp.Context_repo.changed repo);
  Agenp.Context_repo.update repo (Asp.Parser.parse_program "b.");
  Alcotest.(check bool) "no change" false (Agenp.Context_repo.changed repo)

let test_pip_merge () =
  let pip = Agenp.Pip.create () in
  Agenp.Pip.register pip "satellite" (fun () ->
      Asp.Parser.parse_program "weather(snow).");
  Agenp.Pip.register pip "roadside" (fun () ->
      Asp.Parser.parse_program "congestion(high).");
  let facts = Agenp.Pip.poll_all pip in
  Alcotest.(check int) "both sources merged" 2 (Asp.Program.size facts);
  Alcotest.(check (list string)) "names" [ "satellite"; "roadside" ]
    (Agenp.Pip.source_names pip)

let test_pcp_violations () =
  let gpm = Agenp.Prep.refine cav_spec in
  let validation =
    [
      Ilp.Example.positive_ctx "accept" "task(straight). vehicle_loa(5).";
      Ilp.Example.negative_ctx "accept" "task(overtake). vehicle_loa(1).";
    ]
  in
  (* the unlearned model accepts everything: one violation (the negative) *)
  let vs = Agenp.Pcp.detect_violations gpm validation in
  Alcotest.(check int) "one violation" 1 (List.length vs);
  Alcotest.(check (float 0.001)) "rate" 0.5
    (Agenp.Pcp.violation_rate gpm validation)

let test_pcp_quality () =
  let gpm = Agenp.Prep.refine cav_spec in
  let contexts =
    [
      Asp.Parser.parse_program "task(turn). vehicle_loa(3).";
      Asp.Parser.parse_program "task(park). vehicle_loa(1).";
    ]
  in
  let q =
    Agenp.Pcp.assess gpm ~contexts ~options:[ "accept"; "reject" ]
      ~hypothesis:[] ~task:None
  in
  Alcotest.(check (float 0.001)) "complete" 1.0 q.Agenp.Pcp.completeness;
  Alcotest.(check (float 0.001)) "all options relevant" 1.0 q.Agenp.Pcp.relevance;
  Alcotest.(check bool) "consistent" true q.Agenp.Pcp.consistent

let run_requests ams scenarios =
  List.iter
    (fun s -> ignore (Agenp.Ams.handle_request ams (Workloads.Cav.to_context s)))
    scenarios

let test_ams_closed_loop_improves () =
  let ams = make_cav_ams () in
  let phase1 = Workloads.Cav.sample ~seed:100 40 in
  run_requests ams phase1;
  Alcotest.(check bool) "adaptation happened" true
    (Agenp.Ams.relearn_count ams >= 1);
  (* after adaptation, decisions on fresh scenarios should be near-perfect *)
  let fresh = Workloads.Cav.sample ~seed:200 60 in
  let correct =
    List.length
      (List.filter
         (fun s ->
           let d =
             Agenp.Pdp.decide (Agenp.Ams.gpm ams)
               ~context:(Workloads.Cav.to_context s)
               ~options:[ "accept"; "reject" ]
           in
           (d.Serve.Decision.chosen = "accept") = Workloads.Cav.ground_truth s)
         fresh)
  in
  let acc = float_of_int correct /. 60.0 in
  Alcotest.(check bool) (Printf.sprintf "post-adaptation accuracy %.2f" acc)
    true (acc >= 0.9)

let test_ams_policy_generation () =
  let ams = make_cav_ams () in
  run_requests ams (Workloads.Cav.sample ~seed:100 40);
  (* an overtake request far below the required LOA: the loop has seen
     plenty of LOA violations, so the learned model must exclude accept *)
  let s =
    { Workloads.Cav.task = "overtake"; vehicle_loa = 1; region_loa = 3;
      weather = "clear"; time = "day" }
  in
  ignore (Agenp.Ams.handle_request ams (Workloads.Cav.to_context s));
  let policies = Agenp.Ams.generate_policies ams in
  Alcotest.(check bool) "low-LOA overtake: accept not generated" true
    (not (List.mem "accept" policies) && List.mem "reject" policies)

let test_coalition_sharing_transfers_knowledge () =
  (* member A experiences many requests and learns; member B is fresh.
     After a gossip round B should behave like A without local learning. *)
  let a = make_cav_ams ~seed:1 ~name:"ams-a" () in
  let b = make_cav_ams ~seed:2 ~name:"ams-b" () in
  run_requests a (Workloads.Cav.sample ~seed:100 40);
  Alcotest.(check bool) "A learned" true (Agenp.Ams.hypothesis a <> []);
  Alcotest.(check bool) "B unlearned" true (Agenp.Ams.hypothesis b = []);
  (* give B a little local evidence so the PCP gate has something to check *)
  List.iter
    (fun s ->
      Agenp.Ams.learn_from b ~context:(Workloads.Cav.to_context s) "accept"
        ~valid:(Workloads.Cav.ground_truth s))
    (Workloads.Cav.sample ~seed:300 10);
  let coalition = Agenp.Coalition.create () in
  Agenp.Coalition.add_member coalition a;
  Agenp.Coalition.add_member coalition b;
  let adopted = Agenp.Coalition.gossip_round coalition in
  Alcotest.(check bool) "B adopted rules" true (adopted >= 1);
  let fresh = Workloads.Cav.sample ~seed:400 50 in
  let acc =
    float_of_int
      (List.length
         (List.filter
            (fun s ->
              let d =
                Agenp.Pdp.decide (Agenp.Ams.gpm b)
                  ~context:(Workloads.Cav.to_context s)
                  ~options:[ "accept"; "reject" ]
              in
              (d.Serve.Decision.chosen = "accept") = Workloads.Cav.ground_truth s)
            fresh))
    /. 50.0
  in
  Alcotest.(check bool) (Printf.sprintf "B accuracy after sharing %.2f" acc)
    true (acc >= 0.85)

let test_pcp_rejects_bad_shared_policy () =
  let b = make_cav_ams ~seed:5 ~name:"ams-b" () in
  (* local evidence: accepting straight with loa 5 is valid *)
  List.iter
    (fun s ->
      Agenp.Ams.learn_from b ~context:(Workloads.Cav.to_context s) "accept"
        ~valid:(Workloads.Cav.ground_truth s))
    (List.filter
       (fun s -> Workloads.Cav.ground_truth s)
       (Workloads.Cav.sample ~seed:600 40));
  (* a malicious/broken shared rule forbidding all accepts *)
  let bad =
    Ilp.Hypothesis_space.of_rules [ (":- result(accept)@1.", [ 0 ]) ]
  in
  let a = make_cav_ams ~seed:6 ~name:"ams-a" () in
  Agenp.Ams.install_hypothesis a bad;
  let coalition = Agenp.Coalition.create () in
  Agenp.Coalition.add_member coalition a;
  Agenp.Coalition.add_member coalition b;
  ignore (Agenp.Coalition.gossip_round coalition);
  Alcotest.(check bool) "B rejected the harmful rule" true
    (Agenp.Ams.hypothesis b = [])

let test_context_change_trigger () =
  let ams = make_cav_ams () in
  (* feed a few consistent observations, below the violation threshold *)
  List.iter
    (fun s ->
      Agenp.Ams.learn_from ams ~context:(Workloads.Cav.to_context s) "accept"
        ~valid:(Workloads.Cav.ground_truth s))
    (Workloads.Cav.sample ~seed:900 8);
  Alcotest.(check int) "no adaptation yet" 0 (Agenp.Ams.relearn_count ams);
  Agenp.Ams.signal_context_change ams;
  (* next request triggers relearning despite a clean violation window *)
  let s = List.hd (Workloads.Cav.sample ~seed:901 1) in
  ignore (Agenp.Ams.handle_request ams (Workloads.Cav.to_context s));
  Alcotest.(check int) "context change forced relearn" 1
    (Agenp.Ams.relearn_count ams)

let test_byzantine_gate_comparison () =
  let bad =
    Ilp.Hypothesis_space.of_rules [ (":- result(accept)@1.", [ 0 ]) ]
  in
  let newcomer gate =
    let b = make_cav_ams ~seed:5 ~name:"b" () in
    List.iter
      (fun s ->
        let gt = Workloads.Cav.ground_truth s in
        Agenp.Ams.learn_from b ~context:(Workloads.Cav.to_context s) "accept"
          ~valid:gt)
      (Workloads.Cav.sample ~seed:600 20);
    let coalition = Agenp.Coalition.create () in
    Agenp.Coalition.add_member coalition b;
    Agenp.Coalition.publish_raw coalition ~author:"mallory" bad;
    ignore (Agenp.Coalition.gossip_round ~gate coalition);
    Agenp.Ams.hypothesis b
  in
  Alcotest.(check bool) "pcp rejects the attack" true (newcomer `Pcp = []);
  Alcotest.(check int) "trust-all swallows it" 1
    (List.length (newcomer `Trust_all))

let test_padap_memory_cap () =
  let space = Ilp.Hypothesis_space.generate (Workloads.Cav.modes ()) in
  let config = { (Agenp.Padap.default_config space) with Agenp.Padap.memory = 5 } in
  let padap = Agenp.Padap.create config (Agenp.Prep.refine cav_spec) in
  List.iter
    (fun s ->
      Agenp.Padap.add_example padap
        (Ilp.Example.positive ~context:(Workloads.Cav.to_context s) "accept"))
    (Workloads.Cav.sample ~seed:42 12);
  Alcotest.(check int) "sliding window caps memory" 5
    (List.length (Agenp.Padap.examples padap))

(* The relearn lifecycle event reports the Task.covers accuracies of the
   old and the new model over the retained evidence: from the initial
   model, from a learned model, and from an installed model with a
   non-constraint rule (the coalition-sharing case, which falls back to
   Task.covers). *)
let test_padap_relearn_accuracy () =
  let space = Ilp.Hypothesis_space.generate (Workloads.Cav.modes ()) in
  let padap =
    Agenp.Padap.create (Agenp.Padap.default_config space)
      (Agenp.Prep.refine cav_spec)
  in
  let accuracy gpm =
    let es = Agenp.Padap.examples padap in
    float_of_int (List.length (List.filter (Ilp.Task.covers gpm) es))
    /. float_of_int (List.length es)
  in
  let relearn_checked name =
    let before = accuracy (Agenp.Padap.gpm padap) in
    ignore (Agenp.Padap.relearn padap : [ `Updated | `Unchanged | `Failed ]);
    match Obs.Health.events ~last:1 () with
    | [ ev ] ->
      Alcotest.(check (float 0.0)) (name ^ ": baseline") before ev.ev_baseline;
      Alcotest.(check (float 0.0)) (name ^ ": current")
        (accuracy (Agenp.Padap.gpm padap))
        ev.ev_current
    | _ -> Alcotest.fail "no relearn event"
  in
  let add scenarios =
    List.iter
      (fun (e : Ilp.Example.t) ->
        Agenp.Padap.add_example padap { e with weight = Some 1 })
      (Workloads.Cav.examples_of scenarios)
  in
  add (Workloads.Cav.sample ~seed:11 15);
  relearn_checked "from the initial model";
  add (Workloads.Cav.sample ~seed:12 15);
  relearn_checked "from a learned model";
  Agenp.Padap.install padap
    [
      Ilp.Hypothesis_space.candidate
        (Asg.Annotation.parse_rule_string "needed_loa(5) :- weather(fog).")
        0;
    ];
  relearn_checked "from an installed non-constraint rule"

(* The evidence buffers against the list semantics they replaced: newest
   first, capped at [memory] / [window] (0 keeps nothing), violations
   cleared by a successful relearn. *)
type padap_op = Add of int | Record of bool | Adapt | Signal | Relearn

let prop_padap_buffers_match_lists =
  let gpm0 =
    Asg.Asg_parser.parse
      {| start -> decision
         decision -> "accept" { result(accept). } | "reject" { result(reject). } |}
  in
  let space =
    Ilp.Hypothesis_space.of_rules
      [
        (":- result(accept)@1, weather(snow).", [ 0 ]);
        (":- result(reject)@1, weather(sun).", [ 0 ]);
      ]
  in
  let pool =
    [|
      Ilp.Example.positive_ctx ~weight:1 "accept" "weather(sun).";
      Ilp.Example.negative_ctx ~weight:1 "accept" "weather(snow).";
      Ilp.Example.positive_ctx ~weight:1 "reject" "weather(snow).";
      Ilp.Example.negative_ctx ~weight:1 "reject" "weather(sun).";
    |]
  in
  let rec take n = function
    | x :: l when n > 0 -> x :: take (n - 1) l
    | _ -> []
  in
  let rate = function
    | [] -> 0.0
    | vs ->
      float_of_int (List.length (List.filter Fun.id vs))
      /. float_of_int (List.length vs)
  in
  QCheck2.Test.make ~name:"padap rings = list reference" ~count:100
    QCheck2.Gen.(
      triple (int_bound 4) (int_bound 4)
        (list_size (int_bound 40)
           (frequency
              [
                (4, map (fun i -> Add i) (int_bound 3));
                (4, map (fun v -> Record v) bool);
                (2, return Adapt);
                (1, return Signal);
                (1, return Relearn);
              ])))
    (fun (memory, window, ops) ->
      let config =
        { (Agenp.Padap.default_config space) with Agenp.Padap.memory; window }
      in
      let p = Agenp.Padap.create config gpm0 in
      let examples = ref [] and violations = ref [] and signalled = ref false in
      let relearned = function
        | `Failed -> ()
        | `Updated | `Unchanged -> violations := []
      in
      List.for_all
        (fun op ->
          let trigger_ok =
            match op with
            | Add i ->
              Agenp.Padap.add_example p pool.(i);
              examples := take memory (pool.(i) :: !examples);
              true
            | Record v ->
              Agenp.Padap.record_violation p v;
              violations := take window (v :: !violations);
              true
            | Signal ->
              Agenp.Padap.signal_context_change p;
              signalled := true;
              true
            | Relearn ->
              relearned (Agenp.Padap.relearn p);
              true
            | Adapt -> (
              let expected =
                (List.length !violations >= window
                 && rate !violations >= config.relearn_threshold
                || !signalled)
                && !examples <> []
              in
              match Agenp.Padap.maybe_adapt p with
              | `Not_triggered -> not expected
              | (`Updated | `Unchanged | `Failed) as r ->
                signalled := false;
                relearned r;
                expected)
          in
          trigger_ok
          && List.equal ( == ) (Agenp.Padap.examples p) !examples
          && Agenp.Padap.violation_rate p = rate !violations)
        ops)

(* A relearn that carries the last relearn's evidence learns what a
   fresh learn of its task does: outcome, search nodes, kill cells and
   evidence alike. Random add/relearn sequences over a noisy XACML pool
   (every 5th label flipped, every 7th example hard, so some relearns
   fail); beside them, learns from the PAdaP's store on the same
   examples under another base GPM (same space) or another witness cap,
   which must not use the store. *)
type carry_op = Add_example of int | Relearn_now | Rebased | Recapped

let same_learn (a : Ilp.Learner.outcome option) (b : Ilp.Learner.outcome option)
    =
  let witness (w : Ilp.Learner.witness) =
    (w.ex_idx, w.traces_by_prod, Asp.Solver.model_to_string w.model)
  in
  let evidence (ev : Ilp.Learner.evidence) =
    (ev.truncated, ev.killers, List.map witness ev.witnesses)
  in
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    List.equal ( == ) a.hypothesis b.hypothesis
    && a.cost = b.cost && a.penalty = b.penalty
    && List.equal ( == ) a.sacrificed b.sacrificed
    && a.stats.nodes = b.stats.nodes
    && a.stats.kill_cells = b.stats.kill_cells
    && a.stats.witnesses = b.stats.witnesses
    && a.stats.truncated = b.stats.truncated
    && a.max_witnesses = b.max_witnesses
    && List.map evidence a.evidence = List.map evidence b.evidence
  | Some _, None | None, Some _ -> false

let prop_carried_relearn_matches_fresh ~domains =
  let gpm0 = Workloads.Xacml_logs.gpm () in
  let space =
    Ilp.Hypothesis_space.generate (Workloads.Xacml_logs.modes ())
  in
  let clean =
    Policy.Xacml.examples_of_log (Workloads.Xacml_logs.log ~seed:5 ~n:8 ())
  in
  let pool =
    Array.of_list
      (List.mapi
         (fun i (e : Ilp.Example.t) ->
           let label =
             match (e.label, i mod 5 = 4) with
             | l, false -> l
             | Ilp.Example.Positive, true -> Ilp.Example.Negative
             | Ilp.Example.Negative, true -> Ilp.Example.Positive
           in
           { e with label; weight = (if i mod 7 = 6 then None else Some 1) })
         clean)
  in
  (* a different base GPM over the same space: the clean pool's rules
     installed, so the negatives lose their witnesses *)
  let rebased =
    match
      Ilp.Learner.learn (Ilp.Task.make ~gpm:gpm0 ~space ~examples:clean)
    with
    | Some o when o.hypothesis <> [] ->
      Ilp.Task.apply_hypothesis gpm0 o.hypothesis
    | Some _ | None -> failwith "the clean pool learns no rule"
  in
  let carried_count () =
    Option.fold ~none:0 ~some:Obs.Counter.value
      (Obs.Counter.find "ilp.examples_carried")
  in
  let name =
    (if domains = 1 then "sequential" else "two-domain")
    ^ " padap: carried relearn = fresh learn"
  in
  QCheck2.Test.make ~name ~count:(if domains = 1 then 40 else 15)
    QCheck2.Gen.(
      pair (int_range 1 10)
        (list_size (int_bound 30)
           (frequency
              [
                ( 5,
                  map
                    (fun i -> Add_example i)
                    (int_bound (Array.length pool - 1)) );
                (3, return Relearn_now);
                (1, return Rebased);
                (1, return Recapped);
              ])))
    (fun (memory, ops) ->
      let par = Par.create ~domains () in
      Fun.protect ~finally:(fun () -> Par.shutdown par) @@ fun () ->
      let p =
        Agenp.Padap.create
          { (Agenp.Padap.default_config space) with memory; pool = Some par }
          gpm0
      in
      let retained () = List.rev (Agenp.Padap.examples p) in
      (* the store applies to neither learn: each equals a fresh one *)
      let beside ~gpm ~max_witnesses =
        let t = Ilp.Task.make ~gpm ~space ~examples:(retained ()) in
        let before = carried_count () in
        let o =
          Ilp.Learner.learn_constraints ~pool:par ~max_witnesses
            ?carried:p.carried t
        in
        carried_count () = before
        && same_learn o (Ilp.Learner.learn_constraints ~max_witnesses t)
      in
      List.for_all
        (function
          | Add_example i ->
            Agenp.Padap.add_example p pool.(i);
            true
          | Rebased -> beside ~gpm:rebased ~max_witnesses:64
          | Recapped -> beside ~gpm:gpm0 ~max_witnesses:1
          | Relearn_now -> (
            let store = p.carried in
            let expected =
              match store with
              | None -> 0
              | Some (prev, _) ->
                List.length
                  (List.filter
                     (fun e -> List.memq e prev.Ilp.Task.examples)
                     (retained ()))
            in
            let before = carried_count () in
            let result = Agenp.Padap.relearn p in
            carried_count () - before = expected
            &&
            match (result, p.carried) with
            | `Failed, now -> now == store
            | (`Updated | `Unchanged), Some (t, o) ->
              List.equal ( == ) t.Ilp.Task.examples (retained ())
              && same_learn (Some o) (Ilp.Learner.learn t)
            | (`Updated | `Unchanged), None -> false))
        ops)

let test_repository_representation () =
  let repo = Agenp.Repository.create () in
  Alcotest.(check bool) "no representation yet" true
    (Agenp.Repository.latest_representation repo = None);
  ignore (Agenp.Repository.store_representation repo (Agenp.Prep.refine cav_spec));
  Alcotest.(check int) "one representation" 1
    (Agenp.Repository.representation_count repo);
  Alcotest.(check bool) "latest available" true
    (Agenp.Repository.latest_representation repo <> None)

let test_prep_cleans_operator_grammar () =
  let messy =
    { Agenp.Prep.grammar_text =
        {| start -> decision
           decision -> "accept" { result(accept). } | "reject" { result(reject). }
           orphan -> "zzz" |};
      global_constraints = [] }
  in
  let gpm = Agenp.Prep.refine messy in
  Alcotest.(check int) "orphan production dropped" 3
    (List.length (Grammar.Cfg.productions (Asg.Gpm.cfg gpm)))

let test_repository_versions () =
  let repo = Agenp.Repository.create () in
  ignore (Agenp.Repository.store_policies repo [ "a" ]);
  ignore (Agenp.Repository.store_policies repo [ "b" ]);
  Alcotest.(check int) "two versions" 2 (Agenp.Repository.version_count repo);
  Alcotest.(check (list string)) "latest" [ "b" ]
    (Agenp.Repository.latest_policies repo)

let test_metrics_summary () =
  let ams = make_cav_ams () in
  run_requests ams (Workloads.Cav.sample ~seed:100 30);
  let m = Agenp.Metrics.summarize (Agenp.Ams.pep ams) in
  Alcotest.(check int) "30 requests" 30 m.Agenp.Metrics.requests;
  Alcotest.(check bool) "compliance sane" true
    (m.Agenp.Metrics.compliance >= 0.0 && m.Agenp.Metrics.compliance <= 1.0);
  Alcotest.(check bool) "mix covers decisions" true
    (List.fold_left (fun acc (_, v) -> acc + v) 0 m.Agenp.Metrics.decision_mix
    = 30);
  Alcotest.(check bool) "recent >= overall (loop improves)" true
    (m.Agenp.Metrics.recent_compliance >= m.Agenp.Metrics.compliance -. 0.01)

let test_simulation_improves () =
  let members = [ make_cav_ams ~seed:1 ~name:"sim-a" (); make_cav_ams ~seed:2 ~name:"sim-b" () ] in
  let request_stream name tick i =
    let seed = Hashtbl.hash (name, tick, i) land 0xFFFF in
    Workloads.Cav.to_context (List.hd (Workloads.Cav.sample ~seed 1))
  in
  let config =
    { Agenp.Simulation.ticks = 12; requests_per_tick = 4;
      gossip_every = Some 4; gate = `Pcp }
  in
  let result = Agenp.Simulation.run config members ~request_stream in
  Alcotest.(check int) "12 ticks recorded" 12
    (List.length result.Agenp.Simulation.timeline);
  let early =
    match result.Agenp.Simulation.timeline with
    | t :: _ -> t.Agenp.Simulation.compliance
    | [] -> 0.0
  in
  let late = Agenp.Simulation.recent_compliance result 3 in
  Alcotest.(check bool)
    (Printf.sprintf "compliance improves (%.2f -> %.2f)" early late)
    true
    (late >= early && late >= 0.85);
  Alcotest.(check bool) "someone adapted" true
    (List.exists
       (fun (t : Agenp.Simulation.tick_stats) -> t.Agenp.Simulation.adaptations > 0)
       result.Agenp.Simulation.timeline)

let () =
  Alcotest.run "agenp"
    [
      ( "points",
        [
          Alcotest.test_case "prep refine" `Quick test_prep_refine;
          Alcotest.test_case "prep generate" `Quick test_prep_generate;
          Alcotest.test_case "pdp valid option" `Quick test_pdp_fallback;
          Alcotest.test_case "pdp fallback" `Quick test_pdp_fallback_used;
          Alcotest.test_case "context repo" `Quick test_context_repo;
          Alcotest.test_case "pip merge" `Quick test_pip_merge;
          Alcotest.test_case "pcp violations" `Quick test_pcp_violations;
          Alcotest.test_case "pcp quality" `Quick test_pcp_quality;
          Alcotest.test_case "repository versions" `Quick test_repository_versions;
          Alcotest.test_case "context-change trigger" `Quick test_context_change_trigger;
          Alcotest.test_case "padap memory cap" `Quick test_padap_memory_cap;
          Alcotest.test_case "padap relearn accuracy" `Quick
            test_padap_relearn_accuracy;
          QCheck_alcotest.to_alcotest prop_padap_buffers_match_lists;
          QCheck_alcotest.to_alcotest
            (prop_carried_relearn_matches_fresh ~domains:1);
          QCheck_alcotest.to_alcotest
            (prop_carried_relearn_matches_fresh ~domains:2);
          Alcotest.test_case "repository representation" `Quick test_repository_representation;
          Alcotest.test_case "prep cleans grammar" `Quick test_prep_cleans_operator_grammar;
        ] );
      ( "closed-loop",
        [
          Alcotest.test_case "loop improves" `Slow test_ams_closed_loop_improves;
          Alcotest.test_case "policy generation" `Slow test_ams_policy_generation;
        ] );
      ( "coalition",
        [
          Alcotest.test_case "sharing transfers knowledge" `Slow
            test_coalition_sharing_transfers_knowledge;
          Alcotest.test_case "pcp gates harmful rules" `Slow
            test_pcp_rejects_bad_shared_policy;
          Alcotest.test_case "byzantine gate comparison" `Slow
            test_byzantine_gate_comparison;
          Alcotest.test_case "simulation improves" `Slow test_simulation_improves;
          Alcotest.test_case "metrics summary" `Slow test_metrics_summary;
        ] );
    ]
