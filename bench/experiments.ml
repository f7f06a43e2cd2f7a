(* The experiment harness: one function per DESIGN.md experiment row.
   Each prints the table/series the paper's evaluation implies. *)

let section title =
  Fmt.pr "@.==================================================@.";
  Fmt.pr "%s@." title;
  Fmt.pr "==================================================@."

let hypothesis_lines (l : Ilp.Asg_learning.learned) =
  Ilp.Asg_learning.hypothesis_text l

(* ---- FIG1: the learning workflow (Figure 1) ------------------------- *)

let fig1_workflow ~quick:_ () =
  section "FIG1  Learning workflow: initial ASG + examples -> learned ASG";
  let gpm = Workloads.Cav.gpm () in
  let space = Ilp.Hypothesis_space.generate (Workloads.Cav.modes ()) in
  Fmt.pr "initial grammar: %d productions, hypothesis space: %d rules@."
    (List.length (Grammar.Cfg.productions (Asg.Gpm.cfg gpm)))
    (Ilp.Hypothesis_space.size space);
  let test = Workloads.Cav.all_scenarios () in
  Fmt.pr "%-10s %-10s %-10s %s@." "examples" "rules" "cost" "accuracy(full space)";
  List.iter
    (fun n ->
      let scenarios = Workloads.Cav.sample ~seed:42 n in
      let examples = Workloads.Cav.examples_of scenarios in
      match Ilp.Asg_learning.learn ~gpm ~space ~examples () with
      | None -> Fmt.pr "%-10d (no solution)@." n
      | Some l ->
        Fmt.pr "%-10d %-10d %-10d %.3f@." n
          (List.length l.Ilp.Asg_learning.outcome.Ilp.Learner.hypothesis)
          l.Ilp.Asg_learning.outcome.Ilp.Learner.cost
          (Workloads.Cav.gpm_accuracy l.Ilp.Asg_learning.gpm test))
    [ 4; 8; 16; 32; 64 ];
  (match
     Ilp.Asg_learning.learn ~gpm ~space
       ~examples:(Workloads.Cav.examples_of (Workloads.Cav.sample ~seed:42 64))
       ()
   with
  | Some l ->
    Fmt.pr "final learned GPM:@.";
    List.iter (Fmt.pr "  %s@.") (hypothesis_lines l)
  | None -> ())

(* ---- FIG2: the architecture closed loop (Figure 2) ------------------ *)

let cav_oracle context opt =
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
    { Workloads.Cav.task = s (find "task"); vehicle_loa = i (find "vehicle_loa");
      region_loa = i (find "region_loa"); weather = s (find "weather");
      time = s (find "time") }
  in
  let ok = Workloads.Cav.ground_truth scenario in
  match opt with "accept" -> ok | _ -> not ok

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

let make_cav_ams ~name ~seed () =
  let space = Ilp.Hypothesis_space.generate (Workloads.Cav.modes ()) in
  Agenp.Ams.create ~name ~seed ~spec:cav_spec ~space
    { Agenp.Ams.options = [ "accept"; "reject" ]; oracle = cav_oracle;
      audit_rate = 0.3 }

let fig2_loop ~quick () =
  section "FIG2  Architecture closed loop: decide -> monitor -> adapt -> regenerate";
  let ams = make_cav_ams ~name:"cav" ~seed:1 () in
  let n = if quick then 40 else 80 in
  let window = 10 in
  let correct = ref 0 and seen = ref 0 in
  Fmt.pr "%-10s %-14s %-12s %s@." "requests" "window-compl." "adaptations" "repr-versions";
  List.iteri
    (fun i s ->
      let r = Agenp.Ams.handle_request ams (Workloads.Cav.to_context s) in
      incr seen;
      if Agenp.Pep.compliant r then incr correct;
      if (i + 1) mod window = 0 then begin
        Fmt.pr "%-10d %-14.2f %-12d %d@." (i + 1)
          (float_of_int !correct /. float_of_int !seen)
          (Agenp.Ams.relearn_count ams)
          (Agenp.Repository.representation_count (Agenp.Ams.repository ams));
        correct := 0;
        seen := 0
      end)
    (Workloads.Cav.sample ~seed:100 n);
  Fmt.pr "final learned rules:@.";
  List.iter
    (fun (c : Ilp.Hypothesis_space.candidate) ->
      Fmt.pr "  [pr%d] %s@." c.prod_id (Asg.Annotation.rule_to_string c.rule))
    (Agenp.Ams.hypothesis ams)

(* ---- FIG3a: correctly learned XACML policies ------------------------- *)

let fig3a ~quick () =
  section "FIG3a  Correctly learned XACML policies (clean log)";
  let n = if quick then 40 else 80 in
  let log = Workloads.Xacml_logs.log ~seed:1 ~n () in
  let examples = Policy.Xacml.examples_of_log log in
  let space = Ilp.Hypothesis_space.generate (Workloads.Xacml_logs.modes ()) in
  match Ilp.Asg_learning.learn ~gpm:(Workloads.Xacml_logs.gpm ()) ~space ~examples () with
  | None -> Fmt.pr "no solution@."
  | Some l ->
    let policy, leftovers =
      Policy.Xacml.policy_of_hypothesis ~pid:"learned"
        l.Ilp.Asg_learning.outcome.Ilp.Learner.hypothesis
    in
    Fmt.pr "%a@." Policy.Rule_policy.pp policy;
    List.iter (Fmt.pr "  (asp) %s@.") leftovers;
    Fmt.pr "log entries: %d | full-space accuracy: %.3f@." n
      (Workloads.Xacml_logs.gpm_accuracy l.Ilp.Asg_learning.gpm
         (Workloads.Xacml_logs.request_space ()))

(* ---- FIG3b-1: overfitting vs background knowledge -------------------- *)

let fig3b_overfit ~quick () =
  section "FIG3b-1  Overfitting on small logs; background knowledge (role hierarchy) as mitigation";
  let sizes = if quick then [ 6; 12; 24 ] else [ 6; 12; 24; 48; 96 ] in
  let space_flat = Ilp.Hypothesis_space.generate (Workloads.Xacml_logs.modes ()) in
  let space_h = Ilp.Hypothesis_space.generate (Workloads.Xacml_logs.hierarchy_modes ()) in
  let full = Workloads.Xacml_logs.request_space () in
  Fmt.pr "%-8s %-18s %-18s@." "log-n" "flat-accuracy" "hierarchy-accuracy";
  List.iter
    (fun n ->
      let log = Workloads.Xacml_logs.log ~seed:1 ~n () in
      let examples = Policy.Xacml.examples_of_log log in
      let acc gpm space =
        match Ilp.Asg_learning.learn ~gpm ~space ~examples () with
        | Some l -> Workloads.Xacml_logs.gpm_accuracy l.Ilp.Asg_learning.gpm full
        | None -> nan
      in
      Fmt.pr "%-8d %-18.3f %-18.3f@." n
        (acc (Workloads.Xacml_logs.gpm ()) space_flat)
        (acc (Workloads.Xacml_logs.gpm_with_hierarchy ()) space_h))
    sizes

(* ---- FIG3b-2: unsafe generalization on role-sparse logs -------------- *)

let fig3b_unsafe ~quick:_ () =
  section "FIG3b-2  Unsafe generalization: roles unseen in training get over-permitted";
  let visible_roles = [ "intern"; "admin" ] in
  let hidden_roles = [ "manager"; "developer"; "auditor" ] in
  let log = Workloads.Xacml_logs.sparse_log ~seed:2 ~n:40 ~visible_roles () in
  let examples = Policy.Xacml.examples_of_log log in
  let hidden_requests =
    List.filter
      (fun r ->
        match Policy.Request.find (Policy.Attribute.subject "role") r with
        | Some (Policy.Attribute.Str role) -> List.mem role hidden_roles
        | _ -> false)
      (Workloads.Xacml_logs.request_space ())
  in
  let false_permit_rate gpm =
    let bad =
      List.filter
        (fun r ->
          Policy.Xacml.decide gpm r = Policy.Decision.Permit
          && Workloads.Xacml_logs.ground_truth_decision r = Policy.Decision.Deny)
        hidden_requests
    in
    float_of_int (List.length bad) /. float_of_int (List.length hidden_requests)
  in
  let run label gpm modes =
    let space = Ilp.Hypothesis_space.generate modes in
    match Ilp.Asg_learning.learn ~gpm ~space ~examples () with
    | Some l ->
      Fmt.pr "%-28s false-permit rate on unseen roles: %.3f@." label
        (false_permit_rate l.Ilp.Asg_learning.gpm)
    | None -> Fmt.pr "%-28s no solution@." label
  in
  Fmt.pr "training roles: %s | hidden roles: %s (%d requests)@."
    (String.concat "," visible_roles)
    (String.concat "," hidden_roles)
    (List.length hidden_requests);
  run "role-enumerating (unsafe)" (Workloads.Xacml_logs.gpm ())
    (Workloads.Xacml_logs.modes ());
  run "seniority-restricted (safe)" (Workloads.Xacml_logs.gpm_with_hierarchy ())
    (Workloads.Xacml_logs.hierarchy_modes ())

(* ---- FIG3b-3: noisy logs and filtering -------------------------------- *)

let fig3b_noise ~quick () =
  section "FIG3b-3  Noisy logs: irrelevant responses misread as denials; filtering as mitigation";
  let n = if quick then 40 else 80 in
  let full = Workloads.Xacml_logs.request_space () in
  Fmt.pr "%-12s %-12s %-16s %-16s@." "irrelevant%" "flip%" "unfiltered-acc" "filtered-acc";
  List.iter
    (fun (irrelevant, flip) ->
      let log = Workloads.Xacml_logs.noisy_log ~seed:5 ~n ~flip ~irrelevant () in
      let acc keep =
        let examples =
          Policy.Xacml.examples_of_log ~keep_irrelevant:keep ~weight:3 log
        in
        let space = Ilp.Hypothesis_space.generate (Workloads.Xacml_logs.modes ()) in
        match
          Ilp.Asg_learning.learn ~gpm:(Workloads.Xacml_logs.gpm ()) ~space
            ~examples ()
        with
        | Some l -> Workloads.Xacml_logs.gpm_accuracy l.Ilp.Asg_learning.gpm full
        | None -> nan
      in
      Fmt.pr "%-12.0f %-12.0f %-16.3f %-16.3f@." (100. *. irrelevant)
        (100. *. flip) (acc true) (acc false))
    [ (0.1, 0.0); (0.2, 0.0); (0.2, 0.05) ]

(* ---- CAV: symbolic learner vs shallow ML ------------------------------ *)

let cav_curve ~quick () =
  section "CAV  Learning curves: ASG-based GPM vs shallow ML (Section IV-A claim)";
  let sizes = if quick then [ 5; 10; 20; 40 ] else [ 5; 10; 20; 40; 80; 160 ] in
  let train = Workloads.Cav.sample ~seed:42 (List.fold_left max 0 sizes) in
  let test = Workloads.Cav.sample ~seed:7 300 in
  let test_ds = Workloads.Cav.to_dataset test in
  let space = Ilp.Hypothesis_space.generate (Workloads.Cav.modes ()) in
  let classifiers =
    [ Ml.Eval.decision_tree; Ml.Eval.naive_bayes; Ml.Eval.knn ~k:3 ();
      Ml.Eval.majority_class ]
  in
  Fmt.pr "%-8s %-10s" "n" "asg-gpm";
  List.iter (fun c -> Fmt.pr " %-14s" c.Ml.Eval.name) classifiers;
  Fmt.pr "@.";
  List.iter
    (fun n ->
      let sub = List.filteri (fun i _ -> i < n) train in
      let asg_acc =
        match
          Ilp.Asg_learning.learn ~gpm:(Workloads.Cav.gpm ()) ~space
            ~examples:(Workloads.Cav.examples_of sub) ()
        with
        | Some l -> Workloads.Cav.gpm_accuracy l.Ilp.Asg_learning.gpm test
        | None -> nan
      in
      Fmt.pr "%-8d %-10.3f" n asg_acc;
      let train_ds = Workloads.Cav.to_dataset sub in
      List.iter
        (fun c ->
          let predict = c.Ml.Eval.train train_ds in
          Fmt.pr " %-14.3f" (Ml.Eval.accuracy predict test_ds))
        classifiers;
      Fmt.pr "@.")
    sizes

(* ---- RESUP: mission-over-mission improvement -------------------------- *)

let resupply ~quick () =
  section "RESUP  Resupply: accuracy over missions; risk-appetite shift at mission 15";
  let n = if quick then 20 else 30 in
  let space = Ilp.Hypothesis_space.generate (Workloads.Resupply.modes ()) in
  let campaign = Workloads.Resupply.campaign ~seed:21 ~n ~shift_at:15 () in
  let test = Workloads.Resupply.campaign ~seed:99 ~n:40 ~shift_at:20 () in
  Fmt.pr "%-10s %-10s %-10s@." "missions" "examples" "accuracy";
  let seen = ref [] in
  List.iteri
    (fun i m ->
      seen := !seen @ [ m ];
      if (i + 1) mod 5 = 0 then begin
        let examples =
          List.concat_map Workloads.Resupply.examples_of_mission !seen
        in
        match
          Ilp.Asg_learning.learn ~gpm:(Workloads.Resupply.gpm ()) ~space
            ~examples ()
        with
        | Some l ->
          Fmt.pr "%-10d %-10d %-10.3f@." (i + 1) (List.length examples)
            (Workloads.Resupply.gpm_accuracy l.Ilp.Asg_learning.gpm test)
        | None -> Fmt.pr "%-10d %-10d (no solution)@." (i + 1) (List.length examples)
      end)
    campaign

(* ---- CONVOY: structured policy strings with structural counting -------- *)

let convoy ~quick () =
  section "CONVOY  Convoy composition: learned ratio constraints on structured policies";
  let space = Ilp.Hypothesis_space.generate (Workloads.Convoy.modes ()) in
  Fmt.pr "space: %d candidates@." (Ilp.Hypothesis_space.size space);
  let sizes = if quick then [ 20; 40 ] else [ 20; 40; 80; 160 ] in
  let test = Workloads.Convoy.all_situations () in
  Fmt.pr "%-10s %-10s %-10s@." "examples" "rules" "accuracy";
  let last = ref None in
  List.iter
    (fun n ->
      let train = Workloads.Convoy.sample ~seed:11 n in
      let examples = Workloads.Convoy.examples_of train in
      match
        Ilp.Asg_learning.learn ~gpm:(Workloads.Convoy.gpm ()) ~space ~examples ()
      with
      | None -> Fmt.pr "%-10d (no solution)@." n
      | Some l ->
        last := Some l;
        Fmt.pr "%-10d %-10d %-10.3f@." n
          (List.length l.Ilp.Asg_learning.outcome.Ilp.Learner.hypothesis)
          (Workloads.Convoy.gpm_accuracy l.Ilp.Asg_learning.gpm test))
    sizes;
  match !last with
  | None -> ()
  | Some l ->
    Fmt.pr "learned composition policy:@.";
    List.iter (Fmt.pr "  %s@.") (Ilp.Asg_learning.hypothesis_text l);
    Fmt.pr "deployable at threat 3 (first 5): %a@."
      Fmt.(list ~sep:(any " | ") string)
      (List.filteri (fun i _ -> i < 5)
         (Workloads.Convoy.deployable ~max_depth:6 l.Ilp.Asg_learning.gpm
            ~threat:3))

(* ---- SHARE: coalition policy sharing ---------------------------------- *)

let sharing ~quick () =
  section "SHARE  Coalition sharing: accuracy of a fresh member before/after gossip";
  let ks = if quick then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ] in
  let fresh_eval ams scenarios =
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
           scenarios)
    in
    float_of_int correct /. float_of_int (List.length scenarios)
  in
  let test = Workloads.Cav.sample ~seed:400 100 in
  Fmt.pr "%-10s %-16s %-16s %-10s@." "members" "newcomer-before" "newcomer-after" "adopted";
  List.iter
    (fun k ->
      let coalition = Agenp.Coalition.create () in
      (* k experienced members, each having seen 30 requests *)
      List.iter
        (fun j ->
          let ams = make_cav_ams ~name:(Printf.sprintf "m%d" j) ~seed:j () in
          List.iter
            (fun s ->
              ignore (Agenp.Ams.handle_request ams (Workloads.Cav.to_context s)))
            (Workloads.Cav.sample ~seed:(100 + j) 30);
          (* consolidate: make sure each member publishes a learned model *)
          ignore (Agenp.Ams.relearn ams);
          Agenp.Coalition.add_member coalition ams)
        (List.init k Fun.id);
      let newcomer = make_cav_ams ~name:"newcomer" ~seed:77 () in
      (* the newcomer's own evidence: a short audited burn-in covering both
         decisions, used by its PCP to vet shared rules *)
      List.iter
        (fun s ->
          let gt = Workloads.Cav.ground_truth s in
          Agenp.Ams.learn_from newcomer ~context:(Workloads.Cav.to_context s)
            "accept" ~valid:gt;
          Agenp.Ams.learn_from newcomer ~context:(Workloads.Cav.to_context s)
            "reject" ~valid:(not gt))
        (Workloads.Cav.sample ~seed:300 15);
      Agenp.Coalition.add_member coalition newcomer;
      let before = fresh_eval newcomer test in
      let adopted = Agenp.Coalition.gossip_round coalition in
      let after = fresh_eval newcomer test in
      Fmt.pr "%-10d %-16.3f %-16.3f %-10d@." k before after adopted)
    ks

(* ---- BYZ: Byzantine members and the PCP gate --------------------------- *)

let byzantine ~quick () =
  section "BYZ  Byzantine sharing: PCP validation vs naive trust under malicious members";
  let bad_rules =
    Ilp.Hypothesis_space.of_rules
      [ (":- result(accept)@1.", [ 0 ]); (":- result(reject)@1.", [ 0 ]) ]
  in
  let test = Workloads.Cav.sample ~seed:400 100 in
  let accuracy ams =
    float_of_int
      (List.length
         (List.filter
            (fun s ->
              let d =
                Agenp.Pdp.decide (Agenp.Ams.gpm ams)
                  ~context:(Workloads.Cav.to_context s)
                  ~options:[ "accept"; "reject" ]
              in
              (d.Serve.Decision.chosen = "accept") = Workloads.Cav.ground_truth s)
            test))
    /. 100.0
  in
  let run gate malicious =
    let coalition = Agenp.Coalition.create () in
    (* two honest members with learned models *)
    List.iter
      (fun j ->
        let ams = make_cav_ams ~name:(Printf.sprintf "honest%d" j) ~seed:j () in
        List.iter
          (fun s ->
            ignore (Agenp.Ams.handle_request ams (Workloads.Cav.to_context s)))
          (Workloads.Cav.sample ~seed:(100 + j) 30);
        ignore (Agenp.Ams.relearn ams);
        Agenp.Coalition.add_member coalition ams)
      [ 0; 1 ];
    (* malicious members publish harmful rules *)
    List.iter
      (fun j ->
        Agenp.Coalition.publish_raw coalition
          ~author:(Printf.sprintf "malicious%d" j)
          bad_rules)
      (List.init malicious Fun.id);
    let newcomer = make_cav_ams ~name:"newcomer" ~seed:77 () in
    List.iter
      (fun s ->
        let gt = Workloads.Cav.ground_truth s in
        Agenp.Ams.learn_from newcomer ~context:(Workloads.Cav.to_context s)
          "accept" ~valid:gt;
        Agenp.Ams.learn_from newcomer ~context:(Workloads.Cav.to_context s)
          "reject" ~valid:(not gt))
      (Workloads.Cav.sample ~seed:300 15);
    Agenp.Coalition.add_member coalition newcomer;
    ignore (Agenp.Coalition.gossip_round ?gate:(Some gate) coalition);
    accuracy newcomer
  in
  let ms = if quick then [ 0; 2 ] else [ 0; 1; 2; 4 ] in
  Fmt.pr "%-12s %-18s %-18s@." "malicious" "pcp-gate" "trust-all";
  List.iter
    (fun m -> Fmt.pr "%-12d %-18.3f %-18.3f@." m (run `Pcp m) (run `Trust_all m))
    ms

(* ---- QUAL: policy quality metrics -------------------------------------- *)

let quality ~quick:_ () =
  section "QUAL  Quality metrics (Section V-A): learned vs degraded policy sets";
  let space = Workloads.Xacml_logs.request_space () in
  let log = Workloads.Xacml_logs.log ~seed:1 ~n:80 () in
  let examples = Policy.Xacml.examples_of_log log in
  let hspace = Ilp.Hypothesis_space.generate (Workloads.Xacml_logs.modes ()) in
  (match
     Ilp.Asg_learning.learn ~gpm:(Workloads.Xacml_logs.gpm ()) ~space:hspace
       ~examples ()
   with
  | None -> Fmt.pr "learning failed@."
  | Some l ->
    let learned_policy, _ =
      Policy.Xacml.policy_of_hypothesis ~pid:"learned"
        l.Ilp.Asg_learning.outcome.Ilp.Learner.hypothesis
    in
    (* complete the rendered policy with the default-permit the GPM implies *)
    let completed =
      {
        learned_policy with
        Policy.Rule_policy.rules =
          learned_policy.Policy.Rule_policy.rules
          @ [ Policy.Rule_policy.rule ~effect:Policy.Rule_policy.Permit "default" ];
      }
    in
    let show label p =
      Fmt.pr "%-22s %a@." label Policy.Quality.pp (Policy.Quality.assess p space)
    in
    show "ground truth" (Workloads.Xacml_logs.ground_truth_policy ());
    show "learned (+default)" completed;
    (* degraded variants *)
    let with_redundant =
      { completed with
        Policy.Rule_policy.rules =
          completed.Policy.Rule_policy.rules
          @ [ Policy.Rule_policy.rule ~effect:Policy.Rule_policy.Permit "dup-default" ] }
    in
    show "+redundant rule" with_redundant;
    let without_default = learned_policy in
    show "-default (incomplete)" without_default;
    let conflicting =
      { completed with
        Policy.Rule_policy.rules =
          Policy.Rule_policy.rule ~effect:Policy.Rule_policy.Permit
            ~condition:
              (Policy.Expr.Equals
                 (Policy.Attribute.action "id", Policy.Attribute.Str "delete"))
            "rogue-permit-delete"
          :: completed.Policy.Rule_policy.rules }
    in
    show "+conflicting rule" conflicting);
  (* hypothesis-level minimality via the PCP *)
  Fmt.pr "(minimality of learned hypotheses is asserted by the PCP; see tests)@."

(* ---- EXPL: explainability ---------------------------------------------- *)

let explain ~quick () =
  section "EXPL  Explainability: why-not and counterfactual coverage on rejections";
  let space = Ilp.Hypothesis_space.generate (Workloads.Cav.modes ()) in
  let train = Workloads.Cav.sample ~seed:42 60 in
  match
    Ilp.Asg_learning.learn ~gpm:(Workloads.Cav.gpm ()) ~space
      ~examples:(Workloads.Cav.examples_of train) ()
  with
  | None -> Fmt.pr "learning failed@."
  | Some l ->
    let g = l.Ilp.Asg_learning.gpm in
    let n = if quick then 60 else 150 in
    let rejected =
      List.filter
        (fun s -> not (Workloads.Cav.decide g s))
        (Workloads.Cav.sample ~seed:500 n)
    in
    let explained = ref 0 and counterfactuals = ref 0 in
    let example_shown = ref false in
    List.iter
      (fun s ->
        let ctx = Workloads.Cav.to_context s in
        (match Explain.Why.why_not g ~context:ctx "accept" with
        | Explain.Why.Blocked (b :: _ as bs) ->
          incr explained;
          if not !example_shown then begin
            example_shown := true;
            Fmt.pr "sample rejection (%s, loa %d, %s, %s):@."
              s.Workloads.Cav.task s.Workloads.Cav.vehicle_loa
              s.Workloads.Cav.weather s.Workloads.Cav.time;
            List.iter (fun b -> Fmt.pr "  why-not: %a@." Explain.Why.pp_blocker b) bs;
            ignore b
          end
        | _ -> ());
        let alternatives (a : Asp.Atom.t) =
          match a.Asp.Atom.pred with
          | "weather" ->
            List.filter_map
              (fun w ->
                let alt = Asp.Atom.make "weather" [ Asp.Term.const w ] in
                if Asp.Atom.equal alt a then None else Some alt)
              Workloads.Cav.weathers
          | "vehicle_loa" ->
            List.filter_map
              (fun v ->
                let alt = Asp.Atom.make "vehicle_loa" [ Asp.Term.int v ] in
                if Asp.Atom.equal alt a then None else Some alt)
              [ 1; 2; 3; 4; 5 ]
          | _ -> []
        in
        match
          Explain.Counterfactual.find ~alternatives g
            ~facts:(Asp.Program.facts ctx) "accept"
        with
        | Some changes ->
          incr counterfactuals;
          if !counterfactuals = 1 then
            Fmt.pr "  counterfactual: %s@."
              (Explain.Counterfactual.to_sentence "accept" changes)
        | None -> ())
      rejected;
    Fmt.pr "rejections: %d | why-not explained: %d | counterfactual found: %d@."
      (List.length rejected) !explained !counterfactuals

(* ---- DSHARE / FED: the remaining application scenarios ---------------- *)

let datashare ~quick () =
  section "DSHARE  Data sharing: learned helper-service selection (Section IV-D)";
  let space = Ilp.Hypothesis_space.generate (Workloads.Data_sharing.modes ()) in
  let sizes = if quick then [ 10; 20; 40 ] else [ 10; 20; 40; 80 ] in
  let test = Workloads.Data_sharing.sample ~seed:9 200 in
  Fmt.pr "%-8s %-10s %-10s@." "items" "rules" "accuracy";
  List.iter
    (fun n ->
      let items = Workloads.Data_sharing.sample ~seed:8 n in
      match
        Ilp.Asg_learning.learn ~gpm:(Workloads.Data_sharing.gpm ()) ~space
          ~examples:(Workloads.Data_sharing.examples_of items) ()
      with
      | Some l ->
        Fmt.pr "%-8d %-10d %-10.3f@." n
          (List.length l.Ilp.Asg_learning.outcome.Ilp.Learner.hypothesis)
          (Workloads.Data_sharing.gpm_accuracy l.Ilp.Asg_learning.gpm test)
      | None -> Fmt.pr "%-8d (no solution)@." n)
    sizes

let federated ~quick () =
  section "FED  Federated learning: model-incorporation policies (Section IV-E)";
  let space = Ilp.Hypothesis_space.generate (Workloads.Federated.modes ()) in
  let sizes = if quick then [ 10; 20; 40 ] else [ 10; 20; 40; 80 ] in
  let test = Workloads.Federated.sample ~seed:14 200 in
  Fmt.pr "%-8s %-10s %-10s@." "offers" "rules" "accuracy";
  List.iter
    (fun n ->
      let offers = Workloads.Federated.sample ~seed:13 n in
      match
        Ilp.Asg_learning.learn ~gpm:(Workloads.Federated.gpm ()) ~space
          ~examples:(Workloads.Federated.examples_of offers) ()
      with
      | Some l ->
        Fmt.pr "%-8d %-10d %-10.3f@." n
          (List.length l.Ilp.Asg_learning.outcome.Ilp.Learner.hypothesis)
          (Workloads.Federated.gpm_accuracy l.Ilp.Asg_learning.gpm test)
      | None -> Fmt.pr "%-8d (no solution)@." n)
    sizes

(* ---- UTIL: utility-based policies (paper's type-iii taxonomy) --------- *)

let utility ~quick () =
  section "UTIL  Utility-based policies: weak-constraint route selection (Section I taxonomy, type iii)";
  let space = Ilp.Hypothesis_space.generate (Workloads.Resupply.modes ()) in
  let n = if quick then 15 else 25 in
  let missions = Workloads.Resupply.campaign ~seed:21 ~n () in
  let examples =
    List.concat_map Workloads.Resupply.examples_of_mission missions
  in
  match
    Ilp.Asg_learning.learn ~gpm:(Workloads.Resupply.gpm ()) ~space ~examples ()
  with
  | None -> Fmt.pr "learning failed@."
  | Some l ->
    (* transplant learned validity constraints onto the utility GPM *)
    let util_gpm =
      Ilp.Task.apply_hypothesis
        (Workloads.Resupply.utility_gpm ())
        l.Ilp.Asg_learning.outcome.Ilp.Learner.hypothesis
    in
    let plain_gpm = l.Ilp.Asg_learning.gpm in
    let test = Workloads.Resupply.campaign ~seed:99 ~n:40 ~shift_at:20 () in
    let first_valid g m =
      match Workloads.Resupply.options g m with r :: _ -> Some r | [] -> None
    in
    let optimality pick =
      float_of_int
        (List.length
           (List.filter
              (fun m ->
                match (pick m, Workloads.Resupply.best_route_oracle m) with
                | None, None -> true
                | Some r, Some best ->
                  Workloads.Resupply.route_valid m r
                  && Workloads.Resupply.route_cost m r
                     = Workloads.Resupply.route_cost m best
                | _ -> false)
              test))
      /. float_of_int (List.length test)
    in
    Fmt.pr "%-34s %-10s@." "selection policy" "optimal-rate";
    Fmt.pr "%-34s %-10.3f@." "any valid route (constraints only)"
      (optimality (first_valid plain_gpm));
    Fmt.pr "%-34s %-10.3f@." "min-cost valid route (weak constr.)"
      (optimality (fun m -> Workloads.Resupply.best_route util_gpm m));
    let m = List.hd test in
    Fmt.pr "sample mission (N=%d S=%d R=%d, %s, %s): ranked %a@."
      m.Workloads.Resupply.threat_north m.Workloads.Resupply.threat_south
      m.Workloads.Resupply.threat_river m.Workloads.Resupply.weather
      m.Workloads.Resupply.time
      Fmt.(
        list ~sep:(any ", ") (fun ppf (s, c) -> Fmt.pf ppf "%s[%d]" s c))
      (Asg.Language.ranked_sentences_in_context ~max_depth:4 util_gpm
         ~context:(Workloads.Resupply.to_context m))

(* ---- PREF: learning value functions from ordering examples ------------- *)

let preference ~quick () =
  section "PREF  Preference learning: value functions from ordering examples";
  let modes =
    Ilp.Mode.make ~target_prods:[ 0 ]
      ~heads:
        [ Ilp.Mode.WeakHead (Ilp.Mode.VarOperand "t");
          Ilp.Mode.WeakHead (Ilp.Mode.IntOperand 1);
          Ilp.Mode.WeakHead (Ilp.Mode.IntOperand 2) ]
      ~bodies:
        [ Ilp.Mode.matom ~required:true ~site:(Some 1) "chosen"
            [ Ilp.Mode.Variable "rt" ];
          Ilp.Mode.matom ~required:true ~site:(Some 1) "chosen"
            [ Ilp.Mode.Constants Workloads.Resupply.routes ];
          Ilp.Mode.matom "threat" [ Ilp.Mode.Variable "rt"; Ilp.Mode.Variable "t" ];
          Ilp.Mode.matom "weather" [ Ilp.Mode.Constants Workloads.Resupply.weathers ];
          Ilp.Mode.matom "time" [ Ilp.Mode.Constants Workloads.Resupply.times ] ]
      ~max_body:2 ()
  in
  let space = Ilp.Hypothesis_space.generate modes in
  Fmt.pr "weak-constraint space: %d candidates@." (Ilp.Hypothesis_space.size space);
  let sizes = if quick then [ 6; 12 ] else [ 6; 12; 24; 48 ] in
  let test = Workloads.Resupply.campaign ~seed:99 ~n:40 ~shift_at:20 () in
  (* validity constraints learned separately, as in UTIL *)
  let validity =
    let vspace = Ilp.Hypothesis_space.generate (Workloads.Resupply.modes ()) in
    let missions = Workloads.Resupply.campaign ~seed:21 ~n:25 () in
    let examples =
      List.concat_map Workloads.Resupply.examples_of_mission missions
    in
    match
      Ilp.Asg_learning.learn ~gpm:(Workloads.Resupply.gpm ()) ~space:vspace
        ~examples ()
    with
    | Some l -> l.Ilp.Asg_learning.outcome.Ilp.Learner.hypothesis
    | None -> []
  in
  Fmt.pr "%-10s %-12s %-12s %-14s@." "missions" "orderings" "weak-rules" "optimal-rate";
  List.iter
    (fun n ->
      let missions = Workloads.Resupply.campaign ~seed:5 ~n () in
      let orderings =
        List.concat_map
          (fun m ->
            let ctx = Workloads.Resupply.to_context m in
            let valid =
              List.filter (Workloads.Resupply.route_valid m)
                Workloads.Resupply.routes
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
      | None -> Fmt.pr "%-10d %-12d (no hypothesis)@." n (List.length orderings)
      | Some o ->
        (* combine learned validity + learned preferences *)
        let full_gpm =
          Ilp.Task.apply_hypothesis
            (Ilp.Task.apply_hypothesis (Workloads.Resupply.gpm ()) validity)
            o.Ilp.Preference.hypothesis
        in
        Fmt.pr "%-10d %-12d %-12d %-14.3f@." n (List.length orderings)
          (List.length o.Ilp.Preference.hypothesis)
          (Workloads.Resupply.utility_accuracy full_gpm test))
    sizes

(* ---- PERF: scalability of the solver and learner ----------------------- *)

let median_time f =
  let runs =
    List.init 3 (fun _ ->
        let t0 = Sys.time () in
        ignore (f ());
        Sys.time () -. t0)
  in
  match List.sort compare runs with _ :: m :: _ -> m | [ m ] -> m | [] -> 0.0

let perf ~quick () =
  section "PERF  Scalability (Section III-B performance-optimization direction)";
  (* solver: graph coloring of growing cycles *)
  Fmt.pr "-- stable-model solving: 3-coloring an n-cycle (all models)@.";
  Fmt.pr "%-8s %-12s %-12s %-10s@." "n" "atoms" "rules" "seconds";
  let ns = if quick then [ 4; 6; 8 ] else [ 4; 6; 8; 10; 12 ] in
  List.iter
    (fun n ->
      let edges =
        String.concat " "
          (List.init n (fun i ->
               Printf.sprintf "edge(%d, %d)." i ((i + 1) mod n)))
      in
      let prog =
        Asp.Parser.parse_program
          (Printf.sprintf
             "node(0..%d). %s col(r). col(g). col(b). 1 { color(N, C) : col(C) \
              } 1 :- node(N). :- edge(X, Y), color(X, C), color(Y, C)."
             (n - 1) edges)
      in
      let gp = Asp.Grounder.ground prog in
      let t = median_time (fun () -> Asp.Solver.solve_ground gp) in
      Fmt.pr "%-8d %-12d %-12d %-10.4f@." n (Asp.Grounder.atom_count gp)
        (Asp.Grounder.size gp) t)
    ns;
  (* ablation: well-founded narrowing on/off, over programs mixing
     positive loops (unfounded sets) and even negative loops. A negative
     result is expected and honest: the DPLL's own propagation with
     false-first branching subsumes the narrowing at these scales. *)
  Fmt.pr "-- ablation: well-founded narrowing in the solver (mixed loops)@.";
  Fmt.pr "%-8s %-14s %-14s@." "k" "WF-on (s)" "WF-off (s)";
  List.iter
    (fun k ->
      let loops =
        String.concat " "
          (List.init k (fun i ->
               Printf.sprintf
                 "a%d :- b%d. b%d :- a%d. p%d :- not q%d. q%d :- not p%d. :-                   q%d, a%d."
                 i i i i i i i i i i))
      in
      let gp = Asp.Grounder.ground (Asp.Parser.parse_program loops) in
      let t_on = median_time (fun () -> Asp.Solver.solve_ground ~limit:1 gp) in
      let t_off =
        median_time (fun () ->
            Asp.Solver.solve_ground ~wellfounded:false ~limit:1 gp)
      in
      Fmt.pr "%-8d %-14.5f %-14.5f@." k t_on t_off)
    (if quick then [ 20; 50 ] else [ 20; 50; 100 ]);
  (* learner: time vs hypothesis-space size *)
  Fmt.pr "-- learning: time vs hypothesis-space size (CAV, 40 scenarios)@.";
  Fmt.pr "%-12s %-10s %-10s@." "space-size" "seconds" "cost";
  let examples = Workloads.Cav.examples_of (Workloads.Cav.sample ~seed:42 40) in
  List.iter
    (fun max_body ->
      let space =
        Ilp.Hypothesis_space.generate (Workloads.Cav.modes ~max_body ())
      in
      let task = Ilp.Task.make ~gpm:(Workloads.Cav.gpm ()) ~space ~examples in
      let t0 = Sys.time () in
      let cost =
        match Ilp.Learner.learn task with
        | Some o -> string_of_int o.Ilp.Learner.cost
        | None -> "unsat (space too small)"
      in
      Fmt.pr "%-12d %-10.3f %-10s@."
        (Ilp.Hypothesis_space.size space)
        (Sys.time () -. t0) cost)
    (if quick then [ 2; 3 ] else [ 2; 3; 4 ]);
  (* ablation: set-cover engine vs general subset search *)
  Fmt.pr "-- ablation: set-cover engine vs general subset search (same task)@.";
  let space =
    Ilp.Hypothesis_space.generate
      (Workloads.Cav.modes ~max_body:2 ())
  in
  let small_examples =
    Workloads.Cav.examples_of (Workloads.Cav.sample ~seed:42 12)
  in
  let task = Ilp.Task.make ~gpm:(Workloads.Cav.gpm ()) ~space ~examples:small_examples in
  let t_fast = median_time (fun () -> Ilp.Learner.learn_constraints task) in
  let t_gen = median_time (fun () -> Ilp.Learner.learn_general task) in
  Fmt.pr "%-24s %.4fs@." "set-cover (default)" t_fast;
  Fmt.pr "%-24s %.4fs (%.0fx)@." "general subset search" t_gen
    (t_gen /. (t_fast +. 1e-9));
  (* statistical guidance (Section V-C): prune the space before searching *)
  Fmt.pr "-- statistical guidance: pruned hypothesis spaces (Section V-C)@.";
  Fmt.pr "%-16s %-12s %-10s %-10s@." "space" "candidates" "seconds" "cost";
  let space = Ilp.Hypothesis_space.generate (Workloads.Cav.modes ()) in
  let guided_examples =
    Workloads.Cav.examples_of (Workloads.Cav.sample ~seed:42 40)
  in
  let base_task =
    Ilp.Task.make ~gpm:(Workloads.Cav.gpm ()) ~space ~examples:guided_examples
  in
  List.iter
    (fun (label, task) ->
      let t0 = Sys.time () in
      let cost =
        match Ilp.Learner.learn task with
        | Some o -> string_of_int o.Ilp.Learner.cost
        | None -> "unsat"
      in
      Fmt.pr "%-16s %-12d %-10.3f %-10s@." label
        (Ilp.Hypothesis_space.size task.Ilp.Task.space)
        (Sys.time () -. t0) cost)
    [
      ("full", base_task);
      ("ranked", Ilp.Guidance.rank base_task);
      ("pruned 50%", Ilp.Guidance.prune ~fraction:0.5 base_task);
      ("pruned 25%", Ilp.Guidance.prune ~fraction:0.25 base_task);
      ("pruned 10%", Ilp.Guidance.prune ~fraction:0.10 base_task);
    ];
  (* ablation: membership checking with and without well-founded narrowing *)
  Fmt.pr "-- membership check cost (CAV decision, learned model)@.";
  let g =
    match
      Ilp.Asg_learning.learn ~gpm:(Workloads.Cav.gpm ()) ~space ~examples:small_examples ()
    with
    | Some l -> l.Ilp.Asg_learning.gpm
    | None -> Workloads.Cav.gpm ()
  in
  let s = List.hd (Workloads.Cav.sample ~seed:3 1) in
  let t =
    median_time (fun () ->
        Asg.Membership.accepts_in_context g
          ~context:(Workloads.Cav.to_context s) "accept")
  in
  Fmt.pr "%-24s %.5fs per decision@." "accepts_in_context" t

(* ---- PAR: parallel learner scaling over domains ---------------------- *)

(** Wall-clock of the full constraint learner at 1/2/4 domains on one
    task, with an outcome-identity check across all degrees, persisted
    as BENCH_par.json (schema bench-par/1). The full run sizes the task
    to last over a second at one domain, so the fan-outs have work to
    split, and reports the median of 5 rounds whose degree order
    alternates. On a single-core container the domains timeshare, so
    the honest expectation there is ~1.0x (or slightly below, from
    scheduling overhead); the identity check is what must hold
    everywhere. *)
let par_fingerprint = function
  | None -> "unsat"
  | Some (o : Ilp.Learner.outcome) ->
    Printf.sprintf "cost=%d penalty=%d sacrificed=%d rules=[%s]"
      o.Ilp.Learner.cost o.Ilp.Learner.penalty
      (List.length o.Ilp.Learner.sacrificed)
      (String.concat "; "
         (List.map
            (fun (c : Ilp.Hypothesis_space.candidate) ->
              Printf.sprintf "pr%d %s" c.prod_id
                (Asg.Annotation.rule_to_string c.rule))
            o.Ilp.Learner.hypothesis))

(** Run the constraint learner on the CAV task ([n] examples) once per
    degree in [degrees]; returns [(domains, seconds, fingerprint)] per
    run. Shared by the [par] experiment and the bench gate's quick
    outcome-identity re-check. *)
let par_runs ~n ~degrees () =
  let examples = Workloads.Cav.examples_of (Workloads.Cav.sample ~seed:42 n) in
  let space = Ilp.Hypothesis_space.generate (Workloads.Cav.modes ()) in
  let task = Ilp.Task.make ~gpm:(Workloads.Cav.gpm ()) ~space ~examples in
  List.map
    (fun domains ->
      let pool = Par.create ~domains () in
      let t0 = Obs.now () in
      let outcome = Ilp.Learner.learn_constraints ~pool task in
      let dt = Obs.now () -. t0 in
      Par.shutdown pool;
      (domains, dt, par_fingerprint outcome))
    degrees

(** The gate's quick form of the [par] identity check: smaller task, two
    degrees, no timing table, no snapshot file. *)
let par_outcomes_identical () =
  match par_runs ~n:12 ~degrees:[ 1; 2 ] () with
  | (_, _, fp1) :: rest -> List.for_all (fun (_, _, fp) -> fp = fp1) rest
  | [] -> false

let par ~quick () =
  section "PAR  Parallel learner: wall-clock and outcome identity vs domains";
  let n, rounds = if quick then (24, 1) else (12000, 5) in
  let space = Ilp.Hypothesis_space.generate (Workloads.Cav.modes ()) in
  let degrees = [ 1; 2; 4 ] in
  let all_runs =
    List.concat
      (List.init rounds (fun r ->
           par_runs ~n
             ~degrees:(if r mod 2 = 0 then degrees else List.rev degrees)
             ()))
  in
  let _, _, fp1 = List.hd all_runs in
  let identical = List.for_all (fun (_, _, fp) -> fp = fp1) all_runs in
  let median d =
    let ts =
      List.filter_map
        (fun (d', dt, _) -> if d' = d then Some dt else None)
        all_runs
      |> List.sort Float.compare
    in
    List.nth ts (List.length ts / 2)
  in
  let runs = List.map (fun d -> (d, median d)) degrees in
  let t1 = median 1 in
  Fmt.pr "%d round(s), median seconds per domain count@." rounds;
  Fmt.pr "%-10s %-12s %-12s %s@." "domains" "seconds" "speedup" "outcome";
  List.iter
    (fun (d, dt) ->
      Fmt.pr "%-10d %-12.3f %-12.2f %s@." d dt
        (t1 /. (dt +. 1e-9))
        (if List.for_all (fun (d', _, fp) -> d' <> d || fp = fp1) all_runs
         then "identical"
         else "DIFFERENT"))
    runs;
  Fmt.pr "outcome at 1 domain: %s@." fp1;
  if not identical then
    Fmt.pr "WARNING: outcomes differ across domain counts@.";
  let oc = open_out "BENCH_par.json" in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"bench-par/1\",\n\
    \  \"recommended_domains\": %d,\n\
    \  \"examples\": %d,\n\
    \  \"space\": %d,\n\
    \  \"seconds\": {%s},\n\
    \  \"speedup_vs_1\": {%s},\n\
    \  \"identical_outcome\": %b\n\
     }\n"
    (Domain.recommended_domain_count ())
    n
    (Ilp.Hypothesis_space.size space)
    (String.concat ", "
       (List.map (fun (d, dt) -> Printf.sprintf "\"%d\": %.3f" d dt) runs))
    (String.concat ", "
       (List.map
          (fun (d, dt) -> Printf.sprintf "\"%d\": %.2f" d (t1 /. (dt +. 1e-9)))
          runs))
    identical;
  close_out oc;
  Fmt.pr "snapshot written to BENCH_par.json@."

(* ---- SERVE: decision-serving throughput, cold vs warm vs batched ----- *)

(** The XACML request log as serving requests (permit/deny in preference
    order), shared by the [serve] experiment and the gate's quick
    differential re-check. *)
let serve_requests ~n ~seed () : Serve.Request.t list =
  Workloads.Xacml_logs.log ~seed ~n ()
  |> List.map (fun (r, _) ->
         Serve.Request.make
           ~context:(Policy.Request.to_context r)
           ~options:[ "permit"; "deny" ]
           ())

(* The served model's hypothesis, learned once from a fixed XACML log
   (perfbench's tenant-stream learns its tenants the same way), so the
   served decisions vary with the request and the model reads the
   attributes its constraints name. *)
let serve_hypothesis =
  lazy
    (let space =
       Ilp.Hypothesis_space.generate (Workloads.Xacml_logs.modes ())
     in
     let examples =
       Policy.Xacml.examples_of_log
         (Workloads.Xacml_logs.log ~seed:1000 ~n:200 ())
     in
     match
       Ilp.Learner.learn
         (Ilp.Task.make ~gpm:(Workloads.Xacml_logs.gpm ()) ~space ~examples)
     with
     | Some o -> o.Ilp.Learner.hypothesis
     | None -> failwith "serve model: learning task unsatisfiable")

(** The model the serve experiments serve: a new value on every call, so
    each experiment starts with an empty compiled view. *)
let serve_model () : Asg.Gpm.t =
  Ilp.Task.apply_hypothesis (Workloads.Xacml_logs.gpm ())
    (Lazy.force serve_hypothesis)

(* serve [reqs] cold: each request on an engine that has served nothing,
   created before the clock starts, so every request misses the memo
   and decides on the model's compiled view. Returns the decisions, the
   seconds and the summed delta counts. *)
let serve_cold gpm (reqs : Serve.Request.t list) =
  let engines = List.map (fun _ -> Serve.create gpm) reqs in
  let t0 = Obs.now () in
  let decisions =
    List.map2
      (fun e r -> (Serve.decide e r).Serve.Response.decision)
      engines reqs
  in
  let t = Obs.now () -. t0 in
  let delta =
    List.fold_left
      (fun (acc : Serve.delta_stats) e ->
        let d = (Serve.stats e).Serve.delta in
        {
          Serve.delta_grounds = acc.delta_grounds + d.Serve.delta_grounds;
          delta_facts = acc.delta_facts + d.Serve.delta_facts;
          delta_rules = acc.delta_rules + d.Serve.delta_rules;
          fallbacks = acc.fallbacks + d.Serve.fallbacks;
        })
      { Serve.delta_grounds = 0; delta_facts = 0; delta_rules = 0; fallbacks = 0 }
      engines
  in
  (decisions, t, delta)

(* ns per delta ground of a cold pass; [None] when the pass did no delta
   ground, which leaves the figure undefined *)
let ns_per_ground seconds (d : Serve.delta_stats) =
  if d.Serve.delta_grounds = 0 then None
  else Some (seconds *. 1e9 /. float_of_int d.Serve.delta_grounds)

(** The gate's quick form of the serve differential: cached decisions
    must be bit-identical to the uncached reference on a small XACML
    workload, and the second pass must actually hit the memo. Returns
    (identical, decision-cache hit rate, ground-cache hit rate). *)
let serve_cached_identical () : bool * float * float =
  let gpm = serve_model () in
  let reqs = serve_requests ~n:12 ~seed:7 () in
  let uncached = List.map (Serve.decide_uncached gpm) reqs in
  let engine = Serve.create gpm in
  let pass () =
    List.map (fun r -> (Serve.decide engine r).Serve.Response.decision) reqs
  in
  let pass1 = pass () in
  let pass2 = pass () in
  let identical =
    List.for_all2 Serve.Decision.equal uncached pass1
    && List.for_all2 Serve.Decision.equal uncached pass2
  in
  let st = Serve.stats engine in
  ( identical,
    Serve.hit_rate st.Serve.decisions,
    Serve.ground_hit_rate st.Serve.grounds )

let serve ~quick () =
  section "SERVE  Decision serving: uncached vs cold vs warm vs batched";
  let n = if quick then 30 else 120 in
  let gpm = serve_model () in
  let reqs = serve_requests ~n ~seed:5 () in
  let time f =
    let t0 = Obs.now () in
    let r = f () in
    (r, Obs.now () -. t0)
  in
  (* uncached: the cache-free reference path, one full membership
     evaluation per request (this was "cold" in bench-serve/1) *)
  let uncached, uncached_t =
    time (fun () -> List.map (Serve.decide_uncached gpm) reqs)
  in
  (* cold: each request on an engine that has served nothing, so this is
     the path the compiled view serves: memo misses, compiled-core hits,
     delta grounds *)
  let cold, cold_t, delta = serve_cold gpm reqs in
  (* engine: the first pass fills both tiers, the second is the warm
     measurement (every request repeats, so it is all memo hits) *)
  let engine = Serve.create gpm in
  let pass () =
    List.map (fun r -> (Serve.decide engine r).Serve.Response.decision) reqs
  in
  let fill, fill_t = time pass in
  let warm, warm_t = time pass in
  (* batched warm serving across the domain pool *)
  let batch, batch_t =
    time (fun () ->
        List.map
          (fun (r : Serve.Response.t) -> r.Serve.Response.decision)
          (Serve.Batch.run engine reqs))
  in
  let identical =
    List.for_all2 Serve.Decision.equal uncached fill
    && List.for_all2 Serve.Decision.equal uncached warm
    && List.for_all2 Serve.Decision.equal uncached batch
    && List.for_all2 Serve.Decision.equal uncached cold
  in
  let st = Serve.stats engine in
  let per_req t = t /. float_of_int n *. 1e9 in
  let speedup t = uncached_t /. (t +. 1e-12) in
  let ns_per_ground = ns_per_ground cold_t delta in
  Fmt.pr "%-10s %-12s %-14s %s@." "mode" "seconds" "ns/request" "speedup";
  List.iter
    (fun (mode, t) ->
      Fmt.pr "%-10s %-12.4f %-14.0f %.1fx@." mode t (per_req t) (speedup t))
    [ ("uncached", uncached_t); ("cold", cold_t); ("fill", fill_t);
      ("warm", warm_t); ("batch", batch_t) ];
  Fmt.pr "decisions %s across all modes@."
    (if identical then "identical" else "DIFFERENT");
  Fmt.pr "decision cache: %d hit(s), %d miss(es), %d eviction(s), rate %.2f@."
    st.Serve.decisions.Serve.hits st.Serve.decisions.Serve.misses
    st.Serve.decisions.Serve.evictions
    (Serve.hit_rate st.Serve.decisions);
  Fmt.pr "ground cache:   %d hit(s), %d miss(es), rate %.2f@."
    st.Serve.grounds.Serve.hits st.Serve.grounds.Serve.misses
    (Serve.ground_hit_rate st.Serve.grounds);
  Fmt.pr
    "cold-path delta: %d ground(s), %d fact(s), %d rule(s) added, %d \
     fallback(s), %s@."
    delta.Serve.delta_grounds delta.Serve.delta_facts
    delta.Serve.delta_rules delta.Serve.fallbacks
    (match ns_per_ground with
    | Some ns -> Printf.sprintf "%.0f ns/ground" ns
    | None -> "no delta ground (ns/ground undefined)");
  if not identical then
    Fmt.pr "WARNING: cached decisions differ from the uncached reference@.";
  let decisions = st.Serve.decisions and grounds = st.Serve.grounds in
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"bench-serve/2\",\n\
    \  \"requests\": %d,\n\
    \  \"uncached_ns_per_req\": %.0f,\n\
    \  \"cold_ns_per_req\": %.0f,\n\
    \  \"fill_ns_per_req\": %.0f,\n\
    \  \"warm_ns_per_req\": %.0f,\n\
    \  \"batch_ns_per_req\": %.0f,\n\
    \  \"cold_speedup\": %.2f,\n\
    \  \"warm_speedup\": %.2f,\n\
    \  \"decision_cache\": {\"hits\": %d, \"misses\": %d, \"evictions\": %d, \
     \"hit_rate\": %.3f},\n\
    \  \"ground_cache\": {\"hits\": %d, \"misses\": %d, \"hit_rate\": %.3f},\n\
    \  \"delta\": {\"grounds\": %d, \"facts\": %d, \"rules_added\": %d, \
     \"fallbacks\": %d, \"ns_per_ground\": %.0f},\n\
    \  \"identical_outcome\": %b\n\
     }\n"
    n (per_req uncached_t) (per_req cold_t) (per_req fill_t) (per_req warm_t)
    (per_req batch_t) (speedup cold_t) (speedup warm_t)
    decisions.Serve.hits decisions.Serve.misses decisions.Serve.evictions
    (Serve.hit_rate decisions) grounds.Serve.hits grounds.Serve.misses
    (Serve.ground_hit_rate grounds)
    delta.Serve.delta_grounds delta.Serve.delta_facts delta.Serve.delta_rules
    delta.Serve.fallbacks
    (Option.value ~default:0.0 ns_per_ground)
    identical;
  close_out oc;
  Fmt.pr "snapshot written to BENCH_serve.json@."

(* ---- SERVE2: sharded multi-tenant serving under a Zipf stream -------- *)

let serve2 ~quick () =
  section
    "SERVE2  Multi-tenant cluster: Zipf stream, windows, coalescing";
  let tenants = 4 in
  let n = if quick then 160 else 640 in
  let queue_depth = 32 in
  let pool_n = if quick then 12 else 24 in
  let gpm = serve_model () in
  let base = Array.of_list (serve_requests ~n:pool_n ~seed:5 ()) in
  let pool_size = Array.length base in
  (* Zipf over the context pool: P(rank k) ∝ 1/k, so a handful of hot
     contexts dominate the stream — the regime where per-shard memos
     and per-window coalescing pay *)
  let weights = Array.init pool_size (fun i -> 1.0 /. float_of_int (i + 1)) in
  let total_w = Array.fold_left ( +. ) 0.0 weights in
  let st = Random.State.make [| 42 |] in
  let zipf () =
    let x = Random.State.float st total_w in
    let rec pick i acc =
      let acc = acc +. weights.(i) in
      if x < acc || i = pool_size - 1 then i else pick (i + 1) acc
    in
    pick 0 0.0
  in
  let names = Array.init tenants (fun i -> "t" ^ string_of_int i) in
  let reqs =
    List.init n (fun i ->
        let r = base.(zipf ()) in
        Serve.Request.make
          ~tenant:names.(i mod tenants)
          ~context:r.Serve.Request.context
          ~options:r.Serve.Request.options ())
  in
  let cluster =
    Serve.Cluster.create ~queue_depth
      ~tenants:(Array.to_list (Array.map (fun t -> (t, gpm)) names))
      ()
  in
  let time f =
    let t0 = Obs.now () in
    let r = f () in
    (r, Obs.now () -. t0)
  in
  let outcomes, cluster_t = time (fun () -> Serve.Cluster.run cluster reqs) in
  let served =
    List.map
      (function
        | Serve.Cluster.Served r -> r
        | Serve.Cluster.Rejected reason ->
          Fmt.failwith "run rejected a known tenant: %s"
            (Serve.Cluster.reject_reason_to_string reason))
      outcomes
  in
  let hist = Obs.Histogram.make "bench.serve2.latency" in
  List.iter
    (fun (r : Serve.Response.t) ->
      Obs.Histogram.observe hist r.Serve.Response.latency)
    served;
  let p50 = Obs.Histogram.quantile hist 0.50 in
  let p99 = Obs.Histogram.quantile hist 0.99 in
  let rps = float_of_int n /. (cluster_t +. 1e-12) in
  (* the sequential single-shard reference: one engine serves the same
     stream in input order — the outcome oracle and the speed baseline *)
  let engine = Serve.create gpm in
  let seq, seq_t =
    time (fun () ->
        List.map (fun r -> (Serve.decide engine r).Serve.Response.decision)
          reqs)
  in
  let identical =
    List.for_all2 Serve.Decision.equal seq
      (List.map
         (fun (r : Serve.Response.t) -> r.Serve.Response.decision)
         served)
  in
  let routed =
    List.for_all2
      (fun (req : Serve.Request.t) (r : Serve.Response.t) ->
        r.Serve.Response.shard = req.Serve.Request.tenant)
      reqs served
  in
  let coalesced = Serve.Cluster.coalesced cluster in
  (* cross-tenant invalidation audit: swapping t0's model must leave
     every other shard's decision memo untouched *)
  let other_memo_entries () =
    List.filter_map
      (fun (tenant, st) ->
        if tenant = "t0" then None
        else Some st.Serve.decisions.Serve.entries)
      (Serve.Cluster.stats cluster)
  in
  let before = other_memo_entries () in
  Serve.Cluster.set_gpm cluster ~tenant:"t0"
    (Asg.Gpm.with_context gpm Asp.Program.empty);
  let after = other_memo_entries () in
  let cross_tenant_invalidations =
    List.fold_left2 (fun acc b a -> acc + max 0 (b - a)) 0 before after
  in
  let shard_stats = Serve.Cluster.stats cluster in
  Fmt.pr "%d requests, %d tenants, windows of %d, pool of %d contexts@." n
    tenants queue_depth pool_size;
  Fmt.pr "cluster: %.3f s (%.0f req/s)  sequential single shard: %.3f s@."
    cluster_t rps seq_t;
  Fmt.pr "latency p50 %.0f us, p99 %.0f us@." (p50 *. 1e6) (p99 *. 1e6);
  Fmt.pr "coalesced %d, cross-tenant invalidations %d@." coalesced
    cross_tenant_invalidations;
  Fmt.pr "%-10s %-16s %s@." "shard" "decision rate" "ground rate";
  List.iter
    (fun (tenant, st) ->
      Fmt.pr "%-10s %-16.2f %.2f@." tenant
        (Serve.hit_rate st.Serve.decisions)
        (Serve.ground_hit_rate st.Serve.grounds))
    shard_stats;
  Fmt.pr "decisions %s the sequential reference; provenance %s@."
    (if identical then "identical to" else "DIFFERENT from")
    (if routed then "matches every tenant" else "MISROUTED");
  if not identical then
    Fmt.pr "WARNING: cluster decisions differ from the single-shard path@.";
  let oc = open_out "BENCH_serve2.json" in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"bench-serve2/1\",\n\
    \  \"tenants\": %d,\n\
    \  \"queue_depth\": %d,\n\
    \  \"requests\": %d,\n\
    \  \"context_pool\": %d,\n\
    \  \"requests_per_sec\": %.0f,\n\
    \  \"p50_s\": %.6f,\n\
    \  \"p99_s\": %.6f,\n\
    \  \"shards\": {%s},\n\
    \  \"coalesced\": %d,\n\
    \  \"cross_tenant_invalidations\": %d,\n\
    \  \"shard_provenance\": %b,\n\
    \  \"identical_outcome\": %b\n\
     }\n"
    tenants queue_depth n pool_size rps p50 p99
    (String.concat ", "
       (List.map
          (fun (tenant, st) ->
            Printf.sprintf
              "\"%s\": {\"decision_hit_rate\": %.3f, \"ground_hit_rate\": \
               %.3f}"
              tenant
              (Serve.hit_rate st.Serve.decisions)
              (Serve.ground_hit_rate st.Serve.grounds))
          shard_stats))
    coalesced cross_tenant_invalidations routed identical;
  close_out oc;
  Fmt.pr "snapshot written to BENCH_serve2.json@."

(* ---- DRIFT: policy-health drift replay ------------------------------- *)

(* zero every health signal and the event ring so each replay phase
   measures only its own stream *)
let reset_health () =
  List.iter Obs.Health.reset (Obs.Health.all ());
  Obs.Health.clear_events ()

(* the gate's live counterpart of the committed delta.ns_per_ground:
   serve a small cold workload (every request a memo miss) and report
   ns per delta ground, min of [runs]; [None] when a run did no delta
   ground *)
let serve_ground_ns ?(n = 30) ?(runs = 3) () : float option =
  let gpm = serve_model () in
  let reqs = serve_requests ~n ~seed:5 () in
  let one () =
    let _, t, delta = serve_cold gpm reqs in
    ns_per_ground t delta
  in
  List.fold_left
    (fun acc _ -> Option.bind acc (fun a -> Option.map (Float.min a) (one ())))
    (one ())
    (List.init (runs - 1) Fun.id)

(* one closed-loop replay over the XACML log: [pretrain] requests to
   settle the learner, a health reset, then [n1] stationary requests
   and [n2] requests with the ground truth inverted ([n2 = 0] is the
   stationary control). Returns the post-reset (chosen, compliant)
   stream and the adaptation count. *)
let drift_replay ~use_serve ~pretrain ~n1 ~n2 () :
    (string * bool) list * int =
  let spec : Agenp.Prep.pbms_spec =
    {
      Agenp.Prep.grammar_text =
        Asg.Asg_parser.render (Workloads.Xacml_logs.gpm ());
      global_constraints = [];
    }
  in
  let space = Ilp.Hypothesis_space.generate (Workloads.Xacml_logs.modes ()) in
  let truth = ref Policy.Decision.Permit in
  let env : Agenp.Ams.environment =
    {
      Agenp.Ams.options = [ "permit"; "deny" ];
      oracle =
        (fun _context opt ->
          match opt with
          | "deny" -> true (* denying is always safe *)
          | "permit" -> Policy.Decision.equal !truth Policy.Decision.Permit
          | _ -> false);
      audit_rate = 0.0;
    }
  in
  let ams = Agenp.Ams.create ~name:"drift" ~seed:1 ~spec ~space env in
  if use_serve then
    Agenp.Ams.attach_engine ams
      (Serve.Engine (Serve.create (Agenp.Ams.gpm ams)));
  let log = Workloads.Xacml_logs.log ~seed:11 ~n:(pretrain + n1 + n2) () in
  let flip = function
    | Policy.Decision.Permit -> Policy.Decision.Deny
    | Policy.Decision.Deny -> Policy.Decision.Permit
    | d -> d
  in
  let outcomes = ref [] in
  List.iteri
    (fun i (r, d) ->
      if i = pretrain then reset_health ();
      truth := (if i >= pretrain + n1 then flip d else d);
      let rc = Agenp.Ams.handle_request ams (Policy.Request.to_context r) in
      if i >= pretrain then
        outcomes :=
          (rc.Agenp.Pep.decision.Serve.Decision.chosen, Agenp.Pep.compliant rc)
          :: !outcomes)
    log;
  (List.rev !outcomes, Agenp.Ams.relearn_count ams)

let rate_shift_events () =
  List.filter
    (fun (e : Obs.Health.event) -> e.Obs.Health.ev_kind = "rate_shift")
    (Obs.Health.events ())

let drift ~quick () =
  section "DRIFT  Policy-health drift replay: detection latency and recovery";
  let pretrain = if quick then 30 else 40 in
  let n1 = if quick then 20 else 25 in
  let n2 = if quick then 35 else 45 in
  let tail = 15 in
  (* stationary control: same length, ground truth never mutates *)
  reset_health ();
  let _, _ = drift_replay ~use_serve:true ~pretrain ~n1:(n1 + n2) ~n2:0 () in
  let false_alarms = List.length (rate_shift_events ()) in
  (* drifted runs: uncached reference first, then the measured serve run *)
  reset_health ();
  let ref_outcomes, _ = drift_replay ~use_serve:false ~pretrain ~n1 ~n2 () in
  reset_health ();
  let outcomes, adaptations = drift_replay ~use_serve:true ~pretrain ~n1 ~n2 () in
  let identical =
    List.length ref_outcomes = List.length outcomes
    && List.for_all2
         (fun (a, _) (b, _) -> String.equal a b)
         ref_outcomes outcomes
  in
  let alarms =
    List.filter
      (fun (e : Obs.Health.event) ->
        e.Obs.Health.ev_signal = "pep.noncompliance"
        && e.Obs.Health.ev_observations > n1)
      (rate_shift_events ())
  in
  let detected = alarms <> [] in
  let detection_latency =
    match alarms with
    | e :: _ -> e.Obs.Health.ev_observations - n1
    | [] -> -1
  in
  let recovery_accuracy =
    let rest = List.filteri (fun i _ -> i >= n1 + n2 - tail) outcomes in
    match rest with
    | [] -> 0.0
    | _ ->
      float_of_int (List.length (List.filter snd rest))
      /. float_of_int (List.length rest)
  in
  Fmt.pr "stationary control: %d request(s), %d false alarm(s)@." (n1 + n2)
    false_alarms;
  Fmt.pr
    "drifted stream: mutation at request %d, %s (latency %d request(s), %d \
     alarm(s))@."
    n1
    (if detected then "detected" else "NOT DETECTED")
    detection_latency (List.length alarms);
  Fmt.pr "adaptations %d, recovery accuracy %.3f over last %d request(s)@."
    adaptations recovery_accuracy tail;
  Fmt.pr "decisions %s with and without the serving engine@."
    (if identical then "identical" else "DIFFERENT");
  let oc = open_out "BENCH_drift.json" in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"bench-drift/1\",\n\
    \  \"pretrain_requests\": %d,\n\
    \  \"stationary_requests\": %d,\n\
    \  \"post_mutation_requests\": %d,\n\
    \  \"false_alarms_on_stationary\": %d,\n\
    \  \"detected\": %b,\n\
    \  \"detection_latency_requests\": %d,\n\
    \  \"detector_alarms\": %d,\n\
    \  \"adaptations\": %d,\n\
    \  \"recovery_accuracy\": %.3f,\n\
    \  \"identical_outcome\": %b\n\
     }\n"
    pretrain n1 n2 false_alarms detected detection_latency
    (List.length alarms) adaptations recovery_accuracy identical;
  close_out oc;
  Fmt.pr "snapshot written to BENCH_drift.json@."
