(* Tests for the scenario generators and their learning pipelines. *)

(* The learned hypothesis of a task, pinned: rules as source text, total
   rule cost, and the penalty of the sacrificed examples. *)
let check_hypothesis name ~rules ~cost ~penalty (l : Ilp.Asg_learning.learned) =
  Alcotest.(check (list string)) (name ^ ": rules") rules
    (Ilp.Asg_learning.hypothesis_text l);
  Alcotest.(check int) (name ^ ": cost") cost l.outcome.Ilp.Learner.cost;
  Alcotest.(check int) (name ^ ": penalty") penalty
    l.outcome.Ilp.Learner.penalty

(* ---- CAV ---- *)

let test_cav_ground_truth () =
  let s =
    { Workloads.Cav.task = "overtake"; vehicle_loa = 5; region_loa = 3;
      weather = "snow"; time = "day" }
  in
  Alcotest.(check bool) "overtake in snow rejected" false
    (Workloads.Cav.ground_truth s);
  Alcotest.(check bool) "overtake in clear with loa5 accepted" true
    (Workloads.Cav.ground_truth { s with weather = "clear" });
  Alcotest.(check bool) "loa too low rejected" false
    (Workloads.Cav.ground_truth
       { s with weather = "clear"; vehicle_loa = 3 });
  Alcotest.(check bool) "night fog rejected" false
    (Workloads.Cav.ground_truth
       { s with weather = "fog"; time = "night"; task = "straight" })

let test_cav_sampling_deterministic () =
  let a = Workloads.Cav.sample ~seed:3 10 in
  let b = Workloads.Cav.sample ~seed:3 10 in
  Alcotest.(check bool) "same seed same sample" true (a = b);
  Alcotest.(check int) "ten scenarios" 10 (List.length a)

let test_cav_learns_ground_truth () =
  let space = Ilp.Hypothesis_space.generate (Workloads.Cav.modes ()) in
  let train = Workloads.Cav.sample ~seed:42 60 in
  let examples = Workloads.Cav.examples_of train in
  let task = Ilp.Task.make ~gpm:(Workloads.Cav.gpm ()) ~space ~examples in
  match Ilp.Asg_learning.learn_gpm task with
  | None -> Alcotest.fail "CAV learning failed"
  | Some l ->
    check_hypothesis "cav" l ~cost:10 ~penalty:0
      ~rules:
        [
          "[pr0] :- result(accept)@1, vehicle_loa(V_v), needed_loa(V_r), V_v \
           < V_r.";
          "[pr0] :- result(accept)@1, weather(snow), task(overtake).";
          "[pr0] :- result(accept)@1, weather(fog), time(night).";
        ];
    let test = Workloads.Cav.sample ~seed:7 150 in
    Alcotest.(check (float 0.01)) "perfect generalization" 1.0
      (Workloads.Cav.gpm_accuracy l.Ilp.Asg_learning.gpm test)

let test_cav_dataset () =
  let d = Workloads.Cav.to_dataset (Workloads.Cav.sample ~seed:5 30) in
  Alcotest.(check int) "30 instances" 30 (Ml.Dataset.size d);
  Alcotest.(check int) "5 features" 5 (Array.length d.Ml.Dataset.feature_names)

let test_cav_all_scenarios () =
  Alcotest.(check int) "full space size" (4 * 5 * 5 * 4 * 2)
    (List.length (Workloads.Cav.all_scenarios ()))

(* ---- XACML logs ---- *)

let test_xacml_ground_truth () =
  let d r a res =
    Workloads.Xacml_logs.ground_truth_decision
      (Workloads.Xacml_logs.request ~role:r ~resource:res ~action:a)
  in
  Alcotest.(check string) "admin delete ok" "Permit"
    (Policy.Decision.to_string (d "admin" "delete" "database"));
  Alcotest.(check string) "manager delete denied" "Deny"
    (Policy.Decision.to_string (d "manager" "delete" "database"));
  Alcotest.(check string) "intern write denied" "Deny"
    (Policy.Decision.to_string (d "intern" "write" "report"));
  Alcotest.(check string) "developer config denied" "Deny"
    (Policy.Decision.to_string (d "developer" "read" "config"))

let test_xacml_policy_matches_oracle () =
  (* the explicit Rule_policy and the procedural oracle must agree *)
  let p = Workloads.Xacml_logs.ground_truth_policy () in
  List.iter
    (fun r ->
      Alcotest.(check string)
        (Policy.Request.to_string r)
        (Policy.Decision.to_string (Workloads.Xacml_logs.ground_truth_decision r))
        (Policy.Decision.to_string (Policy.Rule_policy.evaluate p r)))
    (Workloads.Xacml_logs.request_space ())

let test_xacml_noise_injection () =
  let clean = Workloads.Xacml_logs.log ~seed:2 ~n:50 () in
  let noisy =
    Workloads.Xacml_logs.noisy_log ~seed:2 ~n:50 ~flip:0.0 ~irrelevant:1.0 ()
  in
  Alcotest.(check int) "same length" (List.length clean) (List.length noisy);
  Alcotest.(check bool) "all irrelevant" true
    (List.for_all
       (fun (_, d) -> d = Policy.Decision.Not_applicable)
       noisy)

(* A learned XACML model's trees are ground cores (the decision fact and
   ground constraints over attribute values): deciding every request of
   the space through the compiled view grounds and searches nothing, and
   answers as the from-scratch path does. *)
let test_xacml_learned_tree_ground_core () =
  let log = Workloads.Xacml_logs.log ~seed:1 ~n:80 () in
  let space = Ilp.Hypothesis_space.generate (Workloads.Xacml_logs.modes ()) in
  let gpm =
    match
      Ilp.Asg_learning.learn ~gpm:(Workloads.Xacml_logs.gpm ()) ~space
        ~examples:(Policy.Xacml.examples_of_log log) ()
    with
    | Some l -> l.Ilp.Asg_learning.gpm
    | None -> Alcotest.fail "no hypothesis"
  in
  let questions =
    List.concat_map
      (fun r ->
        let context = Policy.Request.to_context r in
        [ (context, "permit"); (context, "deny") ])
      (Workloads.Xacml_logs.request_space ())
  in
  let scratch =
    List.map
      (fun (context, s) ->
        Asg.Membership.accepts_uncompiled ~context gpm
          (Asg.Membership.tokenize s))
      questions
  in
  let counters () =
    List.map
      (fun n -> Obs.Counter.value (Obs.Counter.make n))
      [
        "asp.ground.calls"; "asp.ground.rules"; "asp.ground.possible_atoms";
        "asp.ground.delta_rounds"; "asp.ground.join_tuples"; "asp.solve.calls";
      ]
  in
  let before = counters () in
  let compiled =
    List.map
      (fun (context, s) -> Asg.Membership.accepts_in_context gpm ~context s)
      questions
  in
  Alcotest.(check (list bool)) "answers as from scratch" scratch compiled;
  Alcotest.(check (list int)) "no asp.ground or asp.solve counter moved"
    before (counters ())

let test_xacml_flat_learning_improves_with_data () =
  let learn n ~rules ~cost =
    let log = Workloads.Xacml_logs.log ~seed:1 ~n () in
    let examples = Policy.Xacml.examples_of_log log in
    let space =
      Ilp.Hypothesis_space.generate (Workloads.Xacml_logs.modes ())
    in
    match
      Ilp.Asg_learning.learn ~gpm:(Workloads.Xacml_logs.gpm ()) ~space
        ~examples ()
    with
    | Some l ->
      check_hypothesis (Printf.sprintf "xacml %d" n) l ~rules ~cost ~penalty:0;
      Workloads.Xacml_logs.gpm_accuracy l.Ilp.Asg_learning.gpm
        (Workloads.Xacml_logs.request_space ())
    | None -> 0.0
  in
  let rule role_or_resource action =
    Printf.sprintf "[pr0] :- result(permit)@1, %s, %s." role_or_resource action
  in
  let small =
    learn 10 ~cost:9
      ~rules:
        [
          rule "attr(subject, role, developer)" "attr(action, id, delete)";
          rule "attr(subject, role, auditor)" "attr(resource, type, database)";
          rule "attr(subject, role, developer)" "attr(resource, type, config)";
        ]
  and big =
    learn 60 ~cost:21
      ~rules:
        [
          rule "attr(resource, type, report)" "attr(action, id, delete)";
          rule "attr(subject, role, auditor)" "attr(action, id, delete)";
          rule "attr(subject, role, developer)" "attr(resource, type, config)";
          rule "attr(subject, role, auditor)" "attr(resource, type, config)";
          rule "attr(subject, role, intern)" "attr(resource, type, config)";
          rule "attr(subject, role, manager)" "attr(action, id, delete)";
          rule "attr(subject, role, intern)" "attr(action, id, write)";
        ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "more log entries help (%.2f -> %.2f)" small big)
    true (big >= small)

let test_xacml_hierarchy_beats_flat_when_sparse () =
  let log = Workloads.Xacml_logs.log ~seed:1 ~n:10 () in
  let examples = Policy.Xacml.examples_of_log log in
  let eval ?pin gpm modes =
    let space = Ilp.Hypothesis_space.generate modes in
    match Ilp.Asg_learning.learn ~gpm ~space ~examples () with
    | Some l ->
      Option.iter (fun check -> check l) pin;
      Workloads.Xacml_logs.gpm_accuracy l.Ilp.Asg_learning.gpm
        (Workloads.Xacml_logs.request_space ())
    | None -> 0.0
  in
  let flat = eval (Workloads.Xacml_logs.gpm ()) (Workloads.Xacml_logs.modes ()) in
  let hier =
    eval (Workloads.Xacml_logs.gpm_with_hierarchy ())
      (Workloads.Xacml_logs.hierarchy_modes ())
      ~pin:
        (check_hypothesis "xacml hierarchy" ~cost:7 ~penalty:0
           ~rules:
             [
               "[pr0] :- result(permit)@1, attr(action, id, delete), \
                role_level(V_s), V_s < 4.";
               "[pr0] :- result(permit)@1, attr(action, id, read), \
                attr(resource, type, config).";
             ])
  in
  Alcotest.(check bool)
    (Printf.sprintf "hierarchy generalizes better (%.2f vs %.2f)" hier flat)
    true (hier > flat)

(* ---- Resupply ---- *)

let test_resupply_ground_truth () =
  let m =
    { Workloads.Resupply.threat_north = 0; threat_south = 3; threat_river = 1;
      weather = "storm"; time = "day"; risk_appetite = "low" }
  in
  Alcotest.(check bool) "calm north valid" true
    (Workloads.Resupply.route_valid m "north");
  Alcotest.(check bool) "hot south invalid at low appetite" false
    (Workloads.Resupply.route_valid m "south");
  Alcotest.(check bool) "river in storm invalid" false
    (Workloads.Resupply.route_valid m "river");
  let high = { m with risk_appetite = "high" } in
  Alcotest.(check bool) "south ok at high appetite" true
    (Workloads.Resupply.route_valid high "south")

let test_resupply_learning () =
  let space = Ilp.Hypothesis_space.generate (Workloads.Resupply.modes ()) in
  let missions = Workloads.Resupply.campaign ~seed:21 ~n:25 () in
  let examples =
    List.concat_map Workloads.Resupply.examples_of_mission missions
  in
  match
    Ilp.Asg_learning.learn ~gpm:(Workloads.Resupply.gpm ()) ~space ~examples ()
  with
  | None -> Alcotest.fail "resupply learning failed"
  | Some l ->
    check_hypothesis "resupply" l ~cost:6 ~penalty:0
      ~rules:
        [
          "[pr0] :- chosen(V_rt)@1, threat(V_rt, V_t), max_threat(V_m), V_t \
           > V_m.";
          "[pr0] :- chosen(river)@1, weather(storm).";
        ];
    let test =
      Workloads.Resupply.campaign ~seed:99 ~n:30 ~shift_at:15 ()
    in
    let acc = Workloads.Resupply.gpm_accuracy l.Ilp.Asg_learning.gpm test in
    Alcotest.(check bool) (Printf.sprintf "accuracy %.2f >= 0.9" acc) true
      (acc >= 0.9)

let test_resupply_campaign_shift () =
  let ms = Workloads.Resupply.campaign ~seed:4 ~n:10 ~shift_at:5 () in
  Alcotest.(check int) "10 missions" 10 (List.length ms);
  Alcotest.(check bool) "appetite shifts" true
    ((List.nth ms 4).Workloads.Resupply.risk_appetite = "low"
    && (List.nth ms 5).Workloads.Resupply.risk_appetite = "high")

let test_resupply_utility_selection () =
  let space = Ilp.Hypothesis_space.generate (Workloads.Resupply.modes ()) in
  let missions = Workloads.Resupply.campaign ~seed:21 ~n:20 () in
  let examples =
    List.concat_map Workloads.Resupply.examples_of_mission missions
  in
  match
    Ilp.Asg_learning.learn ~gpm:(Workloads.Resupply.gpm ()) ~space ~examples ()
  with
  | None -> Alcotest.fail "learning failed"
  | Some l ->
    let util_gpm =
      Ilp.Task.apply_hypothesis
        (Workloads.Resupply.utility_gpm ())
        l.Ilp.Asg_learning.outcome.Ilp.Learner.hypothesis
    in
    let test = Workloads.Resupply.campaign ~seed:99 ~n:25 ~shift_at:12 () in
    let acc = Workloads.Resupply.utility_accuracy util_gpm test in
    Alcotest.(check bool) (Printf.sprintf "optimal-route rate %.2f" acc) true
      (acc >= 0.95)

(* ---- Convoy composition ---- *)

let test_convoy_ground_truth () =
  let c trucks escorts drones = { Workloads.Convoy.trucks; escorts; drones } in
  Alcotest.(check bool) "no cargo invalid" false
    (Workloads.Convoy.valid ~threat:0 (c 0 2 1));
  Alcotest.(check bool) "calm lone truck ok" true
    (Workloads.Convoy.valid ~threat:1 (c 1 0 0));
  Alcotest.(check bool) "threat 2 needs escorts" false
    (Workloads.Convoy.valid ~threat:2 (c 2 1 0));
  Alcotest.(check bool) "threat 2 with escorts ok" true
    (Workloads.Convoy.valid ~threat:2 (c 2 2 0));
  Alcotest.(check bool) "threat 3 needs a drone" false
    (Workloads.Convoy.valid ~threat:3 (c 1 1 0))

let test_convoy_counting_annotations () =
  (* the base grammar's structural counters accept every composition *)
  let g = Workloads.Convoy.gpm () in
  Alcotest.(check bool) "any composition parses" true
    (Asg.Membership.accepts g "truck escort drone truck");
  Alcotest.(check bool) "empty convoy parses" true (Asg.Membership.accepts g "")

let test_convoy_sentence_roundtrip () =
  let c = { Workloads.Convoy.trucks = 2; escorts = 1; drones = 1 } in
  Alcotest.(check string) "sentence" "truck truck escort drone"
    (Workloads.Convoy.to_sentence c)

let test_convoy_learning () =
  let space = Ilp.Hypothesis_space.generate (Workloads.Convoy.modes ()) in
  let train = Workloads.Convoy.sample ~seed:11 80 in
  let examples = Workloads.Convoy.examples_of train in
  match
    Ilp.Asg_learning.learn ~gpm:(Workloads.Convoy.gpm ()) ~space ~examples ()
  with
  | None -> Alcotest.fail "convoy learning failed"
  | Some l ->
    let acc =
      Workloads.Convoy.gpm_accuracy l.Ilp.Asg_learning.gpm
        (Workloads.Convoy.all_situations ())
    in
    Alcotest.(check (float 0.01))
      "exact recovery on the full space" 1.0 acc

let test_convoy_generation () =
  (* with the ground-truth constraints installed, generated convoys at
     threat 3 all satisfy the oracle *)
  let h =
    Ilp.Hypothesis_space.of_rules
      [ (":- trucks(T), T < 1.", [ 0 ]);
        (":- trucks(T), escorts(E), threat(L), L >= 2, E < T.", [ 0 ]);
        (":- drones(D), threat(L), L >= 3, D < 1.", [ 0 ]) ]
  in
  let g = Ilp.Task.apply_hypothesis (Workloads.Convoy.gpm ()) h in
  let convoys = Workloads.Convoy.deployable ~max_depth:6 g ~threat:3 in
  Alcotest.(check bool) "some convoys deployable" true (convoys <> []);
  List.iter
    (fun sentence ->
      let count kind =
        List.length
          (List.filter (( = ) kind) (String.split_on_char ' ' sentence))
      in
      let c =
        { Workloads.Convoy.trucks = count "truck"; escorts = count "escort";
          drones = count "drone" }
      in
      Alcotest.(check bool) (sentence ^ " is valid") true
        (Workloads.Convoy.valid ~threat:3 c))
    convoys

(* ---- Data sharing ---- *)

let test_data_sharing_ground_truth () =
  let i = { Workloads.Data_sharing.trust = 5; quality = 4; value = 2; kind = "image" } in
  Alcotest.(check string) "trusted high quality raw" "share_raw"
    (Workloads.Data_sharing.ground_truth_choice i);
  Alcotest.(check string) "low quality redacted" "share_redacted"
    (Workloads.Data_sharing.ground_truth_choice { i with quality = 1 });
  Alcotest.(check string) "untrusted refused" "refuse"
    (Workloads.Data_sharing.ground_truth_choice { i with trust = 1 })

let test_data_sharing_learning () =
  let space = Ilp.Hypothesis_space.generate (Workloads.Data_sharing.modes ()) in
  let items = Workloads.Data_sharing.sample ~seed:8 40 in
  let examples = Workloads.Data_sharing.examples_of items in
  match
    Ilp.Asg_learning.learn ~gpm:(Workloads.Data_sharing.gpm ()) ~space
      ~examples ()
  with
  | None -> Alcotest.fail "data-sharing learning failed"
  | Some l ->
    let test = Workloads.Data_sharing.sample ~seed:9 100 in
    let acc = Workloads.Data_sharing.gpm_accuracy l.Ilp.Asg_learning.gpm test in
    Alcotest.(check bool) (Printf.sprintf "accuracy %.2f >= 0.95" acc) true
      (acc >= 0.95)

(* ---- Federated ---- *)

let test_federated_ground_truth () =
  let o = { Workloads.Federated.trust = 5; reported_accuracy = 90; domain = "same" } in
  Alcotest.(check string) "adopt" "adopt" (Workloads.Federated.ground_truth_choice o);
  Alcotest.(check string) "ensemble when near" "ensemble"
    (Workloads.Federated.ground_truth_choice { o with domain = "near" });
  Alcotest.(check string) "discard when far" "discard"
    (Workloads.Federated.ground_truth_choice { o with domain = "far" })

let test_federated_learning () =
  let space = Ilp.Hypothesis_space.generate (Workloads.Federated.modes ()) in
  let offers = Workloads.Federated.sample ~seed:13 40 in
  let examples = Workloads.Federated.examples_of offers in
  match
    Ilp.Asg_learning.learn ~gpm:(Workloads.Federated.gpm ()) ~space ~examples ()
  with
  | None -> Alcotest.fail "federated learning failed"
  | Some l ->
    let test = Workloads.Federated.sample ~seed:14 100 in
    let acc = Workloads.Federated.gpm_accuracy l.Ilp.Asg_learning.gpm test in
    Alcotest.(check bool) (Printf.sprintf "accuracy %.2f >= 0.9" acc) true
      (acc >= 0.9)

(* property: learned CAV models never accept what the LOA table forbids *)
let prop_cav_examples_consistent =
  QCheck2.Test.make ~name:"CAV examples match the oracle" ~count:20
    QCheck2.Gen.(int_range 1 100)
    (fun seed ->
      let scenarios = Workloads.Cav.sample ~seed 10 in
      let examples = Workloads.Cav.examples_of scenarios in
      (* 2 examples per scenario: the accept label and the reject fallback *)
      List.length examples = 20)

(* ---- the compiled membership path ---- *)

(* A workload model with its hypothesis space, some of its sentences, its
   own request contexts, and a fact template over one of its integer
   arguments (the target of interval and arithmetic terms). *)
type compiled_case = {
  name : string;
  base : Asg.Gpm.t;
  space : Ilp.Hypothesis_space.candidate array;
  sentences : string list;
  contexts : Asp.Program.t array;
  int_fact : string -> string;
}

let compiled_cases =
  let case name base modes sentences contexts int_fact =
    lazy
      {
        name;
        base;
        space = Array.of_list (Ilp.Hypothesis_space.generate modes);
        sentences;
        contexts = Array.of_list contexts;
        int_fact;
      }
  in
  let xacml_contexts =
    List.map Policy.Request.to_context (Workloads.Xacml_logs.request_space ())
  in
  [|
    case "xacml flat" (Workloads.Xacml_logs.gpm ()) (Workloads.Xacml_logs.modes ())
      [ "permit"; "deny" ] xacml_contexts
      (Printf.sprintf "seniority(intern, %s).");
    case "xacml hierarchy"
      (Workloads.Xacml_logs.gpm_with_hierarchy ())
      (Workloads.Xacml_logs.hierarchy_modes ())
      [ "permit"; "deny" ] xacml_contexts
      (Printf.sprintf "seniority(intern, %s).");
    case "cav" (Workloads.Cav.gpm ()) (Workloads.Cav.modes ())
      [ "accept"; "reject" ]
      (List.map Workloads.Cav.to_context (Workloads.Cav.sample ~seed:11 40))
      (Printf.sprintf "vehicle_loa(%s).");
    case "resupply" (Workloads.Resupply.gpm ()) (Workloads.Resupply.modes ())
      Workloads.Resupply.routes
      (List.map Workloads.Resupply.to_context
         (Workloads.Resupply.campaign ~seed:12 ~n:40 ()))
      (Printf.sprintf "threat(north, %s).");
    case "convoy" (Workloads.Convoy.gpm ()) (Workloads.Convoy.modes ())
      [ ""; "truck"; "truck escort"; "escort truck drone"; "truck truck escort drone" ]
      (List.init 5 (fun threat -> Workloads.Convoy.context ~threat))
      (Printf.sprintf "threat(%s).");
  |]

(* Root-level rules with a latent negative literal: [not latent_veto] is
   trivially true in every frozen core, so a context asserting
   [latent_veto] makes the delta ground refuse the batch and a
   from-scratch ground decide; [latent_pardon] turns that answer back to
   accept. *)
let latent_rules =
  Asg.Annotation.parse
    "latent_ok :- not latent_veto. latent_ok :- latent_pardon. :- not latent_ok."

type context_kind =
  | Empty
  | Facts of { dup : bool; num : string option }
      (** a workload context, with a duplicated fact and an interval or
          arithmetic fact *)
  | Latent of { pardon : bool }  (** plus [latent_veto.] *)
  | Derived_veto  (** [latent_veto] derived by a context rule *)
  | Derived_fact  (** the context's first fact derived by a rule *)

let gen_context_kind =
  QCheck2.Gen.(
    frequency
      [
        (1, return Empty);
        ( 4,
          map2
            (fun dup num -> Facts { dup; num })
            bool
            (opt (oneofl [ "1..3"; "2..2"; "3..1"; "1+2"; "2*2"; "5-4"; "4/2"; "1/0" ])) );
        (2, map (fun pardon -> Latent { pardon }) bool);
        (1, return Derived_veto);
        (1, return Derived_fact);
      ])

let context_of (c : compiled_case) (i, kind) =
  let base = Asp.Program.rules c.contexts.(i mod Array.length c.contexts) in
  let parse = Asp.Parser.parse_program in
  let rules =
    match kind with
    | Empty -> []
    | Facts { dup; num } ->
      base
      @ (if dup then [ List.hd base ] else [])
      @ (match num with
        | Some t -> Asp.Program.rules (parse (c.int_fact t))
        | None -> [])
    | Latent { pardon } ->
      base
      @ Asp.Program.rules
          (parse (if pardon then "latent_veto. latent_pardon." else "latent_veto."))
    | Derived_veto ->
      base
      @ Asp.Program.rules (parse "latent_veto :- latent_trigger. latent_trigger.")
    | Derived_fact ->
      let trigger = Asp.Parser.parse_atom_string "latent_trigger" in
      { (List.hd base) with Asp.Rule.body = [ Asp.Rule.Pos trigger ] }
      :: Asp.Rule.fact trigger :: List.tl base
  in
  Asp.Program.of_rules rules

(* [rules] added to every production of the start symbol *)
let at_root g rules =
  let cfg = Asg.Gpm.cfg g in
  List.fold_left
    (fun g (p : Grammar.Production.t) ->
      Asg.Gpm.add_annotation g p.Grammar.Production.id rules)
    g
    (Grammar.Cfg.productions_of cfg (Grammar.Cfg.start cfg))

(* A model drawn from a case: its base GPM extended with up to three
   candidates of its space, and with the latent rules at the root. *)
let compiled_model (c : compiled_case) (picks, latent) =
  let g =
    Ilp.Task.apply_hypothesis c.base
      (List.map (fun k -> c.space.(k mod Array.length c.space)) picks)
  in
  if latent then at_root g latent_rules else g

let gen_compiled_input =
  QCheck2.Gen.(
    triple
      (int_bound (Array.length compiled_cases - 1))
      (pair (list_size (int_bound 3) nat) bool)
      (list_size (int_range 1 4) (pair nat gen_context_kind)))

let print_compiled_input (ci, (picks, latent), kinds) =
  Printf.sprintf "%s, candidates [%s], latent %b, contexts:\n%s"
    (Lazy.force compiled_cases.(ci)).name
    (String.concat "; " (List.map string_of_int picks))
    latent
    (String.concat "\n---\n"
       (List.map
          (fun k ->
            Asp.Program.to_string (context_of (Lazy.force compiled_cases.(ci)) k))
          kinds))

(* every (context, sentence) question of one input, in order *)
let compiled_questions (ci, model, kinds) =
  let c = Lazy.force compiled_cases.(ci) in
  ( c,
    model,
    List.concat_map
      (fun k ->
        let context = context_of c k in
        List.map (fun s -> (context, s)) c.sentences)
      kinds )

(* The compiled view answers exactly as the from-scratch check, on the
   first ask of each sentence and again from the memo, for one model
   value asked under every context in turn. *)
let prop_compiled_membership =
  QCheck2.Test.make ~name:"compiled membership = from-scratch membership"
    ~count:60 ~long_factor:10 ~print:print_compiled_input gen_compiled_input (fun input ->
      let c, model, questions = compiled_questions input in
      let g = compiled_model c model in
      let scratch =
        List.map
          (fun (context, s) ->
            Asg.Membership.accepts_uncompiled ~context g
              (Asg.Membership.tokenize s))
          questions
      in
      let compiled () =
        List.map
          (fun (context, s) -> Asg.Membership.accepts_in_context g ~context s)
          questions
      in
      let first = compiled () in
      let hit = compiled () in
      first = scratch && hit = scratch)

(* The same questions, twice over, from a 2-domain pool sharing one fresh
   model value (the domains race on its first asks) answer as a
   sequential run on another fresh value of the same model. *)
let prop_compiled_membership_par =
  QCheck2.Test.make ~name:"compiled membership from 2 domains = sequential"
    ~count:15 ~print:print_compiled_input gen_compiled_input (fun input ->
      let c, model, questions = compiled_questions input in
      let questions = Array.of_list (questions @ questions) in
      let ask g (context, s) = Asg.Membership.accepts_in_context g ~context s in
      let sequential = Array.map (ask (compiled_model c model)) questions in
      let pool = Par.create ~domains:2 () in
      let parallel =
        Fun.protect
          ~finally:(fun () -> Par.shutdown pool)
          (fun () ->
            Par.parallel_map pool (ask (compiled_model c model)) questions)
      in
      parallel = sequential)

(* ---- projection onto what the model reads ---- *)

(* Facts a model may not read, appended to a context: a fresh predicate,
   the subject id every perfbench request carries (a known predicate
   with a foreign constant on the XACML models), the case's own integer
   fact with a foreign constant, and [latent_pick], which only the
   choice atom of [choice_rules] reads. *)
type extra = Fresh of int | Subject_id of int | Foreign_int | Choice_only

let gen_extra =
  QCheck2.Gen.(
    oneof
      [
        map (fun k -> Fresh k) (int_bound 3);
        map (fun u -> Subject_id u) (int_bound 3);
        return Foreign_int;
        return Choice_only;
      ])

let extra_fact (c : compiled_case) = function
  | Fresh k -> Printf.sprintf "fresh_%d(u%d)." k k
  | Subject_id u -> Printf.sprintf "attr(subject, id, u%d)." u
  | Foreign_int -> c.int_fact "u7"
  | Choice_only -> "latent_pick."

(* Root rules whose one answer set picks [latent_spare]: no body reads
   [latent_pick], yet the fact [latent_pick.] leaves no answer set. *)
let choice_rules =
  Asg.Annotation.parse "1 { latent_pick ; latent_spare } 1. :- not latent_spare."

(* ... and a root rule that reads one subject id, as a relearn that made
   the id relevant would *)
let id_rules = Asg.Annotation.parse ":- attr(subject, id, u2)."

let gen_projected_input =
  QCheck2.Gen.(
    triple
      (int_bound (Array.length compiled_cases - 1))
      (pair (pair (list_size (int_bound 3) nat) bool) (pair bool bool))
      (list_size (int_range 1 4)
         (pair (pair nat gen_context_kind) (list_size (int_range 1 3) gen_extra))))

let projected_context c (k, extras) =
  Asp.Program.append (context_of c k)
    (Asp.Parser.parse_program
       (String.concat " " (List.map (extra_fact c) extras)))

let print_projected_input (ci, ((picks, latent), (choice, reads_id)), kinds) =
  let c = Lazy.force compiled_cases.(ci) in
  Printf.sprintf "%s, candidates [%s], latent %b, choice %b, reads id %b, contexts:\n%s"
    c.name
    (String.concat "; " (List.map string_of_int picks))
    latent choice reads_id
    (String.concat "\n---\n"
       (List.map (fun k -> Asp.Program.to_string (projected_context c k)) kinds))

(* Dropping what the model does not read changes no answer, and the
   compiled view, which decides on the projection, answers as the
   from-scratch check on the whole context. *)
let prop_projected_membership =
  QCheck2.Test.make ~name:"projected membership = unprojected membership"
    ~count:60 ~long_factor:10 ~print:print_projected_input gen_projected_input
    (fun (ci, ((picks, latent), (choice, reads_id)), kinds) ->
      let c = Lazy.force compiled_cases.(ci) in
      let g = compiled_model c (picks, latent) in
      let g = if choice then at_root g choice_rules else g in
      let g = if reads_id then at_root g id_rules else g in
      List.for_all
        (fun k ->
          let context = projected_context c k in
          let projected = Asg.Membership.project g context in
          List.for_all
            (fun s ->
              let tokens = Asg.Membership.tokenize s in
              let whole = Asg.Membership.accepts_uncompiled ~context g tokens in
              whole
              = Asg.Membership.accepts_uncompiled ~context:projected g tokens
              && whole = Asg.Membership.accepts_in_context g ~context s)
            c.sentences)
        kinds)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_cav_examples_consistent;
      prop_compiled_membership;
      prop_compiled_membership_par;
      prop_projected_membership;
    ]

let () =
  Alcotest.run "workloads"
    [
      ( "cav",
        [
          Alcotest.test_case "ground truth" `Quick test_cav_ground_truth;
          Alcotest.test_case "deterministic sampling" `Quick test_cav_sampling_deterministic;
          Alcotest.test_case "learns ground truth" `Slow test_cav_learns_ground_truth;
          Alcotest.test_case "dataset" `Quick test_cav_dataset;
          Alcotest.test_case "scenario space" `Quick test_cav_all_scenarios;
        ] );
      ( "xacml",
        [
          Alcotest.test_case "ground truth" `Quick test_xacml_ground_truth;
          Alcotest.test_case "policy matches oracle" `Quick test_xacml_policy_matches_oracle;
          Alcotest.test_case "noise injection" `Quick test_xacml_noise_injection;
          Alcotest.test_case "learned tree is a ground core" `Quick
            test_xacml_learned_tree_ground_core;
          Alcotest.test_case "more data helps" `Slow test_xacml_flat_learning_improves_with_data;
          Alcotest.test_case "hierarchy beats flat" `Slow test_xacml_hierarchy_beats_flat_when_sparse;
        ] );
      ( "resupply",
        [
          Alcotest.test_case "ground truth" `Quick test_resupply_ground_truth;
          Alcotest.test_case "learning" `Slow test_resupply_learning;
          Alcotest.test_case "campaign shift" `Quick test_resupply_campaign_shift;
          Alcotest.test_case "utility selection" `Slow test_resupply_utility_selection;
        ] );
      ( "convoy",
        [
          Alcotest.test_case "ground truth" `Quick test_convoy_ground_truth;
          Alcotest.test_case "counting annotations" `Quick test_convoy_counting_annotations;
          Alcotest.test_case "sentence roundtrip" `Quick test_convoy_sentence_roundtrip;
          Alcotest.test_case "learning" `Slow test_convoy_learning;
          Alcotest.test_case "generation" `Slow test_convoy_generation;
        ] );
      ( "data-sharing",
        [
          Alcotest.test_case "ground truth" `Quick test_data_sharing_ground_truth;
          Alcotest.test_case "learning" `Slow test_data_sharing_learning;
        ] );
      ( "federated",
        [
          Alcotest.test_case "ground truth" `Quick test_federated_ground_truth;
          Alcotest.test_case "learning" `Slow test_federated_learning;
        ] );
      ("properties", qcheck_cases);
    ]
