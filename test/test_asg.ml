(* Tests for the answer-set-grammar layer: annotation semantics, the G[PT]
   mapping, context-dependent membership, and language generation. *)

let parse_ctx = Asp.Parser.parse_program

(* The running CAV-style example: a decision grammar whose root annotation
   forbids accepting in risky contexts. *)
let decision_gpm () =
  Asg.Asg_parser.parse
    {| start -> decision { :- result(accept)@1, risky. }
       decision -> "accept" { result(accept). } | "reject" { result(reject). } |}

let test_asg_parse () =
  let g = decision_gpm () in
  let cfg = Asg.Gpm.cfg g in
  Alcotest.(check int) "3 productions" 3 (List.length (Grammar.Cfg.productions cfg));
  Alcotest.(check string) "start" "start" (Grammar.Cfg.start cfg);
  Alcotest.(check int) "root annotated" 1
    (List.length (Asg.Gpm.annotation g 0));
  Alcotest.(check int) "accept annotated" 1
    (List.length (Asg.Gpm.annotation g 1))

let test_annotation_parse_sites () =
  let r = Asg.Annotation.parse_rule_string ":- result(accept)@1, risky." in
  match r.Asg.Annotation.body with
  | [ Asg.Annotation.Pos a1; Asg.Annotation.Pos a2 ] ->
    Alcotest.(check bool) "site 1" true (a1.Asg.Annotation.site = Some 1);
    Alcotest.(check bool) "no site" true (a2.Asg.Annotation.site = None)
  | _ -> Alcotest.fail "expected two positive annotated atoms"

let test_annotation_pp_roundtrip () =
  let s = ":- result(accept)@1, risky." in
  let r = Asg.Annotation.parse_rule_string s in
  Alcotest.(check string) "roundtrip" s (Asg.Annotation.rule_to_string r)

let test_mangle () =
  Alcotest.(check string) "empty trace unchanged" "p"
    (Asg.Annotation.mangle_pred "p" []);
  Alcotest.(check string) "trace folded" "p@1_2"
    (Asg.Annotation.mangle_pred "p" [ 1; 2 ])

let test_tree_program () =
  let g = decision_gpm () in
  let trees = Grammar.Earley.parses_sentence (Asg.Gpm.cfg g) "accept" in
  let tree = List.hd trees in
  let prog = Asg.Tree_program.program g tree in
  let text = Asp.Program.to_string prog in
  let contains needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "child fact instantiated at trace [1]" true
    (contains "result@1(accept)" text)

let test_membership_no_context () =
  let g = decision_gpm () in
  Alcotest.(check bool) "accept ok w/o risky" true (Asg.Membership.accepts g "accept");
  Alcotest.(check bool) "reject ok" true (Asg.Membership.accepts g "reject");
  Alcotest.(check bool) "garbage rejected" false (Asg.Membership.accepts g "fly")

let test_membership_context () =
  let g = decision_gpm () in
  let risky = parse_ctx "risky." in
  Alcotest.(check bool) "accept blocked under risky" false
    (Asg.Membership.accepts_in_context g ~context:risky "accept");
  Alcotest.(check bool) "reject fine under risky" true
    (Asg.Membership.accepts_in_context g ~context:risky "reject")

let test_membership_context_rules () =
  (* context may contain rules, not only facts *)
  let g = decision_gpm () in
  let ctx = parse_ctx "risky :- weather(snow). weather(snow)." in
  Alcotest.(check bool) "derived risky blocks accept" false
    (Asg.Membership.accepts_in_context g ~context:ctx "accept")

let test_language_generation () =
  let g = decision_gpm () in
  let all = Asg.Language.sentences ~max_depth:4 g in
  Alcotest.(check (list string)) "both decisions" [ "accept"; "reject" ]
    (List.sort compare all);
  let risky = parse_ctx "risky." in
  let valid = Asg.Language.sentences_in_context ~max_depth:4 g ~context:risky in
  Alcotest.(check (list string)) "only reject under risky" [ "reject" ] valid

let test_witness () =
  let g = decision_gpm () in
  match Asg.Membership.witness g "accept" with
  | Some m ->
    Alcotest.(check bool) "witness mentions result@1(accept)" true
      (Asp.Atom.Set.exists
         (fun a -> String.length a.Asp.Atom.pred >= 6) m)
  | None -> Alcotest.fail "expected a witness"

(* Counting semantics: an annotation constraining subtree shape, in the
   spirit of the AAAI-19 ASG examples. The grammar generates a^n b^m and
   annotations require the counts to be equal via child-site atoms. *)
let test_structural_annotation () =
  let g =
    Asg.Asg_parser.parse
      {| start -> as bs { :- n(X)@1, n(Y)@2, X != Y. }
         as -> "a" as { n(X+1) :- n(X)@2. } | { n(0). }
         bs -> "b" bs { n(X+1) :- n(X)@2. } | { n(0). } |}
  in
  Alcotest.(check bool) "a a b b accepted" true
    (Asg.Membership.accepts g "a a b b");
  Alcotest.(check bool) "a b b rejected" false (Asg.Membership.accepts g "a b b");
  Alcotest.(check bool) "empty accepted" true (Asg.Membership.accepts g "")

let test_hypothesis_extension () =
  let g0 =
    Asg.Asg_parser.parse
      {| start -> decision
         decision -> "accept" { result(accept). } | "reject" { result(reject). } |}
  in
  (* without hypothesis everything is accepted *)
  let risky = parse_ctx "risky." in
  Alcotest.(check bool) "accept ok before learning" true
    (Asg.Membership.accepts_in_context g0 ~context:risky "accept");
  let h = Asg.Annotation.parse_rule_string ":- result(accept)@1, risky." in
  let g1 = Asg.Gpm.with_hypothesis g0 [ (0, h) ] in
  Alcotest.(check bool) "accept blocked after adding hypothesis" false
    (Asg.Membership.accepts_in_context g1 ~context:risky "accept")

let test_ranked_generation () =
  (* preferences via weak annotations: reject costs 1, accept costs 0 *)
  let g =
    Asg.Asg_parser.parse
      {| start -> decision { :~ result(reject)@1. [1] }
         decision -> "accept" { result(accept). } | "reject" { result(reject). } |}
  in
  let ranked = Asg.Language.ranked_sentences ~max_depth:4 g in
  Alcotest.(check (list (pair string int))) "accept preferred"
    [ ("accept", 0); ("reject", 1) ]
    ranked;
  match Asg.Language.best_sentence g ~context:Asp.Program.empty with
  | Some ("accept", 0) -> ()
  | _ -> Alcotest.fail "expected accept as best"

let test_ranked_respects_constraints () =
  let g =
    Asg.Asg_parser.parse
      {| start -> decision { :- result(accept)@1, risky. :~ result(reject)@1. [1] }
         decision -> "accept" { result(accept). } | "reject" { result(reject). } |}
  in
  let ctx = Asp.Parser.parse_program "risky." in
  match Asg.Language.best_sentence g ~context:ctx with
  | Some ("reject", 1) -> ()
  | other ->
    Alcotest.fail
      (match other with
      | Some (s, c) -> Printf.sprintf "got %s[%d]" s c
      | None -> "got none")

let test_render_roundtrip () =
  let g = decision_gpm () in
  let rendered = Asg.Asg_parser.render g in
  let g' = Asg.Asg_parser.parse rendered in
  (* same language behaviour before and after the roundtrip *)
  let risky = parse_ctx "risky." in
  List.iter
    (fun (ctx, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip agrees on %s" s)
        (Asg.Membership.accepts_in_context g ~context:ctx s)
        (Asg.Membership.accepts_in_context g' ~context:ctx s))
    [ (risky, "accept"); (risky, "reject");
      (Asp.Program.empty, "accept"); (Asp.Program.empty, "reject") ]

let test_render_includes_hypothesis () =
  let g0 = decision_gpm () in
  let h = Asg.Annotation.parse_rule_string ":- result(reject)@1, sunny." in
  let g1 = Asg.Gpm.with_hypothesis g0 [ (0, h) ] in
  let rendered = Asg.Asg_parser.render g1 in
  let contains needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "learned rule rendered" true
    (contains "result(reject)@1" rendered);
  let g2 = Asg.Asg_parser.parse rendered in
  Alcotest.(check bool) "reject blocked when sunny after reload" false
    (Asg.Membership.accepts_in_context g2 ~context:(parse_ctx "sunny.") "reject")

let test_gpm_clean () =
  let g =
    Asg.Asg_parser.parse
      {| start -> decision { :- bad@1. }
         decision -> "go" { ok. }
         orphan -> "x" { never. } |}
  in
  let cleaned = Asg.Gpm.clean g in
  Alcotest.(check int) "orphan removed" 2
    (List.length (Grammar.Cfg.productions (Asg.Gpm.cfg cleaned)));
  (* annotations survive on the re-numbered productions *)
  Alcotest.(check int) "root annotation kept" 1
    (List.length (Asg.Gpm.annotation cleaned 0));
  Alcotest.(check bool) "behaviour preserved" true
    (Asg.Membership.accepts cleaned "go")

let test_ambiguous_membership () =
  (* two parse trees; only one satisfies its annotation: still a member *)
  let g =
    Asg.Asg_parser.parse
      {| s -> a { :- bad@1. }
         a -> "x" b { bad. } | "x" c { }
         b -> { }
         c -> { } |}
  in
  Alcotest.(check bool) "one good tree suffices" true
    (Asg.Membership.accepts g "x")

(* A tally only counts. Under "bad." both parse trees of "x" are
   decided and rejected, so each counts once; the first ask compiles
   both cores and a second ask of the same value compiles none. A
   context with proper rules is decided from scratch and leaves the
   tally at zero. Every answer equals the tally-free one. *)
let test_membership_tally () =
  let g =
    Asg.Asg_parser.parse
      {| s -> a { :- bad@1. }
         a -> "x" b { bad. } | "x" c { }
         b -> { }
         c -> { } |}
  in
  let ask ?tally ctx =
    Asg.Membership.accepts_in_context ?tally g ~context:(parse_ctx ctx) "x"
  in
  let first = Asg.Membership.tally () in
  Alcotest.(check bool) "rejected under bad" false (ask ~tally:first "bad.");
  Alcotest.(check int) "one count per tree decided" 2 first.trees;
  Alcotest.(check int) "first ask compiles both cores" 2 first.compiles;
  Alcotest.(check bool) "facts instantiated" true (first.facts > 0);
  Alcotest.(check bool) "same answer without a tally" false (ask "bad.");
  let second = Asg.Membership.tally () in
  ignore (ask ~tally:second "bad.");
  Alcotest.(check int) "second ask decides both trees" 2 second.trees;
  Alcotest.(check int) "second ask compiles nothing" 0 second.compiles;
  let empty = Asg.Membership.tally () in
  Alcotest.(check bool) "accepted in the empty context" (ask "")
    (ask ~tally:empty "");
  Alcotest.(check bool) "the empty context compiles nothing" true
    (empty.trees > 0 && empty.compiles = 0);
  let rules = "bad :- trigger. trigger." in
  let untouched = Asg.Membership.tally () in
  Alcotest.(check bool) "rule context answers as without a tally"
    (ask rules) (ask ~tally:untouched rules);
  Alcotest.(check bool) "rule context leaves the tally at zero" true
    (untouched = Asg.Membership.tally ())

let test_context_copies_at_depth () =
  (* context facts materialize at every node; a deep annotation can read
     its own copy *)
  let g =
    Asg.Asg_parser.parse
      {| s -> m { }
         m -> "t" { :- blocked. } |}
  in
  let ctx = Asp.Parser.parse_program "blocked." in
  Alcotest.(check bool) "deep node sees its context copy" false
    (Asg.Membership.accepts_in_context g ~context:ctx "t")

let test_shared_annotation_exposed () =
  let g = Asg.Gpm.with_context (decision_gpm ()) (parse_ctx "risky.") in
  Alcotest.(check int) "shared rules recorded" 1
    (List.length (Asg.Gpm.shared g))

(* The compiled view belongs to one model value. The parent is asked
   first, so its memo holds "accept" compiled; every derivation starts
   with an empty memo (its first ask grounds its own core) and answers
   for itself: three of them forbid accept, and clean renumbers
   productions. *)
let test_compiled_view_per_value () =
  let parent =
    Asg.Asg_parser.parse
      {| start -> decision { :- result(accept)@1, risky. }
         orphan -> "x" { never. }
         decision -> "accept" { result(accept). } | "reject" { result(reject). } |}
  in
  let accept g = Asg.Membership.accepts g "accept" in
  let ground_calls () =
    Obs.Counter.value (Obs.Counter.make "asp.ground.calls")
  in
  Alcotest.(check bool) "parent accepts" true (accept parent);
  let before = ground_calls () in
  Alcotest.(check bool) "parent, from its memo" true (accept parent);
  Alcotest.(check int) "a memo hit grounds nothing" before (ground_calls ());
  let forbid = Asg.Annotation.parse_rule_string ":- result(accept)@1." in
  List.iter
    (fun (name, child, expected) ->
      let before = ground_calls () in
      Alcotest.(check bool) (name ^ ": answers for itself") expected
        (accept child);
      Alcotest.(check bool) (name ^ ": grounds its own core") true
        (ground_calls () > before))
    [
      ("with_hypothesis", Asg.Gpm.with_hypothesis parent [ (0, forbid) ], false);
      ("with_context", Asg.Gpm.with_context parent (parse_ctx "risky."), false);
      ("add_annotation", Asg.Gpm.add_annotation parent 0 [ forbid ], false);
      ("clean", Asg.Gpm.clean parent, true);
    ];
  Alcotest.(check bool) "the parent still accepts" true (accept parent)

(* ---- what a model reads ---------------------------------------------- *)

let atom = Asp.Parser.parse_atom_string

let check_reads g cases =
  List.iter
    (fun (fact, expected) ->
      Alcotest.(check bool) fact expected (Asg.Gpm.reads g (atom fact)))
    cases

(* Heads are reads. No body reads [p], yet the fact [p.] forces the
   choice to [p] and the constraint then fails: dropping it would turn a
   rejection into an acceptance. *)
let test_reads_choice_head () =
  let g = Asg.Asg_parser.parse {| start -> "go" { 1 { p ; q } 1. :- not q. } |} in
  let context = parse_ctx "p." in
  Alcotest.(check bool) "p is read" true (Asg.Gpm.reads g (atom "p"));
  Alcotest.(check bool) "kept" true (Asg.Membership.project g context == context);
  Alcotest.(check bool) "unsatisfiable under p" false
    (Asg.Membership.accepts_uncompiled ~context g [ "go" ]);
  Alcotest.(check bool) "and through the compiled view" false
    (Asg.Membership.accepts_in_context g ~context "go")

(* Patterns: arithmetic, intervals and variables match any value at any
   depth; constants and function symbols must agree; a repeated variable
   is not held to one value. *)
let test_reads_patterns () =
  let g =
    Asg.Asg_parser.parse
      {| start -> "go" { :- q(X), p(X+1). :- s(f(g(a), Y)), t(Y, Y). r(1..2). } |}
  in
  check_reads g
    [
      ("p(3)", true);
      ("p(a)", true);
      ("q(7)", true);
      ("r(5)", true);
      ("s(f(g(a), b))", true);
      ("s(f(g(b), b))", false);
      ("s(f(h(a), b))", false);
      ("s(f(g(a)))", false);
      ("s(f(g(a), b), c)", false);
      ("t(a, b)", true);
      ("p(1, 2)", false);
      ("fresh(1)", false);
    ];
  (* a fact with a non-value argument is always read *)
  check_reads g [ ("fresh(1..3)", true); ("fresh(1+2)", true); ("fresh(X)", true) ];
  let kept = parse_ctx "fresh(1..3). fresh(2*2). p(3)." in
  Alcotest.(check bool) "interval and arithmetic facts kept" true
    (Asg.Membership.project g kept == kept);
  (* a name with '@' can meet the trace encoding (a fact [m] at trace
     [1] is the atom [m@1]), so it is read from either side *)
  let encoded =
    Asg.Gpm.add_annotation g 0 [ Asg.Annotation.fact (Asp.Atom.prop "m@1") ]
  in
  Alcotest.(check bool) "m meets m@1" true (Asg.Gpm.reads encoded (atom "m"));
  Alcotest.(check bool) "a fact named with '@' is read" true
    (Asg.Gpm.reads g (Asp.Atom.make "fresh@2" [ Asp.Term.const "a" ]))

(* project: unread facts go, in order; nothing dropped is the same
   value; a rule context is returned as it is, unread facts and all *)
let test_project () =
  let g = decision_gpm () in
  let all_read = parse_ctx "risky. result(accept)." in
  Alcotest.(check bool) "every fact read: the same value" true
    (Asg.Membership.project g all_read == all_read);
  Alcotest.(check bool) "empty context: the same value" true
    (Asg.Membership.project g Asp.Program.empty == Asp.Program.empty);
  let rules = parse_ctx "weather(sun). risky :- storm. storm." in
  Alcotest.(check bool) "rule context: the same value" true
    (Asg.Membership.project g rules == rules);
  Alcotest.(check string) "unread facts dropped, order kept" "risky.\nrisky."
    (Asp.Program.to_string
       (Asg.Membership.project g
          (parse_ctx "weather(sun). risky. id(u1). risky. risky(1).")));
  List.iter
    (fun (ctx, s) ->
      let context = parse_ctx ctx in
      Alcotest.(check bool)
        (Printf.sprintf "%s under {%s}: projected = whole" s ctx)
        (Asg.Membership.accepts_uncompiled ~context g [ s ])
        (Asg.Membership.accepts_uncompiled
           ~context:(Asg.Membership.project g context) g [ s ]))
    [ ("risky. id(u1).", "accept"); ("id(u1).", "accept"); ("risky.", "reject") ]

(* the read index belongs to one model value: a hypothesis that reads
   the subject id keeps the fact its parent dropped, and the parent
   still drops it *)
let test_reads_per_value () =
  let parent =
    Asg.Asg_parser.parse
      {| start -> decision
         decision -> "permit" { result(permit). } | "deny" { result(deny). } |}
  in
  let id = atom "attr(subject, id, u1)" in
  let context = parse_ctx "attr(subject, id, u1)." in
  Alcotest.(check bool) "the parent does not read the id" false
    (Asg.Gpm.reads parent id);
  Alcotest.(check bool) "the parent drops it" true
    (Asp.Program.is_empty (Asg.Membership.project parent context));
  let child =
    Asg.Gpm.with_hypothesis parent
      [
        ( 0,
          Asg.Annotation.parse_rule_string
            ":- result(permit)@1, attr(subject, id, u1)." );
      ]
  in
  Alcotest.(check bool) "the child reads it" true (Asg.Gpm.reads child id);
  Alcotest.(check bool) "the child keeps it" true
    (Asg.Membership.project child context == context);
  Alcotest.(check bool) "and denies u1 the permit" false
    (Asg.Membership.accepts_in_context child ~context "permit");
  Alcotest.(check bool) "the parent still drops it" false
    (Asg.Gpm.reads parent id)

(* property: membership of an ASG is always a subset of its CFG language *)
let prop_language_subset_cfg =
  QCheck2.Test.make ~name:"L(G) subset of L(G_CF)" ~count:20
    QCheck2.Gen.(int_range 2 5)
    (fun depth ->
      let g = decision_gpm () in
      let valid = Asg.Language.sentences ~max_depth:depth g in
      List.for_all
        (fun s -> Grammar.Earley.recognize_sentence (Asg.Gpm.cfg g) s)
        valid)

let prop_context_monotone_restriction =
  (* adding constraints via context can only shrink the language *)
  QCheck2.Test.make ~name:"contexts only shrink valid decisions" ~count:20
    QCheck2.Gen.(bool)
    (fun risky_flag ->
      let g = decision_gpm () in
      let ctx = if risky_flag then parse_ctx "risky." else parse_ctx "" in
      let all = Asg.Language.sentences ~max_depth:4 g in
      let restricted = Asg.Language.sentences_in_context ~max_depth:4 g ~context:ctx in
      List.for_all (fun s -> List.mem s all) restricted)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_language_subset_cfg; prop_context_monotone_restriction ]

let () =
  Alcotest.run "asg"
    [
      ( "parsing",
        [
          Alcotest.test_case "asg parse" `Quick test_asg_parse;
          Alcotest.test_case "annotation sites" `Quick test_annotation_parse_sites;
          Alcotest.test_case "annotation roundtrip" `Quick test_annotation_pp_roundtrip;
          Alcotest.test_case "mangle" `Quick test_mangle;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "tree program" `Quick test_tree_program;
          Alcotest.test_case "membership no context" `Quick test_membership_no_context;
          Alcotest.test_case "membership context" `Quick test_membership_context;
          Alcotest.test_case "context rules" `Quick test_membership_context_rules;
          Alcotest.test_case "language generation" `Quick test_language_generation;
          Alcotest.test_case "witness" `Quick test_witness;
          Alcotest.test_case "structural annotation" `Quick test_structural_annotation;
          Alcotest.test_case "hypothesis extension" `Quick test_hypothesis_extension;
          Alcotest.test_case "ranked generation" `Quick test_ranked_generation;
          Alcotest.test_case "ranked respects constraints" `Quick test_ranked_respects_constraints;
          Alcotest.test_case "render roundtrip" `Quick test_render_roundtrip;
          Alcotest.test_case "render hypothesis" `Quick test_render_includes_hypothesis;
          Alcotest.test_case "gpm clean" `Quick test_gpm_clean;
          Alcotest.test_case "ambiguous membership" `Quick test_ambiguous_membership;
          Alcotest.test_case "context at depth" `Quick test_context_copies_at_depth;
          Alcotest.test_case "shared annotation" `Quick test_shared_annotation_exposed;
          Alcotest.test_case "compiled view per value" `Quick
            test_compiled_view_per_value;
          Alcotest.test_case "membership tally" `Quick test_membership_tally;
        ] );
      ( "reads",
        [
          Alcotest.test_case "choice heads are reads" `Quick
            test_reads_choice_head;
          Alcotest.test_case "patterns" `Quick test_reads_patterns;
          Alcotest.test_case "project" `Quick test_project;
          Alcotest.test_case "read index per value" `Quick test_reads_per_value;
        ] );
      ("properties", qcheck_cases);
    ]
