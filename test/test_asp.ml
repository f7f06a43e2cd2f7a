(* Tests for the ASP substrate: terms, parsing, grounding, solving. *)

let parse = Asp.Parser.parse_program
let solve = Asp.Solver.solve
let atom = Asp.Parser.parse_atom_string

let model_strings (m : Asp.Solver.model) =
  List.map Asp.Atom.to_string (Asp.Atom.Set.elements m)

let sorted_models p =
  solve (parse p)
  |> List.map model_strings
  |> List.sort compare

let check_models name program expected =
  Alcotest.(check (list (list string))) name (List.sort compare expected)
    (sorted_models program)

(* ---- Term tests ---- *)

let test_term_eval () =
  let t = Asp.Term.(Binop (Add, Int 2, Binop (Mul, Int 3, Int 4))) in
  Alcotest.(check bool) "2+3*4 = 14" true
    (Asp.Term.eval t = Some (Asp.Term.Int 14));
  Alcotest.(check bool) "div by zero" true
    (Asp.Term.eval Asp.Term.(Binop (Div, Int 1, Int 0)) = None);
  Alcotest.(check bool) "var not evaluable" true
    (Asp.Term.eval (Asp.Term.Var "X") = None)

let test_term_match () =
  let open Asp.Term in
  let p = Fun ("f", [ Var "X"; Var "X" ]) in
  Alcotest.(check bool) "f(X,X) matches f(a,a)" true
    (match_term subst_empty p (Fun ("f", [ const "a"; const "a" ])) <> None);
  Alcotest.(check bool) "f(X,X) rejects f(a,b)" true
    (match_term subst_empty p (Fun ("f", [ const "a"; const "b" ])) = None)

let test_term_vars () =
  let open Asp.Term in
  let t = Fun ("f", [ Var "X"; Fun ("g", [ Var "Y"; Var "X" ]) ]) in
  Alcotest.(check (list string)) "vars order, no dups" [ "X"; "Y" ] (vars t)

(* ---- Parser tests ---- *)

let test_parse_fact () =
  let p = parse "p(a, 1)." in
  Alcotest.(check int) "one rule" 1 (Asp.Program.size p);
  Alcotest.(check string) "roundtrip" "p(a, 1)."
    (Asp.Rule.to_string (List.hd (Asp.Program.rules p)))

let test_parse_rule () =
  let r = Asp.Parser.parse_rule_string "q(X) :- p(X, Y), not r(Y), X > 3." in
  Alcotest.(check bool) "safe" true (Asp.Rule.is_safe r);
  Alcotest.(check string) "roundtrip" "q(X) :- p(X, Y), not r(Y), X > 3."
    (Asp.Rule.to_string r)

let test_parse_constraint () =
  let r = Asp.Parser.parse_rule_string ":- p(X), q(X)." in
  Alcotest.(check bool) "is constraint" true (Asp.Rule.is_constraint r)

let test_parse_choice () =
  let r = Asp.Parser.parse_rule_string "1 { sel(X) : opt(X) } 1 :- go." in
  match r.Asp.Rule.head with
  | Asp.Rule.Choice (Some 1, [ e ], Some 1) ->
    Alcotest.(check string) "element" "sel(X)"
      (Asp.Atom.to_string e.Asp.Rule.choice_atom)
  | _ -> Alcotest.fail "expected a bounded choice head"

let test_parse_interval () =
  let p = parse "num(1..3)." in
  let gp = Asp.Grounder.ground p in
  Alcotest.(check int) "three atoms" 3 (Asp.Grounder.atom_count gp)

let test_parse_errors () =
  (try
     ignore (parse "p(a)");
     Alcotest.fail "expected parse error"
   with Asp.Parser.Parse_error _ -> ());
  match parse "" with
  | p -> Alcotest.(check int) "empty program ok" 0 (Asp.Program.size p)

let test_parse_string_constant () =
  let a = atom "label(\"hello world\")" in
  Alcotest.(check string) "string const kept" "label(\"hello world\")"
    (Asp.Atom.to_string a)

(* ---- Grounder tests ---- *)

let test_ground_simple () =
  let p = parse "p(a). p(b). q(X) :- p(X)." in
  let gp = Asp.Grounder.ground p in
  Alcotest.(check int) "4 atoms" 4 (Asp.Grounder.atom_count gp);
  Alcotest.(check int) "4 rules" 4 (Asp.Grounder.size gp)

let test_ground_join () =
  let p = parse "e(a,b). e(b,c). path(X,Y) :- e(X,Y). path(X,Z) :- e(X,Y), path(Y,Z)." in
  let models = solve p in
  Alcotest.(check int) "unique model" 1 (List.length models);
  let m = List.hd models in
  Alcotest.(check bool) "path(a,c)" true (Asp.Atom.Set.mem (atom "path(a,c)") m)

let test_ground_unsafe () =
  let p = parse "p(X)." in
  Alcotest.(check bool) "unsafe raises" true
    (try
       ignore (Asp.Grounder.ground p);
       false
     with Asp.Grounder.Unsafe_rule _ -> true)

let test_ground_arith () =
  let p = parse "n(1). n(2). m(X + 1) :- n(X)." in
  let m = List.hd (solve p) in
  Alcotest.(check bool) "m(3)" true (Asp.Atom.Set.mem (atom "m(3)") m);
  Alcotest.(check bool) "m(2)" true (Asp.Atom.Set.mem (atom "m(2)") m)

let test_ground_comparison () =
  let p = parse "n(1..5). big(X) :- n(X), X >= 4." in
  let m = List.hd (solve p) in
  let bigs = Asp.Atom.Set.filter (fun a -> a.Asp.Atom.pred = "big") m in
  Alcotest.(check int) "two bigs" 2 (Asp.Atom.Set.cardinal bigs)

let test_ground_eq_binding () =
  let p = parse "n(2). m(Y) :- n(X), Y = X * 10." in
  let m = List.hd (solve p) in
  Alcotest.(check bool) "m(20)" true (Asp.Atom.Set.mem (atom "m(20)") m)

let test_ground_neg_underivable () =
  (* not q is trivially true when q can never be derived *)
  let p = parse "p :- not q." in
  check_models "derives p" "p :- not q." [ [ "p" ] ];
  ignore p

(* Regression tests for negative body literals mentioning atoms outside
   the possible-atom base. Earlier grounder revisions silently dropped
   the whole rule; the documented semantics (grounder.mli) is that each
   underivable conjunct is vacuously true and removed, keeping the
   instance. Interval arguments in a negative literal denote the
   conjunction over the expansion. *)

let test_neg_interval_underivable () =
  check_models "whole interval underivable" "p :- not q(1..2)." [ [ "p" ] ]

let test_neg_interval_partial_base () =
  (* q(2) is underivable so its conjunct drops; not q(1) remains and
     fails, blocking p *)
  check_models "interval partially in base" "q(1). p :- not q(1..2)."
    [ [ "q(1)" ] ]

let test_neg_interval_full_base () =
  check_models "interval fully in base" "q(1). q(2). p :- not q(1..2)."
    [ [ "q(1)"; "q(2)" ] ]

let test_neg_interval_conjunction_choice () =
  (* conjunction semantics: p holds iff no expansion member does *)
  check_models "conjunction under choice" "{ q(1) }. p :- not q(1..2)."
    [ [ "p" ]; [ "q(1)" ] ]

let test_neg_nonground_outside_base () =
  check_models "non-ground neg literal never derivable"
    "n(1..2). p(X) :- n(X), not q(X)."
    [ [ "n(1)"; "n(2)"; "p(1)"; "p(2)" ] ]

(* ---- Dependency tests ---- *)

let test_stratified () =
  let p = parse "p(a). q(X) :- p(X), not r(X). r(b)." in
  Alcotest.(check bool) "stratified" true (Asp.Dependency.is_stratified p)

let test_not_stratified () =
  let p = parse "p :- not q. q :- not p." in
  Alcotest.(check bool) "unstratified" false (Asp.Dependency.is_stratified p)

let test_sccs () =
  let p = parse "a :- b. b :- a. c :- a." in
  let g = Asp.Dependency.build p in
  let comps = Asp.Dependency.sccs g in
  let sizes = List.sort compare (List.map List.length comps) in
  Alcotest.(check (list int)) "one 2-scc" [ 1; 2 ] sizes

(* ---- Solver tests ---- *)

let test_solve_definite () =
  check_models "facts and rules" "p(a). q(X) :- p(X)." [ [ "p(a)"; "q(a)" ] ]

let test_solve_negation_two_models () =
  check_models "even loop" "p :- not q. q :- not p." [ [ "p" ]; [ "q" ] ]

let test_solve_odd_loop_unsat () =
  check_models "odd loop has no model" "p :- not p." []

let test_solve_constraint () =
  check_models "constraint filters" "p :- not q. q :- not p. :- q." [ [ "p" ] ]

let test_solve_unsupported_false () =
  check_models "positive loop unfounded" "a :- b. b :- a." [ [] ]

let test_solve_choice () =
  let ms = sorted_models "{ a; b }." in
  Alcotest.(check int) "4 models" 4 (List.length ms)

let test_solve_choice_bounds () =
  let ms = sorted_models "1 { a; b } 1." in
  Alcotest.(check (list (list string))) "exactly-one" [ [ "a" ]; [ "b" ] ] ms

let test_solve_choice_conditional () =
  let ms = sorted_models "opt(x). opt(y). 1 { sel(V) : opt(V) } 1." in
  Alcotest.(check int) "two models" 2 (List.length ms);
  List.iter
    (fun m ->
      let sels =
        List.filter (fun s -> String.length s >= 3 && String.sub s 0 3 = "sel") m
      in
      Alcotest.(check int) "one sel each" 1 (List.length sels))
    ms

let test_solve_choice_body () =
  check_models "choice body blocked" "{ a } :- go." [ [] ];
  let ms = sorted_models "go. { a } :- go." in
  Alcotest.(check int) "go enables choice" 2 (List.length ms)

let test_solve_limit () =
  let ms = Asp.Solver.solve ~limit:2 (parse "{ a; b; c }.") in
  Alcotest.(check int) "limit respected" 2 (List.length ms)

let test_has_answer_set () =
  Alcotest.(check bool) "sat" true (Asp.Solver.has_answer_set (parse "p."));
  Alcotest.(check bool) "unsat" false
    (Asp.Solver.has_answer_set (parse "p. :- p."))

let test_brave_cautious () =
  let p = parse "a :- not b. b :- not a. c." in
  let brave = Asp.Solver.brave_consequences p in
  let cautious = Asp.Solver.cautious_consequences p in
  Alcotest.(check int) "brave has a,b,c" 3 (Asp.Atom.Set.cardinal brave);
  Alcotest.(check (list string)) "cautious only c" [ "c" ]
    (List.map Asp.Atom.to_string (Asp.Atom.Set.elements cautious))

let test_solver_stability_subtle () =
  (* {p,q} is a supported model of this program but not stable *)
  check_models "unfounded set rejected" "p :- q. q :- p. r :- not p."
    [ [ "r" ] ]

let test_double_negation_choice_equiv () =
  let via_choice = sorted_models "{ a }." in
  Alcotest.(check (list (list string))) "two models" [ []; [ "a" ] ] via_choice

(* well-founded seeding assigns atoms outside unit propagation, and
   [asp.solve.propagations] counts them: here seeding decides every atom
   of the base (p, q true; r, s false), so the search makes no decision
   and the counter moves by exactly the four seeded atoms *)
let test_wellfounded_seed_propagations () =
  let gp = Asp.Grounder.ground (parse "p. q :- p. r :- not q. s :- r.") in
  let counter n = Obs.Counter.value (Obs.Counter.make n) in
  let props = counter "asp.solve.propagations"
  and decisions = counter "asp.solve.decisions" in
  Alcotest.(check (list (list string))) "the well-founded model"
    [ [ "p"; "q" ] ]
    (List.map model_strings (Asp.Solver.solve_ground gp));
  Alcotest.(check int) "no search decision" decisions
    (counter "asp.solve.decisions");
  Alcotest.(check int) "one propagation per seeded atom"
    (props + Asp.Grounder.atom_count gp)
    (counter "asp.solve.propagations");
  Alcotest.(check int) "four atoms in the base" 4 (Asp.Grounder.atom_count gp)

(* the well-founded bounds leave q and r open (not total) and p true:
   the search finds both models, each with p *)
let test_wellfounded_bounds () =
  let gp = Asp.Grounder.ground (parse "p. q :- not r. r :- not q.") in
  Alcotest.(check (list (list string))) "two models, both with p"
    [ [ "p"; "q" ]; [ "p"; "r" ] ]
    (List.sort compare (List.map model_strings (Asp.Solver.solve_ground gp)))

let test_graph_coloring () =
  let prog =
    "node(1..3). edge(1,2). edge(2,3). edge(1,3). col(r). col(g). col(b). \
     1 { color(N,C) : col(C) } 1 :- node(N). \
     :- edge(X,Y), color(X,C), color(Y,C)."
  in
  let ms = solve (parse prog) in
  Alcotest.(check int) "6 colorings" 6 (List.length ms)

let test_context_facts () =
  let p = parse "ok :- ctx(good)." in
  let with_ctx = Asp.Program.with_facts p [ atom "ctx(good)" ] in
  Alcotest.(check bool) "context activates" true
    (Asp.Atom.Set.mem (atom "ok") (List.hd (solve with_ctx)))

(* ---- Weak constraints / optimization ---- *)

let test_weak_parse_roundtrip () =
  let r = Asp.Parser.parse_rule_string ":~ pick(X), cost(X, C). [C]" in
  Alcotest.(check bool) "safe" true (Asp.Rule.is_safe r);
  Alcotest.(check string) "roundtrip" ":~ pick(X), cost(X, C). [C]"
    (Asp.Rule.to_string r)

let test_weak_optimal () =
  let p =
    parse
      "1 { pick(a); pick(b); pick(c) } 1. cost(a, 3). cost(b, 1). cost(c, 2).        :~ pick(X), cost(X, C). [C]"
  in
  match Asp.Solver.solve_optimal p with
  | None -> Alcotest.fail "expected models"
  | Some (models, cost) ->
    Alcotest.(check int) "minimal cost 1" 1 cost;
    Alcotest.(check int) "unique optimum" 1 (List.length models);
    Alcotest.(check bool) "picks b" true
      (Asp.Atom.Set.mem (atom "pick(b)") (List.hd models))

let test_weak_no_weak_constraints_cost_zero () =
  let p = parse "p." in
  match Asp.Solver.solve_optimal p with
  | Some ([ _ ], 0) -> ()
  | _ -> Alcotest.fail "expected single zero-cost model"

let test_weak_ranked_order () =
  let p = parse "{ a }. :~ not a. [5]" in
  match Asp.Solver.solve_ranked p with
  | [ (m1, 0); (_, 5) ] ->
    Alcotest.(check bool) "cheapest has a" true
      (Asp.Atom.Set.mem (atom "a") m1)
  | _ -> Alcotest.fail "expected two ranked models"

let test_weak_ties () =
  let p = parse "1 { pick(a); pick(b) } 1. :~ pick(X). [1]" in
  match Asp.Solver.solve_optimal p with
  | Some (models, 1) -> Alcotest.(check int) "two tied optima" 2 (List.length models)
  | _ -> Alcotest.fail "expected cost-1 optima"

let test_weak_does_not_affect_satisfiability () =
  let p = parse "p. :~ p. [100]" in
  Alcotest.(check bool) "still satisfiable" true (Asp.Solver.has_answer_set p)

(* ---- Property-based tests ---- *)

let gen_small_term =
  QCheck2.Gen.(
    sized_size (int_bound 3) @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [ map (fun i -> Asp.Term.Int i) (int_bound 20);
              map (fun s -> Asp.Term.const ("c" ^ string_of_int s)) (int_bound 5);
              map (fun s -> Asp.Term.Var ("V" ^ string_of_int s)) (int_bound 3) ]
        else
          oneof
            [ map (fun i -> Asp.Term.Int i) (int_bound 20);
              map2
                (fun f args -> Asp.Term.Fun ("f" ^ string_of_int f, args))
                (int_bound 3)
                (list_size (int_bound 3) (self (n - 1))) ]))

let prop_term_compare_refl =
  QCheck2.Test.make ~name:"term compare is reflexive" ~count:200 gen_small_term
    (fun t -> Asp.Term.compare t t = 0)

let prop_term_subst_ground =
  QCheck2.Test.make ~name:"substituting all vars grounds the term" ~count:200
    gen_small_term (fun t ->
      let s =
        List.fold_left
          (fun s v -> Asp.Term.subst_bind v (Asp.Term.int 0) s)
          Asp.Term.subst_empty (Asp.Term.vars t)
      in
      Asp.Term.is_ground (Asp.Term.apply s t))

let prop_term_match_sound =
  QCheck2.Test.make ~name:"match then apply reproduces target" ~count:200
    gen_small_term (fun pat ->
      let s0 =
        List.fold_left
          (fun s v -> Asp.Term.subst_bind v (Asp.Term.const "k") s)
          Asp.Term.subst_empty (Asp.Term.vars pat)
      in
      let target = Asp.Term.apply s0 pat in
      match Asp.Term.match_term Asp.Term.subst_empty pat target with
      | Some s -> Asp.Term.equal (Asp.Term.apply s pat) target
      | None -> false)

let prop_choice_models_within_bounds =
  QCheck2.Test.make ~name:"choice bounds hold in every model" ~count:50
    QCheck2.Gen.(pair (int_range 0 2) (int_range 2 3))
    (fun (l, u) ->
      let prog = Printf.sprintf "%d { a; b; c } %d." l u in
      let ms = solve (parse prog) in
      List.for_all
        (fun m ->
          let k = Asp.Atom.Set.cardinal m in
          k >= l && k <= u)
        ms)

let prop_models_satisfy_constraints =
  QCheck2.Test.make ~name:"no model satisfies a constraint body" ~count:30
    QCheck2.Gen.(int_range 1 3)
    (fun n ->
      let prog =
        Printf.sprintf "{ a; b; c }. :- a, b. p(1..%d). q(X) :- p(X), not a." n
      in
      let ms = solve (parse prog) in
      List.for_all
        (fun m ->
          not (Asp.Atom.Set.mem (atom "a") m && Asp.Atom.Set.mem (atom "b") m))
        ms)

(* ---- Edge cases ---- *)

let test_interval_reversed () =
  (* 5..1 denotes the empty range *)
  let p = parse "n(5..1). ok :- not n(3)." in
  check_models "empty interval" "n(5..1). ok :- not n(3)." [ [ "ok" ] ];
  ignore p

let test_negative_integers () =
  let p = parse "t(-3). u(X + 5) :- t(X)." in
  let m = List.hd (solve p) in
  Alcotest.(check bool) "u(2)" true (Asp.Atom.Set.mem (atom "u(2)") m)

let test_arithmetic_mod_div () =
  let m = List.hd (solve (parse "n(7). q(X / 2, X \\ 2) :- n(X).")) in
  Alcotest.(check bool) "q(3,1)" true (Asp.Atom.Set.mem (atom "q(3, 1)") m)

let test_empty_choice () =
  check_models "empty choice is vacuous" "{ }. p." [ [ "p" ] ]

let test_choice_zero_bounds () =
  (* 0 { a } 0 forbids a *)
  check_models "zero-zero bounds" "0 { a } 0." [ [] ]

let test_contradictory_facts_constraint () =
  check_models "fact killed by constraint" "p. :- p." []

let test_deep_function_nesting () =
  let p = parse "v(f(g(h(a)))). w(X) :- v(f(X))." in
  let m = List.hd (solve p) in
  Alcotest.(check bool) "w(g(h(a)))" true
    (Asp.Atom.Set.mem (atom "w(g(h(a)))") m)

let test_constraint_only_program () =
  (* constraints over underivable atoms are vacuous *)
  check_models "vacuous constraint" ":- ghost." [ [] ]

let test_solver_many_models_limit_order () =
  let ms = Asp.Solver.solve ~limit:3 (parse "{ a; b; c; d }.") in
  Alcotest.(check int) "exactly 3" 3 (List.length ms)

let test_cautious_on_unsat () =
  Alcotest.(check int) "cautious of unsat program is empty" 0
    (Asp.Atom.Set.cardinal
       (Asp.Solver.cautious_consequences (parse "p. :- p.")))

(* ---- Aggregates (#count) ---- *)

let test_count_constraint () =
  check_models "count cap violated" "in(a). in(b). in(c). :- #count { X : in(X) } > 2." [];
  check_models "count cap respected"
    "in(a). in(b). :- #count { X : in(X) } > 2."
    [ [ "in(a)"; "in(b)" ] ]

let test_count_with_choice () =
  (* choose any subset of 4 options but at most 2 *)
  let ms =
    solve
      (parse
         "opt(1..4). { pick(X) : opt(X) }. :- #count { X : pick(X) } > 2.")
  in
  (* 1 empty + 4 singletons + 6 pairs = 11 *)
  Alcotest.(check int) "11 models" 11 (List.length ms)

let test_count_lower_bound () =
  let ms =
    solve
      (parse
         "opt(1..3). { pick(X) : opt(X) }. :- #count { X : pick(X) } < 2.")
  in
  (* 3 pairs + 1 triple = 4 *)
  Alcotest.(check int) "4 models" 4 (List.length ms)

let test_count_outer_variable () =
  (* per-group cap: no group may have 2 or more members picked *)
  let prog =
    "group(g1). group(g2). member(g1, a). member(g1, b). member(g2, c).      { pick(X) : member(G, X) }.      :- group(G), #count { X : pick(X), member(G, X) } >= 2."
  in
  let ms = solve (parse prog) in
  (* a,b cannot be together: subsets of {a,b,c} minus {ab, abc} = 6 *)
  Alcotest.(check int) "6 models" 6 (List.length ms);
  List.iter
    (fun m ->
      Alcotest.(check bool) "a and b never together" false
        (Asp.Atom.Set.mem (atom "pick(a)") m
        && Asp.Atom.Set.mem (atom "pick(b)") m))
    ms

let test_count_in_weak () =
  (* prefer fewer picks: minimal model has exactly the forced pick *)
  let prog =
    "opt(1..3). { pick(X) : opt(X) }. :- #count { X : pick(X) } < 1.      :~ pick(X). [1]"
  in
  match Asp.Solver.solve_optimal (parse prog) with
  | Some (ms, 1) -> Alcotest.(check int) "three minimal singletons" 3 (List.length ms)
  | _ -> Alcotest.fail "expected cost-1 optima"

let test_count_in_normal_rule_rejected () =
  let p = parse "in(a). big :- #count { X : in(X) } > 0." in
  Alcotest.(check bool) "aggregate in normal rule rejected" true
    (try
       ignore (Asp.Grounder.ground p);
       false
     with Asp.Grounder.Aggregate_in_rule _ -> true)

let test_count_pp_roundtrip () =
  let text = ":- group(G), #count { X : pick(X), member(G, X) } >= 2." in
  let r = Asp.Parser.parse_rule_string text in
  Alcotest.(check string) "roundtrip" text (Asp.Rule.to_string r);
  Alcotest.(check bool) "safe" true (Asp.Rule.is_safe r)

let test_count_value_api () =
  let m =
    List.hd (solve (parse "in(a). in(b). tag(a, x). tag(b, x)."))
  in
  let c =
    match
      Asp.Parser.parse_rule_string ":- #count { X : in(X) } > 0."
    with
    | { Asp.Rule.body = [ Asp.Rule.Count c ]; _ } -> c
    | _ -> Alcotest.fail "unexpected parse"
  in
  Alcotest.(check int) "two members" 2 (Asp.Query.count_value m c)

(* ---- Justifications ---- *)

let test_justify_chain () =
  (* d is derivable in principle (choice) but forbidden, so the negative
     literal survives grounding and shows up in the justification *)
  let p = parse "a. b :- a. { d }. :- d. c :- b, not d." in
  let gp = Asp.Grounder.ground p in
  let m = List.hd (Asp.Solver.solve_ground gp) in
  match Asp.Justification.justify gp m (atom "c") with
  | Some j ->
    Alcotest.(check int) "depth 3 chain" 3 (Asp.Justification.depth j);
    (match j with
    | Asp.Justification.Derived { absent = [ d ]; _ } ->
      Alcotest.(check string) "absence of d recorded" "d" (Asp.Atom.to_string d)
    | _ -> Alcotest.fail "expected a derived node with one absent atom")
  | None -> Alcotest.fail "expected justification for c"

let test_justify_fact () =
  let p = parse "a." in
  let gp = Asp.Grounder.ground p in
  let m = List.hd (Asp.Solver.solve_ground gp) in
  match Asp.Justification.justify gp m (atom "a") with
  | Some (Asp.Justification.Fact _) -> ()
  | _ -> Alcotest.fail "expected a fact justification"

let test_justify_choice () =
  let p = parse "go. 1 { pick(a); pick(b) } 1 :- go." in
  let gp = Asp.Grounder.ground p in
  let m = List.hd (Asp.Solver.solve_ground gp) in
  let chosen =
    Asp.Atom.Set.elements m
    |> List.find (fun (a : Asp.Atom.t) -> a.Asp.Atom.pred = "pick")
  in
  match Asp.Justification.justify gp m chosen with
  | Some (Asp.Justification.Chosen { premises = [ _go ]; _ }) -> ()
  | _ -> Alcotest.fail "expected a chosen justification with the go premise"

let test_justify_not_in_model () =
  let p = parse "a :- not b." in
  let gp = Asp.Grounder.ground p in
  let m = List.hd (Asp.Solver.solve_ground gp) in
  Alcotest.(check bool) "b has no justification" true
    (Asp.Justification.justify gp m (atom "b") = None)

let test_justify_all_covers_model () =
  let p = parse "n(1..3). d(X + X) :- n(X). { extra }." in
  let gp = Asp.Grounder.ground p in
  List.iter
    (fun m ->
      let table = Asp.Justification.justify_all gp m in
      Asp.Atom.Set.iter
        (fun a ->
          Alcotest.(check bool)
            (Asp.Atom.to_string a ^ " justified")
            true
            (Asp.Atom.Map.mem a table))
        m)
    (Asp.Solver.solve_ground gp)

(* ---- Differential testing against a brute-force reference ---- *)

(* An independent stable-model checker for propositional programs with
   normal rules ([`Atom]), constraints ([`False]) and choice rules
   ([`Choice (lower, elements, upper)], elements distinct): enumerate all
   interpretations; M is stable iff the least model of the
   Gelfond-Lifschitz reduct equals M, no constraint body holds in M, and
   every choice rule whose body holds in M has between [lower] and
   [upper] of its elements in M. In the reduct, a rule whose negative
   body holds in M keeps its positive body, and a choice rule derives
   each of its elements in M. Kept deliberately naive and separate from
   the solver implementation. *)
let reference_stable_models rules (atoms : string list) : string list list =
  let subsets =
    List.fold_left
      (fun acc a -> acc @ List.map (fun s -> a :: s) acc)
      [ [] ] atoms
  in
  let stable m =
    let in_m a = List.mem a m in
    let body_holds pos neg =
      List.for_all in_m pos && List.for_all (fun a -> not (in_m a)) neg
    in
    (* constraints and choice bounds, where the body holds *)
    let bodies_ok =
      List.for_all
        (fun (head, pos, neg) ->
          (not (body_holds pos neg))
          ||
          match head with
          | `Atom _ -> true
          | `False -> false
          | `Choice (lower, elements, upper) ->
            let k = List.length (List.filter in_m elements) in
            (match lower with Some l -> k >= l | None -> true)
            && match upper with Some u -> k <= u | None -> true)
        rules
    in
    if not bodies_ok then false
    else begin
      (* least model of the reduct *)
      let reduct =
        List.concat_map
          (fun (head, pos, neg) ->
            if not (List.for_all (fun a -> not (in_m a)) neg) then []
            else
              match head with
              | `Atom h -> [ (h, pos) ]
              | `False -> []
              | `Choice (_, elements, _) ->
                List.filter_map
                  (fun e -> if in_m e then Some (e, pos) else None)
                  elements)
          rules
      in
      let derived = ref [] in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (h, pos) ->
            if
              (not (List.mem h !derived))
              && List.for_all (fun a -> List.mem a !derived) pos
            then begin
              derived := h :: !derived;
              changed := true
            end)
          reduct
      done;
      List.sort compare !derived = List.sort compare m
    end
  in
  List.filter stable subsets |> List.map (List.sort compare) |> List.sort compare

let random_propositional_program =
  QCheck2.Gen.(
    let atom_g = oneofl [ "a"; "b"; "c"; "d" ] in
    let lit_list = list_size (int_range 0 2) atom_g in
    let bound = option (int_range 0 2) in
    let head_g =
      frequency
        [
          (2, map (fun a -> `Atom a) atom_g);
          (1, return `False);
          ( 1,
            map3
              (fun lower elements upper ->
                `Choice (lower, List.sort_uniq compare elements, upper))
              bound
              (list_size (int_range 1 3) atom_g)
              bound );
        ]
    in
    let rule_g =
      map3 (fun head pos neg -> (head, pos, neg)) head_g lit_list lit_list
    in
    (* drop degenerate empty-body constraints *)
    map
      (List.filter (fun (h, p, n) -> h <> `False || p <> [] || n <> []))
      (list_size (int_range 1 6) rule_g))

let rules_to_source rules =
  String.concat " "
    (List.map
       (fun (head, pos, neg) ->
         let body = pos @ List.map (fun a -> "not " ^ a) neg in
         let head =
           match head with
           | `Atom h -> h
           | `False -> ""
           | `Choice (lower, elements, upper) ->
             let bound = Option.fold ~none:"" ~some:string_of_int in
             Printf.sprintf "%s { %s } %s" (bound lower)
               (String.concat " ; " elements)
               (bound upper)
         in
         match body with
         | [] -> head ^ "."
         | body -> head ^ " :- " ^ String.concat ", " body ^ ".")
       rules)

let sorted_model_strings models =
  List.map (fun m -> List.sort compare (model_strings m)) models
  |> List.sort compare

let prop_solver_matches_reference =
  QCheck2.Test.make ~name:"solver agrees with brute-force reference" ~count:300
    ~print:rules_to_source random_propositional_program (fun rules ->
      QCheck2.assume (rules <> []);
      let solver_models =
        sorted_model_strings (Asp.Solver.solve (parse (rules_to_source rules)))
      in
      solver_models = reference_stable_models rules [ "a"; "b"; "c"; "d" ])

(* the well-founded seeding only narrows the search: with it off, the
   search alone finds the same models *)
let prop_wellfounded_seed_preserves_models =
  QCheck2.Test.make ~name:"solve without well-founded seeding = with it"
    ~count:300 ~print:rules_to_source random_propositional_program
    (fun rules ->
      QCheck2.assume (rules <> []);
      let gp = Asp.Grounder.ground (parse (rules_to_source rules)) in
      sorted_model_strings (Asp.Solver.solve_ground ~wellfounded:false gp)
      = sorted_model_strings (Asp.Solver.solve_ground gp))

(* ---- Differential testing of the grounder itself ---- *)

(* An independent naive reference grounder for function-free,
   interval-free normal programs: enumerate every substitution against
   the possible-atom base, iterate to fixpoint, then instantiate. It is
   deliberately quadratic and shares no code with the semi-naive indexed
   implementation in Asp.Grounder. *)
let reference_ground (p : Asp.Program.t) :
    Asp.Grounder.ground_rule list * Asp.Atom.Set.t =
  let open Asp in
  let rules = Program.rules p in
  let split r =
    List.fold_left
      (fun (pos, neg, cmps) -> function
        | Rule.Pos a -> (a :: pos, neg, cmps)
        | Rule.Neg a -> (pos, a :: neg, cmps)
        | Rule.Cmp (op, t1, t2) -> (pos, neg, (op, t1, t2) :: cmps)
        | Rule.Count _ -> (pos, neg, cmps))
      ([], [], []) r.Rule.body
    |> fun (pos, neg, cmps) -> (List.rev pos, List.rev neg, List.rev cmps)
  in
  (* all substitutions matching the positive literals against [base] *)
  let rec enum base subst pos k =
    match pos with
    | [] -> k subst
    | a :: rest ->
      Atom.Set.iter
        (fun b ->
          match Atom.match_atom subst a b with
          | Some s -> enum base s rest k
          | None -> ())
        base
  in
  let cmp_ok s (op, t1, t2) =
    Rule.eval_cmp op (Term.apply s t1) (Term.apply s t2)
  in
  let base = ref Atom.Set.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun r ->
        match r.Rule.head with
        | Rule.Head h ->
          let pos, _, cmps = split r in
          enum !base Term.subst_empty pos (fun s ->
              if List.for_all (cmp_ok s) cmps then begin
                let hg = Atom.apply s h in
                if not (Atom.Set.mem hg !base) then begin
                  base := Atom.Set.add hg !base;
                  changed := true
                end
              end)
        | _ -> ())
      rules
  done;
  let grules = ref [] in
  List.iter
    (fun r ->
      match r.Rule.head with
      | Rule.Head h ->
        let pos, neg, cmps = split r in
        enum !base Term.subst_empty pos (fun s ->
            if List.for_all (cmp_ok s) cmps then begin
              let gneg =
                List.map (Atom.apply s) neg
                |> List.filter (fun a -> Atom.Set.mem a !base)
              in
              grules :=
                {
                  Grounder.ghead = Grounder.GAtom (Atom.apply s h);
                  gpos = List.map (Atom.apply s) pos;
                  gneg;
                  gcounts = [];
                }
                :: !grules
            end)
      | _ -> ())
    rules;
  (!grules, !base)

(* Compare ground programs modulo rule order, literal order within a
   body, and duplicate instances. *)
let normalized_rule_strings (grules : Asp.Grounder.ground_rule list) =
  grules
  |> List.map (fun (gr : Asp.Grounder.ground_rule) ->
         let s = List.sort_uniq Asp.Atom.compare in
         Fmt.str "%a" Asp.Grounder.pp_ground_rule
           { gr with Asp.Grounder.gpos = s gr.Asp.Grounder.gpos; gneg = s gr.Asp.Grounder.gneg })
  |> List.sort_uniq compare

(* Random safe function-free programs: facts over p/1 and q/2, rules
   whose heads are h/1 or r/1, positive bodies over all four predicates,
   optional negative literal (h or r) and comparison over bound
   variables. Safety holds by construction: head, negative, and
   comparison arguments only use variables bound by the positive body. *)
let gen_fo_program_source =
  QCheck2.Gen.(
    let rterm = function `C i -> string_of_int i | `V v -> v in
    let rlit (p, args) =
      p ^ "(" ^ String.concat ", " (List.map rterm args) ^ ")"
    in
    let gconst = map (fun i -> `C i) (int_range 1 2) in
    let gterm = oneof [ gconst; map (fun v -> `V v) (oneofl [ "X"; "Y" ]) ] in
    let lit1 name = map (fun t -> (name, [ t ])) gterm in
    let lit2 name = map2 (fun a b -> (name, [ a; b ])) gterm gterm in
    let pos_lit = oneof [ lit1 "p"; lit2 "q"; lit1 "h"; lit1 "r" ] in
    let fact =
      oneof
        [ map (fun i -> ("p", [ `C i ])) (int_range 1 2);
          map2 (fun i j -> ("q", [ `C i; `C j ])) (int_range 1 2) (int_range 1 2) ]
    in
    let rule =
      let* pos = list_size (int_range 1 2) pos_lit in
      let bound =
        List.concat_map
          (fun (_, args) ->
            List.filter_map (function `V v -> Some v | `C _ -> None) args)
          pos
      in
      let bound_term =
        match bound with
        | [] -> gconst
        | vs -> oneof [ gconst; map (fun v -> `V v) (oneofl vs) ]
      in
      let* head_pred = oneofl [ "h"; "r" ] in
      let* head_arg = bound_term in
      let* neg =
        option (map2 (fun p t -> (p, [ t ])) (oneofl [ "h"; "r" ]) bound_term)
      in
      let* cmp =
        match bound with
        | [] -> return None
        | vs ->
          option
            (map3
               (fun v op b -> Printf.sprintf "%s %s %d" v op b)
               (oneofl vs) (oneofl [ "<"; ">=" ]) (int_range 1 2))
      in
      let body =
        List.map rlit pos
        @ (match neg with Some l -> [ "not " ^ rlit l ] | None -> [])
        @ match cmp with Some c -> [ c ] | None -> []
      in
      return
        (Printf.sprintf "%s :- %s." (rlit (head_pred, [ head_arg ]))
           (String.concat ", " body))
    in
    let* facts = list_size (int_range 1 4) fact in
    let* rules = list_size (int_range 1 3) rule in
    return (String.concat " " (List.map (fun f -> rlit f ^ ".") facts @ rules)))

let prop_grounder_matches_naive_reference =
  QCheck2.Test.make
    ~name:"semi-naive grounder agrees with naive reference" ~count:300
    gen_fo_program_source (fun src ->
      let p = parse src in
      QCheck2.assume (List.for_all Asp.Rule.is_safe (Asp.Program.rules p));
      let gp = Asp.Grounder.ground p in
      let ref_rules, ref_base = reference_ground p in
      Asp.Atom.Set.equal gp.Asp.Grounder.base ref_base
      && normalized_rule_strings gp.Asp.Grounder.grules
         = normalized_rule_strings ref_rules)

let prop_solver_models_match_ground_reference =
  (* first-order pipeline check: models of the solver on the original
     program equal the brute-force stable models of the independently
     grounded program *)
  QCheck2.Test.make
    ~name:"solver models agree with reference grounding + brute force"
    ~count:150 gen_fo_program_source (fun src ->
      let p = parse src in
      let ref_rules, ref_base = reference_ground p in
      QCheck2.assume (Asp.Atom.Set.cardinal ref_base <= 10);
      let atoms = List.map Asp.Atom.to_string (Asp.Atom.Set.elements ref_base) in
      let prop_rules =
        List.map
          (fun (gr : Asp.Grounder.ground_rule) ->
            let head =
              match gr.Asp.Grounder.ghead with
              | Asp.Grounder.GAtom a -> `Atom (Asp.Atom.to_string a)
              | _ -> `False
            in
            ( head,
              List.map Asp.Atom.to_string gr.Asp.Grounder.gpos,
              List.map Asp.Atom.to_string gr.Asp.Grounder.gneg ))
          ref_rules
      in
      let reference = reference_stable_models prop_rules atoms in
      let solver_models =
        Asp.Solver.solve p
        |> List.map (fun m ->
               List.map Asp.Atom.to_string (Asp.Atom.Set.elements m)
               |> List.sort compare)
        |> List.sort compare
      in
      solver_models = reference)

(* ---- incremental grounding: core + delta vs full reground ------------- *)

let sorted_ground_models gp = sorted_model_strings (Asp.Solver.solve_ground gp)

(* Random safe first-order programs as [gen_fo_program_source], plus up
   to two choice rules with optional bounds over h/1 and r/1, whose
   elements are unconditional or conditioned on p/1, q/2, h/1 or r/1 —
   the predicates of [fact_pool] — and whose body is empty or one
   positive literal that may bind the elements' variable. *)
let gen_fo_choice_program_source =
  QCheck2.Gen.(
    let bound =
      map (Option.fold ~none:"" ~some:string_of_int) (option (int_bound 2))
    in
    let elt =
      let* head = oneofl [ "h"; "r" ] in
      oneof
        [
          map (Printf.sprintf "%s(%d)" head) (int_range 1 2);
          map (Printf.sprintf "%s(X) : %s(X)" head) (oneofl [ "p"; "h"; "r" ]);
          map2 (Printf.sprintf "%s(%d) : %s(X)" head) (int_range 1 2)
            (oneofl [ "p"; "h"; "r" ]);
          map (Printf.sprintf "%s(X) : q(X, %d)" head) (int_range 1 3);
          map (Printf.sprintf "%s(X) : q(%d, X), p(X)" head) (int_range 1 3);
        ]
    in
    let choice =
      let* l = bound in
      let* elts = list_size (int_range 1 2) elt in
      let* u = bound in
      let* body =
        oneofl [ ""; " :- p(1)"; " :- h(2)"; " :- p(X)"; " :- r(X)" ]
      in
      return
        (Printf.sprintf "%s { %s } %s%s." l (String.concat " ; " elts) u body)
    in
    map2
      (fun src choices -> String.concat " " (src :: choices))
      gen_fo_program_source
      (list_size (int_bound 2) choice))

(* the context facts grounded against a random core: EDB atoms (p/1,
   q/2) and IDB atoms (h/1, r/1) alike — asserting an atom the core
   can also derive, one a negative literal reads or one a choice
   element's condition reads must all be handled — and facts the
   grounder normalizes: an interval, arithmetic, an unevaluable fact
   and an empty interval *)
let fact_pool =
  Array.map atom
    [|
      "p(1)"; "p(2)"; "p(3)"; "q(1, 2)"; "q(2, 1)"; "q(3, 3)";
      "h(1)"; "h(2)"; "r(1)"; "r(3)";
      "h(1..2)"; "r(1+1)"; "r(1/0)"; "p(2..1)";
    |]

(* Random (core, fact batches) pairs, every batch decided against the
   same compiled program and grounded against the same frozen core.
   [has_answer_set_extended] must answer as a from-scratch solve of the
   program extended with the batch, counting the delta's rules or, for
   a refused batch, the rules beyond the core's of a from-scratch
   ground that asserts each distinct fact once.
   Whenever [delta_with] returns a delta, the core's ground rules plus
   that delta must be the rule set of a from-scratch reground, and the
   prepared core extended by it must decide satisfiability as the full
   reground does (the serving layer's hot path). *)
let prop_incremental_matches_full_reground =
  QCheck2.Test.make
    ~name:"incremental core+delta = full reground, over random fact batches"
    ~count:120 ~long_factor:10
    ~print:(fun (src, batches) ->
      Printf.sprintf "core: %s\nbatches: %s" src
        (String.concat " | "
           (List.map
              (fun idxs ->
                String.concat ". "
                  (List.map (fun i -> Asp.Atom.to_string fact_pool.(i)) idxs))
              batches)))
    QCheck2.Gen.(
      pair gen_fo_choice_program_source
        (list_size (int_range 1 8)
           (list_size (int_range 1 4)
              (int_bound (Array.length fact_pool - 1)))))
    (fun (src, batches) ->
      let p = parse src in
      QCheck2.assume (List.for_all Asp.Rule.is_safe (Asp.Program.rules p));
      let c = Asp.Solver.compile p in
      let core = Asp.Grounder.Incremental.freeze p in
      let core_gp = Asp.Grounder.Incremental.core_ground core in
      let prepared = Asp.Solver.prepare core_gp in
      List.for_all
        (fun idxs ->
          let facts = List.map (fun i -> fact_pool.(i)) idxs in
          let full = Asp.Grounder.ground (Asp.Program.with_facts p facts) in
          let sat, rules = Asp.Solver.has_answer_set_extended c ~facts in
          sat = Asp.Solver.has_answer_set (Asp.Program.with_facts p facts)
          &&
          match Asp.Grounder.Incremental.delta_with core ~facts with
          | None ->
            let distinct = Asp.Grounder.Incremental.normalize_facts facts in
            rules
            = Asp.Grounder.size
                (Asp.Grounder.ground (Asp.Program.with_facts p distinct))
              - Asp.Grounder.size core_gp
          | Some d ->
            rules = List.length d
            && normalized_rule_strings (core_gp.Asp.Grounder.grules @ d)
               = normalized_rule_strings full.Asp.Grounder.grules
            && Asp.Solver.has_answer_set_prepared prepared ~delta:d
               = Asp.Solver.has_answer_set_ground full)
        batches)

(* one frozen core backs any number of fact batches: each batch grounds
   exactly its own dependent rules and never writes through to the core *)
let test_incremental_shared_core () =
  let p = parse "q(X) :- p(X). r :- q(1). s :- r, p(2)." in
  let core = Asp.Grounder.Incremental.freeze p in
  let core_size () =
    Asp.Grounder.size (Asp.Grounder.Incremental.core_ground core)
  in
  let delta facts =
    Asp.Grounder.Incremental.delta_with core ~facts:(List.map atom facts)
  in
  Alcotest.(check int) "factless core fires nothing" 0 (core_size ());
  (* p(1). p(2). q(1). q(2). r. s. — six dependent ground rules *)
  Alcotest.(check (option int)) "both chains grounded, the repeat ignored"
    (Some 6)
    (Option.map List.length (delta [ "p(1)"; "p(2)"; "p(1)" ]));
  Alcotest.(check (option (list string)))
    "p(2) alone equals a fresh reground"
    (Some
       (normalized_rule_strings
          (Asp.Grounder.ground (Asp.Program.with_facts p [ atom "p(2)" ]))
            .Asp.Grounder.grules))
    (Option.map normalized_rule_strings (delta [ "p(2)" ]));
  Alcotest.(check int) "the core is still factless" 0 (core_size ())

(* A batch that reaches a predicate the core negates or chooses on is
   refused by [delta_with] and decided from scratch; the frozen core,
   and the compiled program's, keep their models. [src]'s core must be
   satisfiable alone and unsatisfiable under [refused]. *)
let check_refused_batch ~src ~core_models ~refused ~rules =
  let p = parse src in
  let core = Asp.Grounder.Incremental.freeze p in
  let models () =
    sorted_ground_models (Asp.Grounder.Incremental.core_ground core)
  in
  Alcotest.(check (list (list string))) "the core's models" core_models
    (models ());
  let facts = List.map atom refused in
  Alcotest.(check bool) "the batch is refused" true
    (Asp.Grounder.Incremental.delta_with core ~facts = None);
  let c = Asp.Solver.compile p in
  Alcotest.(check (pair bool int)) "decided from scratch" (false, rules)
    (Asp.Solver.has_answer_set_extended c ~facts);
  Alcotest.(check bool) "as has_answer_set" false
    (Asp.Solver.has_answer_set (Asp.Program.with_facts p facts));
  Alcotest.(check (pair bool int)) "the compiled core still answers" (true, 0)
    (Asp.Solver.has_answer_set_extended c ~facts:[]);
  Alcotest.(check (list (list string))) "the frozen core is unchanged"
    core_models (models ())

(* a latent negative literal: [not h(1)] is dropped as trivially true
   in the factless core, so asserting h(1) would change a core rule;
   from scratch, h(1) defeats s, and the repeat counts once *)
let test_incremental_latent_negation () =
  check_refused_batch ~src:"p(1). s :- p(1), not h(1). :- not s."
    ~core_models:[ [ "p(1)"; "s" ] ] ~refused:[ "h(1)"; "h(1)" ] ~rules:1

(* a choice condition: h(2) would give the core's choice head a second
   element, and a(2) — then derived — breaks its upper bound; the delta
   alone (h(2), a(2) :- h(2)) would miss that. A batch reaching no
   condition is still extended. *)
let test_incremental_choice_condition () =
  let src = "h(1). a(1). a(2) :- h(2). { a(X) : h(X) } 1." in
  check_refused_batch ~src ~core_models:[ [ "a(1)"; "h(1)" ] ]
    ~refused:[ "h(2)" ] ~rules:2;
  Alcotest.(check (option int)) "a(3) reaches no condition" (Some 1)
    (Option.map List.length
       (Asp.Grounder.Incremental.delta_with
          (Asp.Grounder.Incremental.freeze (parse src))
          ~facts:[ atom "a(3)" ]))

(* ---- Deciding fact batches on a ground core ---- *)

(* A random ground core: facts, definite rules and constraints over
   p/1, q/1, r/0 and s/2 on the values 1, 2 and a. No rule derives s, so
   constraints over it read atoms only a batch can assert. *)
let gen_ground_core =
  let open QCheck2.Gen in
  let value = oneofl [ "1"; "2"; "a" ] in
  let atom_g =
    oneof
      [
        map (Printf.sprintf "p(%s)") value;
        map (Printf.sprintf "q(%s)") value;
        return "r";
        map2 (Printf.sprintf "s(%s, %s)") value value;
      ]
  in
  let head_g =
    oneof
      [
        map (Printf.sprintf "p(%s)") value;
        map (Printf.sprintf "q(%s)") value;
        return "r";
      ]
  in
  let body_g = map (String.concat ", ") (list_size (int_range 1 3) atom_g) in
  let rule_g =
    frequency
      [
        (2, map (Printf.sprintf "%s.") head_g);
        (3, map2 (Printf.sprintf "%s :- %s.") head_g body_g);
        (3, map (Printf.sprintf ":- %s.") body_g);
      ]
  in
  map (String.concat " ") (list_size (int_range 1 7) rule_g)

(* A batch: core atoms (re-asserted or not), atoms only a constraint
   reads, atoms no rule names, interval and arithmetic facts (1/0
   included), and duplicates through repetition. *)
let gen_ground_batch =
  let open QCheck2.Gen in
  let v = oneofl [ "1"; "2"; "a" ] in
  list_size (int_bound 5)
    (oneof
       [
         map (Printf.sprintf "p(%s)") v;
         map (Printf.sprintf "q(%s)") v;
         return "r";
         map2 (Printf.sprintf "s(%s, %s)") v v;
         map (Printf.sprintf "unread(%s)") v;
         return "p(1..2)";
         return "q(1+1)";
         return "s(1/0, a)";
         return "s(2-1, 1..2)";
       ])

let prop_ground_core_matches_delta =
  QCheck2.Test.make
    ~name:"ground core decision = delta_with + prepared solve = from scratch"
    ~count:300
    ~print:(fun (src, batches) ->
      Printf.sprintf "core: %s\nbatches: %s" src
        (String.concat " | " (List.map (String.concat ". ") batches)))
    QCheck2.Gen.(
      pair gen_ground_core (list_size (int_range 1 6) gen_ground_batch))
    (fun (src, batches) ->
      let p = parse src in
      let c = Asp.Solver.compile p in
      let core = Asp.Grounder.Incremental.freeze p in
      let prepared =
        Asp.Solver.prepare (Asp.Grounder.Incremental.core_ground core)
      in
      List.for_all
        (fun batch ->
          let facts = List.map atom batch in
          let sat, rules = Asp.Solver.has_answer_set_extended c ~facts in
          match Asp.Grounder.Incremental.delta_with core ~facts with
          | None -> false (* a definite core never needs repair *)
          | Some delta ->
            sat = Asp.Solver.has_answer_set_prepared prepared ~delta
            && sat = Asp.Solver.has_answer_set (Asp.Program.with_facts p facts)
            && rules = List.length delta)
        batches)

let counter_value name = Obs.Counter.value (Obs.Counter.make name)

let ground_counters () =
  List.map counter_value
    [
      "asp.ground.calls"; "asp.ground.rules"; "asp.ground.possible_atoms";
      "asp.ground.delta_rounds"; "asp.ground.join_tuples"; "asp.solve.calls";
    ]

(* a ground core compiles and decides without grounding or searching;
   the answers and rule counts are those of the frozen-core path *)
let test_ground_core_grounds_nothing () =
  let p =
    parse
      "result(permit). :- result(permit), attr(role, intern), attr(act, write)."
  in
  let before = ground_counters () in
  let c = Asp.Solver.compile p in
  let decide facts =
    Asp.Solver.has_answer_set_extended c ~facts:(List.map atom facts)
  in
  Alcotest.(check (pair bool int)) "no facts" (true, 0) (decide []);
  Alcotest.(check (pair bool int)) "half the body: one fact rule" (true, 1)
    (decide [ "attr(role, intern)" ]);
  Alcotest.(check (pair bool int)) "the whole body: two facts, one constraint"
    (false, 3)
    (decide [ "attr(role, intern)"; "attr(act, write)"; "attr(role, intern)" ]);
  Alcotest.(check (pair bool int)) "an unread fact adds itself" (true, 2)
    (decide [ "attr(role, intern)"; "attr(role, admin)" ]);
  Alcotest.(check (list int)) "no asp.ground or asp.solve counter moved" before
    (ground_counters ());
  Alcotest.check_raises "a non-ground fact is refused"
    (Invalid_argument "Grounder.Incremental: context facts must be ground")
    (fun () -> ignore (decide [ "attr(role, X)" ]))

(* a variable, a negative literal, a choice, a comparison, an interval
   or arithmetic in the core: the decision grounds the batch with
   delta_with, as before *)
let test_nonground_core_keeps_delta () =
  List.iter
    (fun (src, facts) ->
      let p = parse src in
      let facts = List.map atom facts in
      let c = Asp.Solver.compile p in
      let calls = counter_value "asp.ground.calls" in
      let sat, _ = Asp.Solver.has_answer_set_extended c ~facts in
      Alcotest.(check int) (src ^ ": one delta ground") (calls + 1)
        (counter_value "asp.ground.calls");
      Alcotest.(check bool) (src ^ ": answers as from scratch")
        (Asp.Solver.has_answer_set (Asp.Program.with_facts p facts))
        sat)
    [
      ("p(X) :- q(X). :- p(1), r.", [ "q(1)"; "r" ]);
      ("p :- q, not r. :- p.", [ "q" ]);
      ("{ p }. :- p, q. :- not p.", [ "q" ]);
      ("p :- q(1), 1 < 2. :- p.", [ "q(1)" ]);
      ("q(1..2). :- q(2), r.", [ "r" ]);
      ("q(1+1). :- q(2), r.", [ "r" ]);
    ]

(* a core that is unsatisfiable alone stays so under any batch *)
let test_unsat_ground_core () =
  let c = Asp.Solver.compile (parse "a. b :- a. :- b.") in
  List.iter
    (fun facts ->
      let facts' = List.map atom facts in
      Alcotest.(check bool)
        (String.concat ", " facts ^ ": unsatisfiable")
        false
        (fst (Asp.Solver.has_answer_set_extended c ~facts:facts')))
    [ []; [ "a" ]; [ "b" ]; [ "c" ]; [ "p(1..3)"; "p(1/0)" ] ]

(* with a sink registered, the ground and solve spans still carry their
   counts *)
let test_span_attrs_reach_sinks () =
  let spans = ref [] in
  let sink = { Obs.on_span = (fun sp -> spans := sp :: !spans) } in
  Obs.register_sink sink;
  Fun.protect ~finally:(fun () -> Obs.unregister_sink sink) @@ fun () ->
  ignore (Asp.Solver.solve (parse "{ a } 1 :- b. b."));
  let attr name key =
    List.find_map
      (fun (sp : Obs.span) ->
        if sp.sp_name = name then List.assoc_opt key sp.sp_attrs else None)
      !spans
  in
  Alcotest.(check (option string)) "ground rules" (Some "2")
    (attr "asp.ground" "ground_rules");
  Alcotest.(check (option string)) "models" (Some "2")
    (attr "asp.solve" "models")

let test_solve_limit_below_one () =
  List.iter
    (fun limit ->
      Alcotest.check_raises
        (Printf.sprintf "limit %d" limit)
        (Invalid_argument "Solver: model limit below 1")
        (fun () ->
          ignore (Asp.Solver.solve ~limit (parse "{ a } 1 :- b. b."))))
    [ 0; -1 ]

(* pretty-print / parse roundtrip over random rule ASTs *)
let gen_rule =
  QCheck2.Gen.(
    let const_g = map (fun i -> Asp.Term.const ("c" ^ string_of_int i)) (int_bound 3) in
    let var_g = map (fun i -> Asp.Term.var ("X" ^ string_of_int i)) (int_bound 2) in
    let term_g =
      oneof
        [ const_g; var_g; map (fun i -> Asp.Term.int i) (int_bound 9);
          map2 (fun a b -> Asp.Term.Binop (Asp.Term.Add, a, b)) var_g
            (map (fun i -> Asp.Term.int i) (int_bound 5)) ]
    in
    let atom_g =
      map2
        (fun p args -> Asp.Atom.make ("p" ^ string_of_int p) args)
        (int_bound 3)
        (list_size (int_bound 2) term_g)
    in
    let body_elt_g =
      oneof
        [ map (fun a -> Asp.Rule.Pos a) atom_g;
          map (fun a -> Asp.Rule.Neg a) atom_g;
          map2 (fun t1 t2 -> Asp.Rule.Cmp (Asp.Rule.Lt, t1, t2)) term_g term_g ]
    in
    let body_g = list_size (int_bound 3) body_elt_g in
    oneof
      [ map2 (fun h b -> { Asp.Rule.head = Asp.Rule.Head h; body = b }) atom_g body_g;
        map
          (fun b -> { Asp.Rule.head = Asp.Rule.Falsity; body = b })
          (list_size (int_range 1 3) body_elt_g);
        map2
          (fun w b -> { Asp.Rule.head = Asp.Rule.Weak w; body = b })
          term_g
          (list_size (int_range 1 3) body_elt_g) ])

let prop_rule_pp_parse_roundtrip =
  QCheck2.Test.make ~name:"rule pretty-print/parse roundtrip" ~count:300
    gen_rule (fun r ->
      let text = Asp.Rule.to_string r in
      match Asp.Parser.parse_rule_string text with
      | r' -> Asp.Rule.equal r r'
      | exception _ -> false)

(* Query.body_holds against the enumeration of satisfying instances, on
   random models and bodies mixing ground and non-ground positive
   literals, negation, comparisons (an [=] may bind) and #count; the
   indexed form must agree too *)
let gen_query_case =
  QCheck2.Gen.(
    let value_g =
      oneofl
        [ Asp.Term.const "a"; Asp.Term.const "b"; Asp.Term.int 0;
          Asp.Term.int 1; Asp.Term.int 2 ]
    in
    let var_g = oneofl [ Asp.Term.var "X"; Asp.Term.var "Y" ] in
    let atom_g term_g =
      oneofl [ ("p", 1); ("q", 2); ("r", 0) ] >>= fun (pred, arity) ->
      map (Asp.Atom.make pred) (list_repeat arity term_g)
    in
    let term_g = oneof [ value_g; var_g ] in
    let op_g = oneofl Asp.Rule.[ Eq; Neq; Lt; Le; Gt; Ge ] in
    let count_g =
      map3
        (fun cond op k ->
          Asp.Rule.Count
            {
              tuple = [ Asp.Term.var "Z" ];
              conditions =
                [ Asp.Rule.Pos (Asp.Atom.make "p" [ Asp.Term.var "Z" ]) ]
                @ cond;
              count_op = op;
              bound = Asp.Term.int k;
            })
        (oneofl
           [ [];
             [ Asp.Rule.Neg
                 (Asp.Atom.make "q" [ Asp.Term.var "Z"; Asp.Term.const "a" ]) ];
             [ Asp.Rule.Cmp (Asp.Rule.Neq, Asp.Term.var "Z", Asp.Term.int 0) ] ])
        op_g (int_bound 3)
    in
    let elt_g =
      frequency
        [ (3, map (fun a -> Asp.Rule.Pos a) (atom_g value_g));
          (4, map (fun a -> Asp.Rule.Pos a) (atom_g term_g));
          (2, map (fun a -> Asp.Rule.Neg a) (atom_g term_g));
          (2, map3 (fun op t1 t2 -> Asp.Rule.Cmp (op, t1, t2)) op_g term_g term_g);
          (1, count_g) ]
    in
    pair
      (map Asp.Atom.Set.of_list (list_size (int_bound 10) (atom_g value_g)))
      (list_size (int_range 1 4) elt_g))

let prop_body_holds_iff_instances =
  QCheck2.Test.make ~name:"body_holds iff some satisfying instance" ~count:500
    ~print:(fun (m, body) ->
      Printf.sprintf "model {%s} body %s"
        (String.concat ", " (List.map Asp.Atom.to_string (Asp.Atom.Set.elements m)))
        (Asp.Rule.to_string { Asp.Rule.head = Asp.Rule.Falsity; body }))
    gen_query_case
    (fun (m, body) ->
      let holds = Asp.Query.body_holds m body in
      holds = (Asp.Query.satisfying_instances m body <> [])
      && holds = Asp.Query.body_holds_in (Asp.Query.index m) body)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_term_compare_refl;
      prop_term_subst_ground;
      prop_term_match_sound;
      prop_choice_models_within_bounds;
      prop_models_satisfy_constraints;
      prop_solver_matches_reference;
      prop_wellfounded_seed_preserves_models;
      prop_grounder_matches_naive_reference;
      prop_solver_models_match_ground_reference;
      prop_incremental_matches_full_reground;
      prop_ground_core_matches_delta;
      prop_rule_pp_parse_roundtrip;
      prop_body_holds_iff_instances ]

let () =
  Alcotest.run "asp"
    [
      ( "term",
        [
          Alcotest.test_case "eval" `Quick test_term_eval;
          Alcotest.test_case "match" `Quick test_term_match;
          Alcotest.test_case "vars" `Quick test_term_vars;
        ] );
      ( "parser",
        [
          Alcotest.test_case "fact" `Quick test_parse_fact;
          Alcotest.test_case "rule" `Quick test_parse_rule;
          Alcotest.test_case "constraint" `Quick test_parse_constraint;
          Alcotest.test_case "choice" `Quick test_parse_choice;
          Alcotest.test_case "interval" `Quick test_parse_interval;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "string constant" `Quick test_parse_string_constant;
        ] );
      ( "grounder",
        [
          Alcotest.test_case "simple" `Quick test_ground_simple;
          Alcotest.test_case "join" `Quick test_ground_join;
          Alcotest.test_case "unsafe" `Quick test_ground_unsafe;
          Alcotest.test_case "arith" `Quick test_ground_arith;
          Alcotest.test_case "comparison" `Quick test_ground_comparison;
          Alcotest.test_case "eq binding" `Quick test_ground_eq_binding;
          Alcotest.test_case "neg underivable" `Quick test_ground_neg_underivable;
          Alcotest.test_case "neg interval underivable" `Quick
            test_neg_interval_underivable;
          Alcotest.test_case "neg interval partial base" `Quick
            test_neg_interval_partial_base;
          Alcotest.test_case "neg interval full base" `Quick
            test_neg_interval_full_base;
          Alcotest.test_case "neg interval conjunction" `Quick
            test_neg_interval_conjunction_choice;
          Alcotest.test_case "neg nonground outside base" `Quick
            test_neg_nonground_outside_base;
          Alcotest.test_case "incremental shared core" `Quick
            test_incremental_shared_core;
          Alcotest.test_case "incremental latent negation" `Quick
            test_incremental_latent_negation;
          Alcotest.test_case "incremental choice condition" `Quick
            test_incremental_choice_condition;
        ] );
      ( "dependency",
        [
          Alcotest.test_case "stratified" `Quick test_stratified;
          Alcotest.test_case "not stratified" `Quick test_not_stratified;
          Alcotest.test_case "sccs" `Quick test_sccs;
        ] );
      ( "solver",
        [
          Alcotest.test_case "definite" `Quick test_solve_definite;
          Alcotest.test_case "negation two models" `Quick test_solve_negation_two_models;
          Alcotest.test_case "odd loop unsat" `Quick test_solve_odd_loop_unsat;
          Alcotest.test_case "constraint" `Quick test_solve_constraint;
          Alcotest.test_case "unfounded false" `Quick test_solve_unsupported_false;
          Alcotest.test_case "choice" `Quick test_solve_choice;
          Alcotest.test_case "choice bounds" `Quick test_solve_choice_bounds;
          Alcotest.test_case "choice conditional" `Quick test_solve_choice_conditional;
          Alcotest.test_case "choice body" `Quick test_solve_choice_body;
          Alcotest.test_case "limit" `Quick test_solve_limit;
          Alcotest.test_case "has answer set" `Quick test_has_answer_set;
          Alcotest.test_case "brave cautious" `Quick test_brave_cautious;
          Alcotest.test_case "stability subtle" `Quick test_solver_stability_subtle;
          Alcotest.test_case "choice vs double negation" `Quick test_double_negation_choice_equiv;
          Alcotest.test_case "wellfounded bounds" `Quick test_wellfounded_bounds;
          Alcotest.test_case "wellfounded seed propagations" `Quick
            test_wellfounded_seed_propagations;
          Alcotest.test_case "graph coloring" `Quick test_graph_coloring;
          Alcotest.test_case "context facts" `Quick test_context_facts;
          Alcotest.test_case "limit below 1" `Quick test_solve_limit_below_one;
          Alcotest.test_case "span attributes reach sinks" `Quick
            test_span_attrs_reach_sinks;
          Alcotest.test_case "ground core grounds nothing" `Quick
            test_ground_core_grounds_nothing;
          Alcotest.test_case "non-ground core keeps delta_with" `Quick
            test_nonground_core_keeps_delta;
          Alcotest.test_case "unsatisfiable ground core" `Quick
            test_unsat_ground_core;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "reversed interval" `Quick test_interval_reversed;
          Alcotest.test_case "negative integers" `Quick test_negative_integers;
          Alcotest.test_case "mod and div" `Quick test_arithmetic_mod_div;
          Alcotest.test_case "empty choice" `Quick test_empty_choice;
          Alcotest.test_case "zero bounds" `Quick test_choice_zero_bounds;
          Alcotest.test_case "contradictory facts" `Quick test_contradictory_facts_constraint;
          Alcotest.test_case "deep nesting" `Quick test_deep_function_nesting;
          Alcotest.test_case "constraint only" `Quick test_constraint_only_program;
          Alcotest.test_case "limit order" `Quick test_solver_many_models_limit_order;
          Alcotest.test_case "cautious unsat" `Quick test_cautious_on_unsat;
        ] );
      ( "aggregates",
        [
          Alcotest.test_case "constraint" `Quick test_count_constraint;
          Alcotest.test_case "with choice" `Quick test_count_with_choice;
          Alcotest.test_case "lower bound" `Quick test_count_lower_bound;
          Alcotest.test_case "outer variable" `Quick test_count_outer_variable;
          Alcotest.test_case "in weak constraint" `Quick test_count_in_weak;
          Alcotest.test_case "rejected in normal rule" `Quick test_count_in_normal_rule_rejected;
          Alcotest.test_case "pp roundtrip" `Quick test_count_pp_roundtrip;
          Alcotest.test_case "count_value" `Quick test_count_value_api;
        ] );
      ( "justification",
        [
          Alcotest.test_case "chain" `Quick test_justify_chain;
          Alcotest.test_case "fact" `Quick test_justify_fact;
          Alcotest.test_case "choice" `Quick test_justify_choice;
          Alcotest.test_case "not in model" `Quick test_justify_not_in_model;
          Alcotest.test_case "covers model" `Quick test_justify_all_covers_model;
        ] );
      ( "optimization",
        [
          Alcotest.test_case "weak parse" `Quick test_weak_parse_roundtrip;
          Alcotest.test_case "optimal model" `Quick test_weak_optimal;
          Alcotest.test_case "no weak = zero cost" `Quick test_weak_no_weak_constraints_cost_zero;
          Alcotest.test_case "ranked order" `Quick test_weak_ranked_order;
          Alcotest.test_case "ties" `Quick test_weak_ties;
          Alcotest.test_case "weak keeps satisfiability" `Quick test_weak_does_not_affect_satisfiability;
        ] );
      ("properties", qcheck_cases);
    ]
