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

let test_wellfounded_bounds () =
  let gp = Asp.Grounder.ground (parse "p. q :- not r. r :- not q.") in
  let b = Asp.Wellfounded.compute gp in
  Alcotest.(check bool) "p definitely true" true
    (Asp.Atom.Set.mem (atom "p") b.Asp.Wellfounded.lower);
  Alcotest.(check bool) "q possible" true
    (Asp.Atom.Set.mem (atom "q") b.Asp.Wellfounded.upper);
  Alcotest.(check bool) "not total" false (Asp.Wellfounded.is_total b)

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

(* An independent stable-model checker for propositional normal programs
   with constraints: enumerate all interpretations; M is stable iff the
   least model of the Gelfond-Lifschitz reduct equals M and no constraint
   body holds in M. Kept deliberately naive and separate from the solver
   implementation. *)
let reference_stable_models (rules : (string option * string list * string list) list)
    (atoms : string list) : string list list =
  let subsets =
    List.fold_left
      (fun acc a -> acc @ List.map (fun s -> a :: s) acc)
      [ [] ] atoms
  in
  let stable m =
    let in_m a = List.mem a m in
    (* constraints: no body may hold *)
    let constraint_ok =
      List.for_all
        (fun (head, pos, neg) ->
          match head with
          | Some _ -> true
          | None ->
            not
              (List.for_all in_m pos
              && List.for_all (fun a -> not (in_m a)) neg))
        rules
    in
    if not constraint_ok then false
    else begin
      (* least model of the reduct *)
      let reduct =
        List.filter_map
          (fun (head, pos, neg) ->
            match head with
            | Some h when List.for_all (fun a -> not (in_m a)) neg ->
              Some (h, pos)
            | _ -> None)
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
    let rule_g =
      map3
        (fun head pos neg -> (head, pos, neg))
        (oneof [ map Option.some atom_g; return None ])
        lit_list lit_list
    in
    list_size (int_range 1 6) rule_g)

let rules_to_source rules =
  String.concat " "
    (List.map
       (fun (head, pos, neg) ->
         let body =
           List.map (fun a -> a) pos @ List.map (fun a -> "not " ^ a) neg
         in
         match (head, body) with
         | Some h, [] -> h ^ "."
         | Some h, body -> h ^ " :- " ^ String.concat ", " body ^ "."
         | None, [] -> ":- ." (* never generated: constraints need a body *)
         | None, body -> ":- " ^ String.concat ", " body ^ ".")
       rules)

let prop_solver_matches_reference =
  QCheck2.Test.make ~name:"solver agrees with brute-force reference" ~count:300
    random_propositional_program (fun rules ->
      (* drop degenerate empty-body constraints *)
      let rules =
        List.filter (fun (h, p, n) -> h <> None || p <> [] || n <> []) rules
      in
      QCheck2.assume (rules <> []);
      let source = rules_to_source rules in
      let solver_models =
        Asp.Solver.solve (parse source)
        |> List.map (fun m ->
               List.map Asp.Atom.to_string (Asp.Atom.Set.elements m)
               |> List.sort compare)
        |> List.sort compare
      in
      let reference = reference_stable_models rules [ "a"; "b"; "c"; "d" ] in
      solver_models = reference)

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
              | Asp.Grounder.GAtom a -> Some (Asp.Atom.to_string a)
              | _ -> None
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

(* canonical form of a whole ground program: base atoms plus rule
   strings, both sorted — incremental grounding orders rules core-major
   then delta, a full reground puts the facts first, so equality is up
   to rule order *)
let canonical_ground (gp : Asp.Grounder.ground_program) =
  ( List.map Asp.Atom.to_string (Asp.Atom.Set.elements gp.Asp.Grounder.base),
    normalized_rule_strings gp.Asp.Grounder.grules )

let sorted_ground_models gp =
  Asp.Solver.solve_ground gp
  |> List.map (fun m -> List.sort compare (model_strings m))
  |> List.sort compare

(* the context facts grounded against a random core: EDB atoms (p/1,
   q/2) and IDB atoms (h/1, r/1) alike — asserting an atom the core
   can also derive, or one feeding a dropped trivially-true negative
   literal, must both be handled *)
let fact_pool =
  Array.map atom
    [|
      "p(1)"; "p(2)"; "p(3)"; "q(1, 2)"; "q(2, 1)"; "q(3, 3)";
      "h(1)"; "h(2)"; "r(1)"; "r(3)";
    |]

(* Random (core, fact batches) pairs, every batch grounded against the
   same frozen core. [ground_with] must equal — as a set of rules over
   the same possible-atom base — a from-scratch reground of the core
   program extended with the batch, with identical stable models.
   Whenever [delta_with] returns a delta, the core's ground rules plus
   that delta must be the same rule set, and the prepared core extended
   by it must decide satisfiability as the full reground does (the
   serving layer's hot path). *)
let prop_incremental_matches_full_reground =
  QCheck2.Test.make
    ~name:"incremental core+delta = full reground, over random fact batches"
    ~count:120
    QCheck2.Gen.(
      pair gen_fo_program_source
        (list_size (int_range 1 8)
           (list_size (int_range 1 4)
              (int_bound (Array.length fact_pool - 1)))))
    (fun (src, batches) ->
      let p = parse src in
      QCheck2.assume (List.for_all Asp.Rule.is_safe (Asp.Program.rules p));
      let core = Asp.Grounder.Incremental.freeze p in
      let core_rules =
        (Asp.Grounder.Incremental.core_ground core).Asp.Grounder.grules
      in
      let prepared =
        Asp.Solver.prepare (Asp.Grounder.Incremental.core_ground core)
      in
      List.for_all
        (fun idxs ->
          let facts = List.map (fun i -> fact_pool.(i)) idxs in
          let full = Asp.Grounder.ground (Asp.Program.with_facts p facts) in
          let inc = Asp.Grounder.Incremental.ground_with core ~facts in
          canonical_ground inc = canonical_ground full
          && sorted_ground_models inc = sorted_ground_models full
          &&
          match Asp.Grounder.Incremental.delta_with core ~facts with
          | None -> true
          | Some d ->
            normalized_rule_strings (core_rules @ d)
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
  Alcotest.(check int) "factless core fires nothing" 0 (core_size ());
  (* p(1). p(2). q(1). q(2). r. s. — six dependent ground rules *)
  Alcotest.(check int) "both chains grounded" 6
    (Asp.Grounder.size
       (Asp.Grounder.Incremental.ground_with core
          ~facts:[ atom "p(1)"; atom "p(2)" ]));
  Alcotest.(check (option int)) "the delta is the same six rules" (Some 6)
    (Option.map List.length
       (Asp.Grounder.Incremental.delta_with core
          ~facts:[ atom "p(1)"; atom "p(2)"; atom "p(1)" ]));
  Alcotest.(check (pair (list string) (list string)))
    "p(2) alone equals a fresh reground"
    (canonical_ground
       (Asp.Grounder.ground (Asp.Program.with_facts p [ atom "p(2)" ])))
    (canonical_ground
       (Asp.Grounder.Incremental.ground_with core ~facts:[ atom "p(2)" ]));
  Alcotest.(check int) "the core is still factless" 0 (core_size ())

(* a latent negative literal: [not h(1)] is dropped as trivially true
   in the factless core, then h(1) is asserted — the core rule must be
   repaired, not duplicated *)
let test_incremental_latent_negation () =
  let p = parse "p(1). s :- p(1), not h(1)." in
  let core = Asp.Grounder.Incremental.freeze p in
  let before =
    sorted_ground_models (Asp.Grounder.Incremental.core_ground core)
  in
  Alcotest.(check (list (list string))) "s holds while h(1) is underivable"
    [ [ "p(1)"; "s" ] ] before;
  Alcotest.(check bool) "the core needs repair: no delta" true
    (Asp.Grounder.Incremental.delta_with core ~facts:[ atom "h(1)" ] = None);
  let gp = Asp.Grounder.Incremental.ground_with core ~facts:[ atom "h(1)" ] in
  Alcotest.(check (pair (list string) (list string)))
    "repaired rule equals a fresh reground"
    (canonical_ground
       (Asp.Grounder.ground (Asp.Program.with_facts p [ atom "h(1)" ])))
    (canonical_ground gp);
  Alcotest.(check (list (list string))) "asserting h(1) defeats s"
    [ [ "h(1)"; "p(1)" ] ]
    (sorted_ground_models gp);
  Alcotest.(check (list (list string))) "the frozen core still derives s"
    before
    (sorted_ground_models (Asp.Grounder.Incremental.core_ground core))

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

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_term_compare_refl;
      prop_term_subst_ground;
      prop_term_match_sound;
      prop_choice_models_within_bounds;
      prop_models_satisfy_constraints;
      prop_solver_matches_reference;
      prop_grounder_matches_naive_reference;
      prop_solver_models_match_ground_reference;
      prop_incremental_matches_full_reground;
      prop_rule_pp_parse_roundtrip ]

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
          Alcotest.test_case "graph coloring" `Quick test_graph_coloring;
          Alcotest.test_case "context facts" `Quick test_context_facts;
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
