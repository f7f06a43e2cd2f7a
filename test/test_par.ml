(* Tests for the lib/par domain pool: ordering, exception propagation,
   nesting, and the differential properties backing the determinism
   contract — parallel execution must be observationally identical to
   sequential, for plain maps, witness generation, and full learner
   runs alike. *)

open Ilp

(* Shared pools: Domain.spawn is expensive, so the parallel suites reuse
   one pool per degree instead of spawning per test case. *)
let pool2 = Par.create ~domains:2 ()
let pool4 = Par.create ~domains:4 ()
let all_pools () = [ (1, Par.create ~domains:1 ()); (2, pool2); (4, pool4) ]

(* ---- pool basics ---- *)

let test_size () =
  Alcotest.(check int) "size 2" 2 (Par.size pool2);
  Alcotest.(check int) "size 4" 4 (Par.size pool4);
  Alcotest.(check int) "size clamps to 1" 1 (Par.size (Par.create ~domains:0 ()))

let test_map_ordering () =
  let arr = Array.init 100 (fun i -> i) in
  let f x = (x * x) + 7 in
  let expected = Array.map f arr in
  List.iter
    (fun (d, pool) ->
      Alcotest.(check (array int))
        (Printf.sprintf "map at %d domains" d)
        expected (Par.parallel_map pool f arr))
    (all_pools ())

let test_map_empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||] (Par.parallel_map pool4 succ [||]);
  Alcotest.(check (array int)) "singleton" [| 2 |]
    (Par.parallel_map pool4 succ [| 1 |])

let test_iter_covers_all () =
  let n = 200 in
  let hit = Array.make n false in
  Par.parallel_iter pool4 (fun i -> hit.(i) <- true) (Array.init n (fun i -> i));
  Alcotest.(check bool) "every index visited" true (Array.for_all Fun.id hit)

(* The sequential map raises the exception of the lowest failing index;
   the pool must raise the same one no matter which chunk fails first. *)
let test_exception_propagation () =
  let arr = Array.init 100 (fun i -> i) in
  let f i = if i = 37 || i = 73 then failwith (string_of_int i) else i in
  List.iter
    (fun (d, pool) ->
      match Par.parallel_map pool f arr with
      | _ -> Alcotest.failf "expected an exception at %d domains" d
      | exception Failure msg ->
        Alcotest.(check string)
          (Printf.sprintf "lowest failing index at %d domains" d)
          "37" msg)
    (all_pools ())

(* A waiting submitter helps drain the queue, so a task that itself
   submits a batch must complete rather than deadlock. *)
let test_nested_submission () =
  let inner outer_i =
    Par.parallel_map pool2 (fun j -> (outer_i * 10) + j) (Array.init 8 Fun.id)
  in
  let result = Par.parallel_map pool2 inner (Array.init 4 Fun.id) in
  Alcotest.(check (array (array int)))
    "nested maps complete and order"
    (Array.init 4 (fun i -> Array.init 8 (fun j -> (i * 10) + j)))
    result

let test_shutdown_idempotent_and_fallback () =
  let p = Par.create ~domains:3 () in
  Par.shutdown p;
  Par.shutdown p;
  (* after shutdown the pool degrades to the sequential path *)
  Alcotest.(check (array int)) "post-shutdown map" [| 1; 2; 3 |]
    (Par.parallel_map p succ [| 0; 1; 2 |])

let test_config_defaults_sequential () =
  Alcotest.(check int) "default degree" 1 (Par.Config.domains ())

(* The submitter's trace context must reach every chunk, on every pool
   domain — and a context-free submitter must stay context-free even
   when worker domains carry stale contexts from earlier batches. *)
let test_trace_context_propagation () =
  let arr = Array.init 64 (fun i -> i) in
  List.iter
    (fun (d, pool) ->
      let seen =
        Obs.Trace_context.with_id "batch-ctx" (fun () ->
            Par.parallel_map pool
              (fun _ -> Obs.Trace_context.current ())
              arr)
      in
      Alcotest.(check bool)
        (Printf.sprintf "context inherited by every task at %d domain(s)" d)
        true
        (Array.for_all (fun c -> c = Some "batch-ctx") seen);
      let unscoped =
        Par.parallel_map pool (fun _ -> Obs.Trace_context.current ()) arr
      in
      Alcotest.(check bool)
        (Printf.sprintf "no context leaks into a bare submission at %d \
                         domain(s)"
           d)
        true
        (Array.for_all (fun c -> c = None) unscoped))
    (all_pools ())

(* ---- differential properties: parallel = sequential ---- *)

let prop_map_differential =
  QCheck2.Test.make ~name:"parallel_map = Array.map (domains 1/2/4)"
    ~count:30
    QCheck2.Gen.(list_size (int_range 0 200) (int_range (-1000) 1000))
    (fun l ->
      let arr = Array.of_list l in
      let f x =
        (* enough work to spread across chunks, still deterministic *)
        let rec go acc n = if n = 0 then acc else go ((acc * 31) + x) (n - 1) in
        go x 50
      in
      let expected = Array.map f arr in
      List.for_all
        (fun (_, pool) -> Par.parallel_map pool f arr = expected)
        (all_pools ()))

(* Learning-task generator shared by the witness and learner
   differentials: contexts over snow/sun, sentences over accept/reject,
   labelled by the hidden "no accepting in snow" rule with occasional
   soft mislabels — the same family test_ilp uses. *)
let task_gen =
  QCheck2.Gen.(list_size (int_range 1 8) (triple bool bool (int_range 0 2)))

let decision_gpm () =
  Asg.Asg_parser.parse
    {| start -> decision
       decision -> "accept" { result(accept). } | "reject" { result(reject). } |}

let weather_space () =
  Ilp.Hypothesis_space.generate
    (Mode.make ~target_prods:[ 0 ] ~heads:[ Mode.Constraint ]
       ~bodies:
         [
           Mode.matom ~site:(Some 1) "result"
             [ Mode.Constants [ "accept"; "reject" ] ];
           Mode.matom "weather" [ Mode.Constants [ "snow"; "sun"; "rain" ] ];
         ]
       ~max_body:2 ())

let examples_of_flags flags =
  List.map
    (fun (snowing, accepting, noise) ->
      let ctx = if snowing then "weather(snow)." else "weather(sun)." in
      let s = if accepting then "accept" else "reject" in
      let valid = (not snowing) || not accepting in
      let weight = if noise = 0 then Some 1 else None in
      if valid then Ilp.Example.positive_ctx ?weight s ctx
      else Ilp.Example.negative_ctx ?weight s ctx)
    flags

let witness_fingerprint (w : Learner.witness) =
  ( w.Learner.ex_idx,
    List.sort compare w.Learner.traces_by_prod,
    Asp.Solver.model_to_string w.Learner.model )

let prop_witnesses_differential =
  QCheck2.Test.make
    ~name:"pooled witness generation = sequential (domains 1/2/4)" ~count:15
    task_gen
    (fun flags ->
      let gpm = decision_gpm () in
      let examples = Array.of_list (examples_of_flags flags) in
      let witnesses e =
        let ws, truncated =
          Learner.witnesses_of_example_counted ~max_witnesses:4 gpm e
        in
        (List.map witness_fingerprint ws, truncated)
      in
      let sequential = Array.map witnesses examples in
      List.for_all
        (fun (_, pool) -> Par.parallel_map pool witnesses examples = sequential)
        (all_pools ()))

let outcome_fingerprint = function
  | None -> "unsat"
  | Some (o : Learner.outcome) ->
    Printf.sprintf "cost=%d penalty=%d sac=%d wit=%d trunc=%d nodes=%d [%s]"
      o.Learner.cost o.Learner.penalty
      (List.length o.Learner.sacrificed)
      o.Learner.stats.Learner.witnesses o.Learner.stats.Learner.truncated
      o.Learner.stats.Learner.nodes
      (String.concat "; "
         (List.map
            (fun (c : Ilp.Hypothesis_space.candidate) ->
              Printf.sprintf "pr%d %s" c.prod_id
                (Asg.Annotation.rule_to_string c.rule))
            o.Learner.hypothesis))

let prop_learn_differential =
  QCheck2.Test.make
    ~name:"learn_constraints outcome identical at domains 1/2/4" ~count:12
    task_gen
    (fun flags ->
      let task =
        Task.make ~gpm:(decision_gpm ()) ~space:(weather_space ())
          ~examples:(examples_of_flags flags)
      in
      let fingerprints =
        List.map
          (fun (_, pool) ->
            outcome_fingerprint (Learner.learn_constraints ~pool task))
          (all_pools ())
      in
      match fingerprints with
      | [] -> true
      | fp :: rest -> List.for_all (( = ) fp) rest)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_map_differential; prop_witnesses_differential;
      prop_learn_differential ]

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "size" `Quick test_size;
          Alcotest.test_case "map ordering" `Quick test_map_ordering;
          Alcotest.test_case "empty/singleton" `Quick test_map_empty_and_singleton;
          Alcotest.test_case "iter coverage" `Quick test_iter_covers_all;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "nested submission" `Quick test_nested_submission;
          Alcotest.test_case "shutdown" `Quick test_shutdown_idempotent_and_fallback;
          Alcotest.test_case "config default" `Quick test_config_defaults_sequential;
          Alcotest.test_case "trace context propagation" `Quick
            test_trace_context_propagation;
        ] );
      ("differential", qcheck_cases);
    ]
