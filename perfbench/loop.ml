(* The Fig. 2 closed loop (PIP -> PDP -> PEP -> PAdaP relearn) through
   Agenp.Ams.handle_request, driven by one closed-loop client. Two
   workloads share it:

   - xacml-steady: the uncached PDP (the AMS default) over a stationary
     log, so almost every request is a full membership evaluation. The
     learner runs when violations accumulate, and at least once a pass:
     the operator signals a context change every [signal_every]
     requests.
   - xacml-drift: a Serve.Engine attached, requests drawn with Zipf skew
     from a context pool (the memo hits between model swaps), and the
     ground truth inverted every [flip_every] requests, each flip also
     signalled as a context change, so the PAdaP relearns on
     contradictory evidence.

   Both are pretrained to convergence during set-up; every pass then
   starts from that state. *)

type kind = Steady | Drift

(* workload sizes *)
let steady_users = 500
let steady_pass = 5_000
let signal_every = 2_500
let drift_users = 50
let drift_pool = 800
let drift_pass = 250
let flip_every = 100
(* monitoring audits no decision beyond the chosen one, as in the
   `agenp pipeline` XACML loop and the drift-replay experiment *)
let audit_rate = 0.0
let pretrain_chunk = 100
let pretrain_quiet = 5
let pretrain_chunks = 40
let setups = 9

(* fixed seed of the learning-relevant stream (see [setup]) *)
let structure_seed = 1

type fixture = {
  kind : kind;
  spec : Agenp.Prep.pbms_spec;
  space : Ilp.Hypothesis_space.t;
  truth : Policy.Decision.t ref;  (** ground truth of the request in flight *)
  hypothesis : Ilp.Task.hypothesis;  (** learned in pretraining *)
  memory : Ilp.Example.t list;  (** pretraining evidence, newest first *)
  stream : Common.req array;  (** one pass, ground truth already mutated *)
}

let new_ams ~spec ~space truth =
  Agenp.Ams.create ~name:"perfbench" ~seed:1 ~spec ~space
    {
      Agenp.Ams.options = Common.options;
      oracle = (fun _context opt -> Common.valid ~truth:!truth opt);
      audit_rate;
    }

let setup kind ~seed =
  (* The learning-relevant inputs — which role/resource/action triples
     arrive, in what order — come from the fixed [structure] stream: the
     learner's branch-and-bound cost is chaotic in its evidence (in a
     variant of the drift stream that drew them from the seed, the median
     relearn ranged from 58 to 400 ms over seeds 1-5), so drawing them
     from the run's seed would make every timing depend on the seed.
     The seed draws the subject id of every request, which the policy
     ignores and the contexts carry. *)
  let structure = Random.State.make [| structure_seed |] in
  let rng =
    Random.State.make [| seed; (match kind with Steady -> 1 | Drift -> 2) |]
  in
  let spec =
    {
      Agenp.Prep.grammar_text =
        Asg.Asg_parser.render (Workloads.Xacml_logs.gpm ());
      global_constraints = [];
    }
  in
  let space = Ilp.Hypothesis_space.generate (Workloads.Xacml_logs.modes ()) in
  let truth = ref Policy.Decision.Permit in
  let triple () = Random.State.int structure (Array.length Common.triples) in
  let draw =
    match kind with
    | Steady ->
      fun () ->
        let triple = triple () in
        Common.req_of ~triple ~user:(Random.State.int rng steady_users)
    | Drift ->
      let pool =
        Array.init drift_pool (fun _ ->
            let triple = triple () in
            Common.req_of ~triple ~user:(Random.State.int rng drift_users))
      in
      let next = Common.zipf structure drift_pool in
      fun () -> pool.(next ())
  in
  (* pretrain on the workload's own distribution until [pretrain_quiet]
     chunks of requests in a row pass without a relearn *)
  let ams = new_ams ~spec ~space truth in
  let rec pretrain chunk quiet =
    let before = Agenp.Ams.relearn_count ams in
    for _ = 1 to pretrain_chunk do
      let r = draw () in
      truth := r.Common.truth;
      ignore (Agenp.Ams.handle_request ams r.Common.context : Agenp.Pep.record)
    done;
    let quiet = if Agenp.Ams.relearn_count ams > before then 0 else quiet + 1 in
    if quiet < pretrain_quiet && chunk < pretrain_chunks then
      pretrain (chunk + 1) quiet
  in
  pretrain 1 0;
  let stream =
    match kind with
    | Steady -> Array.init steady_pass (fun _ -> draw ())
    | Drift ->
      Array.init drift_pass (fun i ->
          let r = draw () in
          if i / flip_every mod 2 = 1 then
            { r with Common.truth = Common.flip r.Common.truth }
          else r)
  in
  {
    kind;
    spec;
    space;
    truth;
    hypothesis = Agenp.Ams.hypothesis ams;
    memory = Agenp.Ams.examples ams;
    stream;
  }

(* A fresh AMS in the pretrained state: the learned hypothesis and the
   retained evidence, with an engine attached on the drift workload. *)
let fresh fx =
  let ams = new_ams ~spec:fx.spec ~space:fx.space fx.truth in
  Agenp.Ams.install_hypothesis ams fx.hypothesis;
  List.iter
    (fun (e : Ilp.Example.t) ->
      Agenp.Ams.learn_from ams ~context:e.context e.sentence
        ~valid:(Ilp.Example.is_positive e))
    (List.rev fx.memory);
  let engine =
    match fx.kind with
    | Steady -> None
    | Drift ->
      let e = Serve.create (Agenp.Ams.gpm ams) in
      Agenp.Ams.attach_engine ams (Serve.Engine e);
      Some e
  in
  (ams, engine)

type relearn = {
  at : int;  (** index of the request that relearned *)
  old_gpm : Asg.Gpm.t;
  new_gpm : Asg.Gpm.t;
  examples : Ilp.Example.t list;  (** the retained evidence, newest first *)
  hypothesis : Ilp.Task.hypothesis;
}

(** What a pass leaves for the checks and replays. *)
type capture = {
  base : Asg.Gpm.t;  (** the PReP-refined model relearning starts from *)
  gpms : Asg.Gpm.t array;  (** the model that decided each request *)
  decisions : Serve.Decision.t option array;  (** [None]: it raised *)
  relearns : relearn list;
  served : (string * float) list;
      (** traced drift passes: provenance and latency per served decision,
          read from the engine's audit ring *)
  engine_stats : Serve.stats option;
}

let pass fx ~traced () : Common.pass * capture =
  let ams, engine = fresh fx in
  let n = Array.length fx.stream in
  let lat = Array.make n 0.0 in
  let gpms = Array.make n (Agenp.Ams.gpm ams) in
  let decisions = Array.make n None in
  let relearns = ref [] and served = ref [] in
  let compliant = ref 0 and errors = ref 0 in
  let audit = Option.bind engine Serve.audit in
  let w0 = Gc.minor_words () in
  let t_start = Common.now () in
  Array.iteri
    (fun i (r : Common.req) ->
      if i > 0 && i mod (match fx.kind with Steady -> signal_every | Drift -> flip_every) = 0 then
        Agenp.Ams.signal_context_change ams;
      fx.truth := r.truth;
      let gpm = Agenp.Ams.gpm ams in
      gpms.(i) <- gpm;
      let before = Agenp.Ams.relearn_count ams in
      let t0 = Common.now () in
      let result =
        try
          Ok
            (Recorder.span ~req:i "agenp.handle_request" (fun () ->
                 Agenp.Ams.handle_request ams r.context))
        with e -> Error e
      in
      lat.(i) <- Common.now () -. t0;
      (match result with
      | Ok record ->
        decisions.(i) <- Some record.Agenp.Pep.decision;
        if Agenp.Pep.compliant record then incr compliant
      | Error _ -> incr errors);
      if Agenp.Ams.relearn_count ams > before then
        relearns :=
          {
            at = i;
            old_gpm = gpm;
            new_gpm = Agenp.Ams.gpm ams;
            examples = Agenp.Ams.examples ams;
            hypothesis = Agenp.Ams.hypothesis ams;
          }
          :: !relearns;
      if traced then
        Option.iter
          (fun ring ->
            match Serve.Audit.to_list ~last:1 ring with
            | [ a ] ->
              served :=
                (a.Serve.Audit.provenance, a.Serve.Audit.latency) :: !served
            | _ -> ())
          audit)
    fx.stream;
  let wall = Common.now () -. t_start in
  let alloc_words = Gc.minor_words () -. w0 in
  let relearns = List.rev !relearns in
  let engine_stats = Option.map Serve.stats engine in
  ( {
      Common.wall;
      latencies = lat;
      relearn_at = List.map (fun rl -> rl.at) relearns;
      compliant = !compliant;
      errors = !errors;
      alloc_words;
      peak_heap_mb = Common.peak_heap_mb ();
      counts =
        [
          ("relearns", List.length relearns);
          ( "delta_grounds",
            match engine_stats with
            | Some s -> s.Serve.delta.Serve.delta_grounds
            | None -> 0 );
        ];
    },
    {
      base = Agenp.Ams.base_gpm ams;
      gpms;
      decisions;
      relearns;
      served = List.rev !served;
      engine_stats;
    } )

(* ---- checks and replays ----------------------------------------------- *)

(** Counts the checks and replays gather. *)
type replay = {
  mutable decisions : int;
  mutable programs : int;
  mutable sat : int;
  mutable parse_trees : int;
  mutable ground_rules : int;
  mutable relearns : int;
  mutable examples : int;
  mutable witnesses : int;  (** as the learner reports them *)
  mutable replayed_witnesses : int;
  mutable kill_cells : int;
  mutable nodes : int;
  mutable pruned : int;
  mutable unlisted : int;
      (** killed soft positives an outcome paid for but did not list *)
}

let new_replay () =
  {
    decisions = 0;
    programs = 0;
    sat = 0;
    parse_trees = 0;
    ground_rules = 0;
    relearns = 0;
    examples = 0;
    witnesses = 0;
    replayed_witnesses = 0;
    kill_cells = 0;
    nodes = 0;
    pruned = 0;
    unlisted = 0;
  }

(* The valid options of one decision, recomposed from the public functions
   the uncached membership path chains — Earley parse, tree program,
   ground, solve — stopping at the first satisfiable tree as
   Asg.Membership does. *)
let decompose rp gpm context =
  let g = Asg.Gpm.with_context gpm context in
  let accepts opt =
    let trees =
      Recorder.span "grammar.earley" (fun () ->
          Grammar.Earley.parses (Asg.Gpm.cfg g) (Asg.Membership.tokenize opt))
    in
    rp.parse_trees <- rp.parse_trees + List.length trees;
    List.exists
      (fun tree ->
        let p =
          Recorder.span "asg.tree_program" (fun () ->
              Asg.Tree_program.program g tree)
        in
        let gp = Recorder.span "asp.ground" (fun () -> Asp.Grounder.ground p) in
        rp.programs <- rp.programs + 1;
        rp.ground_rules <- rp.ground_rules + Asp.Grounder.size gp;
        let sat =
          Recorder.span "asp.solve" (fun () ->
              Asp.Solver.has_answer_set_ground gp)
        in
        if sat then rp.sat <- rp.sat + 1;
        sat)
      trees
  in
  Common.decision_of_valid (List.filter accepts Common.options)

(* One measured decision, checked against a reference: the recomposed
   uncached path on the steady workload (whose PDP is the uncached path
   itself), [Serve.decide_uncached] on the served drift workload. With
   [detail], a steady decision is also replayed through [Pdp.decide] and
   [Membership.accepts_in_context] for the per-layer times. *)
let check_decision rp fx ~detail i gpm context (d : Serve.Decision.t) =
  Recorder.span ~req:i "replay.decision" @@ fun () ->
  rp.decisions <- rp.decisions + 1;
  match fx.kind with
  | Drift ->
    Common.same_decision d
      (Serve.decide_uncached gpm
         (Serve.Request.make ~context ~options:Common.options ()))
  | Steady ->
    let agrees f = (not detail) || Common.same_decision d (f ()) in
    agrees (fun () ->
        Recorder.span "agenp.pdp.decide" (fun () ->
            Agenp.Pdp.decide gpm ~context ~options:Common.options))
    && agrees (fun () ->
           Common.decision_of_valid
             (Recorder.span "asg.membership" (fun () ->
                  List.filter
                    (fun opt ->
                      Asg.Membership.accepts_in_context gpm ~context opt)
                    Common.options)))
    && Common.same_decision d (decompose rp gpm context)

(* One relearn replayed from its task: it must return the loop's
   hypothesis, and that hypothesis must cover the examples the learner did
   not sacrifice (Task.is_solution on them, one example at a time). With
   [detail], the learner's phases and the PAdaP's accuracy pass are
   replayed through their public functions too. *)
let check_relearn rp fx (cap : capture) ~detail (rl : relearn) =
  Recorder.span ~req:rl.at "replay.relearn" @@ fun () ->
  let examples = List.rev rl.examples in
  let task = Ilp.Task.make ~gpm:cap.base ~space:fx.space ~examples in
  let outcome = Recorder.span "ilp.learn" (fun () -> Ilp.Learner.learn task) in
  rp.relearns <- rp.relearns + 1;
  rp.examples <- rp.examples + List.length examples;
  if detail then begin
    let ws =
      Recorder.span "ilp.witnesses" (fun () ->
          List.concat_map (Ilp.Learner.witnesses_of_example cap.base) examples)
    in
    rp.replayed_witnesses <- rp.replayed_witnesses + List.length ws;
    let cells =
      Recorder.span "ilp.kill_matrix" (fun () ->
          List.fold_left
            (fun acc c ->
              List.fold_left
                (fun acc w -> if Ilp.Learner.kills c w then acc + 1 else acc)
                acc ws)
            0 fx.space)
    in
    rp.kill_cells <- rp.kill_cells + cells;
    Recorder.span "ilp.covers" (fun () ->
        List.iter
          (fun g ->
            List.iter (fun e -> ignore (Ilp.Task.covers g e : bool)) examples)
          [ rl.old_gpm; rl.new_gpm ])
  end;
  match outcome with
  | None -> false
  | Some o ->
    let st = o.Ilp.Learner.stats in
    rp.nodes <- rp.nodes + st.Ilp.Learner.nodes;
    rp.pruned <- rp.pruned + st.Ilp.Learner.pruned;
    rp.witnesses <- rp.witnesses + st.Ilp.Learner.witnesses;
    let kept =
      List.filter (fun e -> not (List.memq e o.Ilp.Learner.sacrificed)) examples
    in
    (* The greedy warm start pays for soft positives it kills without
       listing them in [sacrificed]; such an outcome is not an inductive
       solution of its non-sacrificed examples. Accept exactly those
       examples — soft positives whose weights close the gap between the
       listed sacrifices and the reported penalty — and count them. *)
    let uncovered =
      Recorder.span "ilp.is_solution" (fun () ->
          let g = Ilp.Task.apply_hypothesis cap.base o.Ilp.Learner.hypothesis in
          List.filter (fun e -> not (Ilp.Task.covers g e)) kept)
    in
    let weight (e : Ilp.Example.t) = Option.value e.weight ~default:0 in
    let sum = List.fold_left (fun acc e -> acc + weight e) 0 in
    rp.unlisted <- rp.unlisted + List.length uncovered;
    Common.same_hypothesis o.Ilp.Learner.hypothesis rl.hypothesis
    && List.for_all
         (fun (e : Ilp.Example.t) -> Ilp.Example.is_positive e && e.weight <> None)
         uncovered
    && sum o.Ilp.Learner.sacrificed + sum uncovered = o.Ilp.Learner.penalty

(** Check every decision and relearn of a captured pass; returns the
    number of failed requests. *)
let check rp fx (cap : capture) ~detail =
  let failed = Array.make (Array.length cap.decisions) false in
  Array.iteri
    (fun i d ->
      let ok =
        match d with
        | None -> false
        | Some d -> (
          try
            check_decision rp fx ~detail i cap.gpms.(i) fx.stream.(i).context d
          with _ -> false)
      in
      if not ok then failed.(i) <- true)
    cap.decisions;
  List.iter
    (fun rl ->
      let ok = try check_relearn rp fx cap ~detail rl with _ -> false in
      if not ok then failed.(rl.at) <- true)
    cap.relearns;
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 failed

(* ---- runs ------------------------------------------------------------- *)

let timed_run kind ~seed ~seconds : Common.report =
  let captured = ref None in
  let fx, passes, setup_times =
    Common.measure ~seconds ~setups
      ~setup:(fun () -> setup kind ~seed)
      (fun fx ->
        let p, cap = pass fx ~traced:false () in
        if !captured = None then captured := Some cap;
        p)
  in
  let rp = new_replay () in
  let failed = check rp fx (Option.get !captured) ~detail:false in
  {
    Common.attempted = Common.requests passes;
    (* the first pass's errors are already failed checks *)
    failed =
      List.fold_left
        (fun acc (p : Common.pass) -> acc + p.errors)
        failed (List.tl passes);
    counts =
      Common.run_counts (List.hd passes)
        [ ("search_nodes", rp.nodes); ("witnesses", rp.witnesses) ];
    counts_repeat = Common.counts_repeat passes;
    metrics = Common.end_to_end ~setup_times passes;
  }

let traced_run kind ~seed : Common.report =
  let fx = setup kind ~seed in
  let run () = fst (pass fx ~traced:false ()) in
  Gc.full_major ();
  let spans0 = Common.obs_span_count () in
  let plain = run () in
  let spans = Common.obs_span_count () - spans0 in
  let recorder =
    Common.recorder_metric ~plain:run ~traced:(fun () ->
        fst (pass fx ~traced:true ()))
  in
  let obs =
    Common.obs_metrics ~requests:(Array.length plain.latencies) ~spans ~run
  in
  Recorder.enabled := true;
  Gc.full_major ();
  let traced, cap = pass fx ~traced:true () in
  let rp = new_replay () in
  let failed = check rp fx cap ~detail:true in
  Recorder.enabled := false;
  let relearn_at = List.map (fun rl -> rl.at) cap.relearns in
  let is_relearn r = List.mem r relearn_at in
  let request_s, requests =
    Recorder.total ~req:(fun r -> not (is_relearn r)) "agenp.handle_request"
  in
  let relearn_request_s, relearns =
    Recorder.total ~req:is_relearn "agenp.handle_request"
  in
  let t name = fst (Recorder.total name) in
  let membership_s =
    fst (Recorder.total ~req:(fun r -> not (is_relearn r)) "asg.membership")
  in
  let learn_s = t "ilp.learn" and witnesses_s = t "ilp.witnesses" in
  let kill_s = t "ilp.kill_matrix" and covers_s = t "ilp.covers" in
  let m = Common.metric in
  let layers =
    [
      m "agenp.request_s" "s" request_s
        ~note:(Printf.sprintf "%d non-relearning handle_request calls" requests);
      m "agenp.pdp_s" "s" (t "agenp.pdp.decide") ~note:"replayed Pdp.decide";
      m "agenp.relearn_request_s" "s" relearn_request_s
        ~note:(Printf.sprintf "%d relearning handle_request calls" relearns);
      m "agenp.relearns" "count" (float_of_int relearns);
      m "asg.replayed_decisions" "count" (float_of_int rp.decisions);
      m "asg.membership_s" "s" (t "asg.membership");
      m "grammar.earley_s" "s" (t "grammar.earley");
      m "grammar.parse_trees" "count" (float_of_int rp.parse_trees);
      m "asg.tree_program_s" "s" (t "asg.tree_program");
      m "asp.ground_s" "s" (t "asp.ground");
      m "asp.ground_rules" "count" (float_of_int rp.ground_rules);
      m "asp.solve_s" "s" (t "asp.solve");
      m "asp.programs_per_decision" "count"
        (Common.iratio rp.programs rp.decisions)
        ~note:(Printf.sprintf "%d programs" rp.programs);
      m "asp.sat_ratio" "ratio"
        (Common.iratio rp.sat rp.programs)
        ~note:(Printf.sprintf "%d of %d programs" rp.sat rp.programs);
      m "ilp.replayed_relearns" "count" (float_of_int rp.relearns);
      m "ilp.learn_s" "s" learn_s;
      m "ilp.witnesses_s" "s" witnesses_s;
      m "ilp.witnesses" "count"
        (float_of_int rp.replayed_witnesses)
        ~note:(Printf.sprintf "learner reported %d" rp.witnesses);
      m "ilp.kill_matrix_s" "s" kill_s;
      m "ilp.kill_cells" "count" (float_of_int rp.kill_cells);
      m "ilp.search_s" "s"
        (learn_s -. witnesses_s -. kill_s)
        ~note:"learn minus witnesses and kill matrix";
      m "ilp.search_nodes" "count" (float_of_int rp.nodes);
      m "ilp.pruned_ratio" "ratio"
        (Common.iratio rp.pruned rp.nodes)
        ~note:(Printf.sprintf "%d of %d nodes" rp.pruned rp.nodes);
      m "ilp.covers_s" "s" covers_s;
      m "ilp.examples_per_relearn" "count"
        (Common.iratio rp.examples rp.relearns);
      m "ilp.unlisted_sacrifices" "count" (float_of_int rp.unlisted)
        ~note:"uncovered soft positives missing from Learner.sacrificed";
      m "bench.replayed_share_request" "ratio"
        (Common.ratio membership_s request_s)
        ~note:"asg.membership replays / agenp.request_s";
      m "bench.replayed_share_relearn" "ratio"
        (Common.ratio (learn_s +. covers_s) relearn_request_s)
        ~note:"ilp.learn + ilp.covers replays / agenp.relearn_request_s";
      recorder;
    ]
  in
  let serve =
    match fx.kind with
    | Steady -> []
    | Drift ->
      Common.serve_metrics ~served:cap.served
        ~stats:(Option.to_list cap.engine_stats)
        ~cluster_wall:0.0 ~requests:(Array.length fx.stream) ~coalesced:0
  in
  {
    Common.attempted = Array.length traced.latencies;
    failed;
    counts =
      Common.run_counts plain
        [ ("search_nodes", rp.nodes); ("witnesses", rp.witnesses) ];
    counts_repeat = plain.counts = traced.counts;
    metrics = layers @ serve @ obs;
  }
