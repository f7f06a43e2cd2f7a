(* tenant-stream: the multi-tenant serve plane under load. A Zipf stream
   over a context pool larger than the 256-entry decision memo is served
   to [tenants] tenants, each running a model learned during set-up. One
   closed-loop client hands the stream to Serve.Cluster.run in windows of
   the queue depth, the way `agenp serve --tenants` hands over a request
   file, and waits for each window. No learning and no full grounding
   runs here: only the memo, delta ground/solve, and the cluster's queue
   and coalescing. *)

let tenants = 4
let queue_depth = 64 (* the `agenp serve --queue-depth` default *)
let pool_size = 1024
let users = 4096
let stream_len = 20_000
let log_len = 200 (* requests in each tenant's training log *)
let log_seed = 1000 (* tenant k learns from the fixed log [log_seed + k] *)
let setups = 9

type fixture = {
  models : (string * Asg.Gpm.t) list;  (** tenant -> learned model *)
  requests : Serve.Request.t array;  (** the stream, in order *)
  pool_index : int array;  (** each request's context in the pool *)
  truths : Policy.Decision.t array;  (** ground truth per pool context *)
  windows : Serve.Request.t list array;  (** the stream cut into windows *)
  learn_ms : float list;  (** each tenant model's learner time *)
}

let setup ~seed =
  let rng = Random.State.make [| seed; 3 |] in
  let base = Workloads.Xacml_logs.gpm () in
  let space = Ilp.Hypothesis_space.generate (Workloads.Xacml_logs.modes ()) in
  let learn_ms = ref [] in
  let models =
    List.init tenants (fun k ->
        (* fixed training logs, so that compliance and the learner times
           measure the same models on every seed *)
        let log =
          Workloads.Xacml_logs.log ~seed:(log_seed + k) ~n:log_len ()
        in
        let task =
          Ilp.Task.make ~gpm:base ~space
            ~examples:(Policy.Xacml.examples_of_log log)
        in
        let t0 = Common.now () in
        let outcome = Ilp.Learner.learn task in
        learn_ms := ((Common.now () -. t0) *. 1e3) :: !learn_ms;
        match outcome with
        | Some o ->
          ( "t" ^ string_of_int k,
            Ilp.Task.apply_hypothesis base o.Ilp.Learner.hypothesis )
        | None -> failwith "tenant model: learning task unsatisfiable")
  in
  let pool = Array.init pool_size (fun _ -> Common.random_req rng ~users) in
  let next = Common.zipf rng pool_size in
  let pool_index = Array.init stream_len (fun _ -> next ()) in
  let names = Array.of_list (List.map fst models) in
  let requests =
    Array.mapi
      (fun i k ->
        Serve.Request.make
          ~tenant:names.(i mod tenants)
          ~context:pool.(k).Common.context ~options:Common.options ())
      pool_index
  in
  let windows =
    Array.init
      ((stream_len + queue_depth - 1) / queue_depth)
      (fun w ->
        let lo = w * queue_depth in
        Array.to_list
          (Array.sub requests lo (min queue_depth (stream_len - lo))))
  in
  {
    models;
    requests;
    pool_index;
    truths = Array.map (fun (r : Common.req) -> r.truth) pool;
    windows;
    learn_ms = List.rev !learn_ms;
  }

(** What a pass leaves for the checks and the per-layer metrics. *)
type capture = {
  outcomes : Serve.Cluster.outcome array;  (** per request, stream order *)
  cluster : Serve.Cluster.t;
}

let pass fx () : Common.pass * capture =
  let cluster = Serve.Cluster.create ~queue_depth ~tenants:fx.models () in
  let lat = Array.make stream_len 0.0 in
  let outcomes = Array.make (Array.length fx.windows) [] in
  let errors = ref 0 in
  let w0 = Gc.minor_words () in
  let t_start = Common.now () in
  Array.iteri
    (fun w window ->
      let t0 = Common.now () in
      (match
         Recorder.span ~req:w "serve.cluster_run" (fun () ->
             Serve.Cluster.run cluster window)
       with
      | out -> outcomes.(w) <- out
      | exception _ -> errors := !errors + List.length window);
      Array.fill lat (w * queue_depth) (List.length window) (Common.now () -. t0))
    fx.windows;
  let wall = Common.now () -. t_start in
  let alloc_words = Gc.minor_words () -. w0 in
  let outcomes = Array.of_list (List.concat (Array.to_list outcomes)) in
  let compliant = ref 0 in
  Array.iteri
    (fun i o ->
      match o with
      | Serve.Cluster.Served r
        when Common.valid
               ~truth:fx.truths.(fx.pool_index.(i))
               r.Serve.Response.decision.Serve.Decision.chosen ->
        incr compliant
      | _ -> ())
    outcomes;
  let stats = List.map snd (Serve.Cluster.stats cluster) in
  ( {
      Common.wall;
      latencies = lat;
      relearn_at = [];
      compliant = !compliant;
      errors = !errors;
      alloc_words;
      peak_heap_mb = Common.peak_heap_mb ();
      counts =
        [
          ("coalesced", Serve.Cluster.coalesced cluster);
          ( "delta_grounds",
            List.fold_left
              (fun acc (s : Serve.stats) -> acc + s.delta.delta_grounds)
              0 stats );
          ( "memo_hits",
            List.fold_left
              (fun acc (s : Serve.stats) -> acc + s.decisions.hits)
              0 stats );
        ];
    },
    { outcomes; cluster } )

(** Check a pass's outcomes: each is served by its tenant's shard, equals
    what one engine per tenant model gives serving the stream
    sequentially with [Serve.decide], and equals [Serve.decide_uncached]
    on the same model and context. Returns the number of failed
    requests. *)
let check fx (cap : capture) =
  let reference =
    List.map (fun (name, gpm) -> (name, Serve.create ~name gpm)) fx.models
  in
  let uncached = Hashtbl.create 4096 in
  let failed = ref 0 in
  if Array.length cap.outcomes <> stream_len then failed := stream_len
  else
    Array.iteri
      (fun i (req : Serve.Request.t) ->
        let ok =
          try
            match cap.outcomes.(i) with
            | Serve.Cluster.Rejected _ -> false
            | Serve.Cluster.Served r ->
              let d = r.Serve.Response.decision in
              let seq =
                Serve.decide (List.assoc req.tenant reference) req
              in
              let key = (req.tenant, fx.pool_index.(i)) in
              let ref_d =
                match Hashtbl.find_opt uncached key with
                | Some d -> d
                | None ->
                  let d =
                    Serve.decide_uncached (List.assoc req.tenant fx.models) req
                  in
                  Hashtbl.add uncached key d;
                  d
              in
              r.Serve.Response.shard = req.tenant
              && Common.same_decision d seq.Serve.Response.decision
              && Common.same_decision d ref_d
          with _ -> false
        in
        if not ok then incr failed)
      fx.requests;
  !failed

let timed_run ~seed ~seconds : Common.report =
  (* every set-up learns the tenant models: the median learner time of
     each set-up is a relearn_p50_ms sample of this workload *)
  let learn_ms = ref [] in
  let captured = ref None in
  let fx, passes, setup_times =
    Common.measure ~seconds ~setups
      ~setup:(fun () ->
        let fx = setup ~seed in
        learn_ms := Common.median fx.learn_ms :: !learn_ms;
        fx)
      (fun fx ->
        let p, cap = pass fx () in
        if !captured = None then captured := Some cap;
        p)
  in
  let failed = check fx (Option.get !captured) in
  {
    Common.attempted = Common.requests passes;
    failed =
      List.fold_left
        (fun acc (p : Common.pass) -> acc + p.errors)
        failed (List.tl passes);
    counts = Common.run_counts (List.hd passes) [];
    counts_repeat = Common.counts_repeat passes;
    metrics = Common.end_to_end ~relearn_ms:!learn_ms ~setup_times passes;
  }

let traced_run ~seed : Common.report =
  let fx = setup ~seed in
  let run () = fst (pass fx ()) in
  Gc.full_major ();
  let spans0 = Common.obs_span_count () in
  let plain = run () in
  let spans = Common.obs_span_count () - spans0 in
  let recorder = Common.recorder_metric ~plain:run ~traced:run in
  let obs = Common.obs_metrics ~requests:stream_len ~spans ~run in
  Recorder.enabled := true;
  Gc.full_major ();
  let traced, cap = pass fx () in
  Recorder.enabled := false;
  let failed = check fx cap in
  (* coalesced requests share their representative's response: count
     each computation once *)
  let seen = Hashtbl.create 4096 in
  let served =
    Array.fold_left
      (fun acc o ->
        match o with
        | Serve.Cluster.Served r when not (Hashtbl.mem seen r.Serve.Response.trace_id)
          ->
          Hashtbl.add seen r.Serve.Response.trace_id ();
          ( Serve.provenance_to_string r.Serve.Response.provenance,
            r.Serve.Response.latency )
          :: acc
        | _ -> acc)
      [] cap.outcomes
  in
  let run_s, windows = Recorder.total "serve.cluster_run" in
  let serve =
    Common.serve_metrics ~served
      ~stats:(List.map snd (Serve.Cluster.stats cap.cluster))
      ~cluster_wall:run_s ~requests:stream_len
      ~coalesced:(Serve.Cluster.coalesced cap.cluster)
  in
  {
    Common.attempted = stream_len;
    failed;
    counts = Common.run_counts plain [];
    counts_repeat = plain.counts = traced.counts;
    metrics =
      serve
      @ [
          Common.metric "serve.windows" "count" (float_of_int windows)
            ~note:(Printf.sprintf "Cluster.run calls of up to %d requests" queue_depth);
          recorder;
        ]
      @ obs;
  }
