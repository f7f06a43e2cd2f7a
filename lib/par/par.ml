(* A fixed-size domain pool over one shared task queue. See par.mli for
   the determinism contract; the short version is that [parallel_map]
   must be observationally identical to [Array.map], including which
   exception escapes, no matter how chunks are scheduled. *)

type task = unit -> unit

type t = {
  size : int;  (* total parallelism, caller included *)
  queue : task Queue.t;
  lock : Mutex.t;  (* guards [queue] and [stopped] *)
  work : Condition.t;  (* signalled when tasks arrive or on shutdown *)
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
}

(* Workers block on [work] until a task is queued or the pool stops.
   Tasks are closures that never raise (chunk bodies capture their own
   exceptions), but a stray exception must not kill the domain. *)
let rec worker_loop pool =
  Mutex.lock pool.lock;
  let rec await () =
    if not (Queue.is_empty pool.queue) then Some (Queue.pop pool.queue)
    else if pool.stopped then None
    else begin
      Condition.wait pool.work pool.lock;
      await ()
    end
  in
  match await () with
  | None -> Mutex.unlock pool.lock
  | Some task ->
    Mutex.unlock pool.lock;
    (try task () with _ -> ());
    worker_loop pool

let create ?domains () =
  let requested =
    match domains with
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  let size = max 1 requested in
  let pool =
    {
      size;
      queue = Queue.create ();
      lock = Mutex.create ();
      work = Condition.create ();
      stopped = false;
      workers = [];
    }
  in
  pool.workers <-
    List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let size pool = pool.size

let shutdown pool =
  Mutex.lock pool.lock;
  let already = pool.stopped in
  pool.stopped <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.lock;
  if not already then begin
    List.iter Domain.join pool.workers;
    pool.workers <- []
  end

(* One submitted fan-out: chunk completions are counted down under the
   batch's own lock, and every chunk that raised records (chunk index,
   exception, backtrace) so the caller can re-raise the lowest-index
   one — the exception sequential iteration would have produced. *)
type batch = {
  b_lock : Mutex.t;
  b_done : Condition.t;
  mutable b_remaining : int;
  mutable b_failures : (int * exn * Printexc.raw_backtrace) list;
}

let finish_chunk batch failure =
  Mutex.lock batch.b_lock;
  (match failure with
  | Some f -> batch.b_failures <- f :: batch.b_failures
  | None -> ());
  batch.b_remaining <- batch.b_remaining - 1;
  if batch.b_remaining = 0 then Condition.broadcast batch.b_done;
  Mutex.unlock batch.b_lock

(* The submitting domain drains the queue while its batch is pending.
   It may well execute chunks of other batches (nested or concurrent
   submissions); that is what makes nesting deadlock-free — whoever
   waits also works. *)
let rec help pool =
  Mutex.lock pool.lock;
  if Queue.is_empty pool.queue then Mutex.unlock pool.lock
  else begin
    let task = Queue.pop pool.queue in
    Mutex.unlock pool.lock;
    (try task () with _ -> ());
    help pool
  end

let sequential_map f arr = Array.map f arr

(* Chunks per participating domain: >1 so an unlucky expensive chunk
   does not serialize the tail of the batch, small enough that queue
   traffic stays negligible next to real work. *)
let chunks_per_domain = 4

let parallel_map pool f arr =
  let n = Array.length arr in
  if pool.size <= 1 || pool.stopped || n <= 1 then sequential_map f arr
  else begin
    let out = Array.make n None in
    let nchunks = min n (pool.size * chunks_per_domain) in
    let batch =
      {
        b_lock = Mutex.create ();
        b_done = Condition.create ();
        b_remaining = nchunks;
        b_failures = [];
      }
    in
    (* captured once at submission: chunks re-install the submitter's
       trace context on whichever domain runs them, so request-scoped
       IDs survive the fan-out (and a context-free submission masks any
       leftover context on a helping domain) *)
    let ctx = Obs.Trace_context.current () in
    let chunk ci () =
      Obs.Trace_context.with_opt ctx @@ fun () ->
      let lo = ci * n / nchunks and hi = (ci + 1) * n / nchunks in
      match
        for j = lo to hi - 1 do
          out.(j) <- Some (f arr.(j))
        done
      with
      | () -> finish_chunk batch None
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish_chunk batch (Some (ci, e, bt))
    in
    Mutex.lock pool.lock;
    for ci = 0 to nchunks - 1 do
      Queue.push (chunk ci) pool.queue
    done;
    Condition.broadcast pool.work;
    Mutex.unlock pool.lock;
    help pool;
    Mutex.lock batch.b_lock;
    while batch.b_remaining > 0 do
      Condition.wait batch.b_done batch.b_lock
    done;
    let failures = batch.b_failures in
    Mutex.unlock batch.b_lock;
    match
      List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) failures
    with
    | (_, e, bt) :: _ -> Printexc.raise_with_backtrace e bt
    | [] ->
      Array.map
        (function
          | Some v -> v
          | None -> assert false (* every chunk completed exception-free *))
        out
  end

let parallel_iter pool f arr = ignore (parallel_map pool f arr)

module Config = struct
  let degree = Atomic.make 1
  let current : t option ref = ref None
  let cfg_lock = Mutex.create ()

  let set_domains d =
    Mutex.lock cfg_lock;
    Atomic.set degree (max 1 d);
    let old = !current in
    current := None;
    Mutex.unlock cfg_lock;
    Option.iter shutdown old

  let domains () = Atomic.get degree

  let pool () =
    Mutex.lock cfg_lock;
    let p =
      match !current with
      | Some p -> p
      | None ->
        let p = create ~domains:(Atomic.get degree) () in
        current := Some p;
        p
    in
    Mutex.unlock cfg_lock;
    p
end
