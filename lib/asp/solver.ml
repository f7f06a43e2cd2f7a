(** Stable-model (answer-set) computation.

    The solver grounds the program, narrows the search space with
    well-founded propagation, then runs a DPLL-style search over the
    remaining unknown atoms. Each complete assignment is verified against
    the Gelfond–Lifschitz condition (least model of the reduct equals the
    candidate), so the search is sound and complete for normal rules,
    constraints, and choice rules with cardinality bounds. Every search
    runs over a {!prepare}d program, extended by any delta rules
    ({!extend}); the well-founded bounds and the stability check are
    least models of reducts, computed by one loop ({!least_model}).

    Propagation is {e counter-based} in the style of two-watched-literal
    schemes: every rule keeps a satisfied-literal counter and a
    falsified-literal counter, occurrence lists map each atom to the rules
    watching it, and assignments drain through a queue touching only the
    rules that mention the assigned atom — unit propagation is O(occurrences)
    per flip instead of O(rules). Head support is tracked with {e source
    pointers}: each atom points at one non-blocked rule that can still
    derive it, and only when that rule's body becomes blocked is a
    replacement searched; atoms with no remaining source are forced false
    (or conflict, if already true). *)

type model = Atom.Set.t

let c_solve_calls = Obs.Counter.make "asp.solve.calls"
let c_propagations = Obs.Counter.make "asp.solve.propagations"
let c_decisions = Obs.Counter.make "asp.solve.decisions"
let c_conflicts = Obs.Counter.make "asp.solve.conflicts"
let c_gl_checks = Obs.Counter.make "asp.solve.gl_checks"
let c_models_found = Obs.Counter.make "asp.solve.models"

let pp_model ppf m =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") Atom.pp) (Atom.Set.elements m)

let model_to_string m = Fmt.str "%a" pp_model m

type value = True | False | Unknown

exception Conflict
exception Done

(* Integer-indexed view of a ground rule. *)
type irule = {
  ihead : ihead;
  ipos : int array;
  ineg : int array;
}

and ihead =
  | IAtom of int
  | IFalse
  | IWeak of int  (** weight of a weak-constraint instance *)
  | IChoice of int option * int array * int option

(* The compiled form of a ground program, never written once built, so
   one value backs any number of concurrent searches. *)
type prepared = {
  atoms : Atom.t array;
  id_of : (Atom.t, int) Hashtbl.t;
      (** ids of the prepared atoms; a delta's new atoms are numbered by
          {!extend} alone *)
  rules : irule array;
  counts : Grounder.ground_rule list;
      (** aggregate-bearing constraints/weak rules, checked on candidate
          models rather than during propagation *)
  rules_by_head : int list array;  (** rule indices that can derive atom i *)
  pos_occ : int list array;  (** rules with atom i in their positive body *)
  neg_occ : int list array;  (** rules with atom i in their negative body *)
  nbody : int array;  (** body literal count per rule *)
  definite : bool;
      (** every rule has a plain atom head, no negative body, no
          aggregates: the program is definite, so its least model exists
          and equals the grounder's derived base *)
}

(* A search over a prepared program: the program and the mutable arrays. *)
type search_state = {
  pr : prepared;
  assignment : value array;
  sat_cnt : int array;  (** body literals currently satisfied, per rule *)
  blk_cnt : int array;  (** body literals currently falsified, per rule *)
  source : int array;  (** supporting rule per atom, or -1 *)
  queue : int array;  (** assignment queue (ring of atom ids) *)
  mutable qhead : int;
  mutable qtail : int;
  derived : bool array;  (** the stability check's least model *)
  missing : int array;
      (** per rule, the positive body atoms a least model has not derived
          yet *)
}

(* -- Compilation ------------------------------------------------------- *)

let irule id (r : Grounder.ground_rule) =
  {
    ihead =
      (match r.ghead with
      | Grounder.GAtom a -> IAtom (id a)
      | Grounder.GFalse -> IFalse
      | Grounder.GWeak w -> IWeak w
      | Grounder.GChoice (l, ats, u) ->
        IChoice (l, Array.of_list (List.map id ats), u));
    ipos = Array.of_list (List.map id r.gpos);
    ineg = Array.of_list (List.map id r.gneg);
  }

(* [pr] extended with [atoms] and the indexed [rules] over them, plus the
   aggregate-bearing [counts]. Consing onto copied occurrence slots
   builds new cells over [pr]'s tails, so [pr] is never written. *)
let append pr ~atoms ~counts rules =
  let cat a b =
    if Array.length a = 0 then b
    else if Array.length b = 0 then a
    else Array.append a b
  in
  let n0 = Array.length pr.atoms and nr0 = Array.length pr.rules in
  let atoms = cat pr.atoms atoms and all = cat pr.rules rules in
  let n = Array.length atoms in
  let grow occ =
    let a = Array.make n [] in
    Array.blit occ 0 a 0 n0;
    a
  in
  let rules_by_head = grow pr.rules_by_head in
  let pos_occ = grow pr.pos_occ and neg_occ = grow pr.neg_occ in
  let nbody = Array.make (Array.length all) 0 in
  Array.blit pr.nbody 0 nbody 0 nr0;
  Array.iteri
    (fun k r ->
      let ri = nr0 + k in
      (match r.ihead with
      | IAtom h -> rules_by_head.(h) <- ri :: rules_by_head.(h)
      | IFalse | IWeak _ -> ()
      | IChoice (_, ats, _) ->
        Array.iter (fun a -> rules_by_head.(a) <- ri :: rules_by_head.(a)) ats);
      nbody.(ri) <- Array.length r.ipos + Array.length r.ineg;
      Array.iter (fun a -> pos_occ.(a) <- ri :: pos_occ.(a)) r.ipos;
      Array.iter (fun a -> neg_occ.(a) <- ri :: neg_occ.(a)) r.ineg)
    rules;
  {
    atoms;
    id_of = pr.id_of;
    rules = all;
    counts = (if counts = [] then pr.counts else pr.counts @ counts);
    rules_by_head;
    pos_occ;
    neg_occ;
    nbody;
    definite =
      pr.definite && counts = []
      && Array.for_all
           (fun r ->
             Array.length r.ineg = 0
             && match r.ihead with IAtom _ -> true | _ -> false)
           rules;
  }

let split_counts (rules : Grounder.ground_rule list) =
  List.partition (fun (r : Grounder.ground_rule) -> r.gcounts <> []) rules

let prepare (gp : Grounder.ground_program) : prepared =
  let atoms = Array.of_list (Atom.Set.elements gp.base) in
  let id_of = Hashtbl.create (Array.length atoms * 2) in
  Array.iteri (fun i a -> Hashtbl.replace id_of a i) atoms;
  let counts, plain = split_counts gp.grules in
  (* no atoms or rules yet, but the atom table [append] passes on *)
  let empty =
    {
      atoms = [||];
      id_of;
      rules = [||];
      counts = [];
      rules_by_head = [||];
      pos_occ = [||];
      neg_occ = [||];
      nbody = [||];
      definite = true;
    }
  in
  append empty ~atoms ~counts
    (Array.of_list (List.map (irule (Hashtbl.find id_of)) plain))

(** A fresh search over [pr]'s program extended with [delta] ground rules:
    the mutable search arrays, over [pr] itself when there is no delta
    (every array of [pr] shared), otherwise over [pr] with only the delta
    compiled, its new atoms numbered above [pr]'s in order of
    appearance. *)
let extend (pr : prepared) (delta : Grounder.ground_rule list) : search_state =
  let pr =
    match delta with
    | [] -> pr
    | _ ->
      let n0 = Array.length pr.atoms in
      let fresh = ref [] in
      let local = Hashtbl.create 16 in
      let id a =
        match Hashtbl.find_opt pr.id_of a with
        | Some i -> i
        | None -> (
          match Hashtbl.find_opt local a with
          | Some i -> i
          | None ->
            let i = n0 + Hashtbl.length local in
            Hashtbl.add local a i;
            fresh := a :: !fresh;
            i)
      in
      (* aggregate-bearing delta rules are model-checked like the core's;
         their body atoms need no ids: an atom no plain rule can derive is
         never true in a stable model, so checking it against the
         extracted model coincides with the full-program search *)
      let counts, plain = split_counts delta in
      let rules = Array.of_list (List.map (irule id) plain) in
      append pr ~atoms:(Array.of_list (List.rev !fresh)) ~counts rules
  in
  let n = Array.length pr.atoms and nr = Array.length pr.rules in
  {
    pr;
    assignment = Array.make n Unknown;
    sat_cnt = Array.make nr 0;
    blk_cnt = Array.make nr 0;
    source = Array.make n (-1);
    (* n+1 slots: each atom enqueues at most once between drains, so the
       ring can never fill and alias empty *)
    queue = Array.make (n + 1) 0;
    qhead = 0;
    qtail = 0;
    derived = Array.make n false;
    missing = Array.make nr 0;
  }

(* -- Propagation ------------------------------------------------------- *)

(** Enqueue an assignment. Raises [Conflict] on contradiction; returns
    [true] when the atom was newly assigned. *)
let set st i v =
  match st.assignment.(i) with
  | Unknown ->
    st.assignment.(i) <- v;
    st.queue.(st.qtail) <- i;
    st.qtail <- (st.qtail + 1) mod Array.length st.queue;
    Obs.Counter.incr c_propagations;
    true
  | existing -> if existing = v then false else raise Conflict

let clear_queue st =
  st.qhead <- 0;
  st.qtail <- 0

(** Cardinality propagation for a choice rule whose body is satisfied. *)
let choice_bounds st lower ats upper =
  let n_true = ref 0 and n_unknown = ref 0 in
  Array.iter
    (fun a ->
      match st.assignment.(a) with
      | True -> incr n_true
      | Unknown -> incr n_unknown
      | False -> ())
    ats;
  (match upper with
  | Some u ->
    if !n_true > u then raise Conflict
    else if !n_true = u && !n_unknown > 0 then
      (* remaining elements must be false *)
      Array.iter
        (fun a -> if st.assignment.(a) = Unknown then ignore (set st a False))
        ats
  | None -> ());
  match lower with
  | Some l ->
    if !n_true + !n_unknown < l then raise Conflict
    else if !n_true + !n_unknown = l && !n_unknown > 0 then
      Array.iter
        (fun a -> if st.assignment.(a) = Unknown then ignore (set st a True))
        ats
  | None -> ()

(** Consequences of rule [ri]'s body having just become satisfied. *)
let on_body_sat st ri =
  match st.pr.rules.(ri).ihead with
  | IAtom h -> ignore (set st h True)
  | IFalse -> raise Conflict
  | IWeak _ -> ()
  | IChoice (l, ats, u) -> choice_bounds st l ats u

(** Unit propagation on a constraint: with no falsified literal and a
    single unknown one left, that literal must be falsified. *)
let constraint_unit st ri =
  let r = st.pr.rules.(ri) in
  match r.ihead with
  | IFalse when st.blk_cnt.(ri) = 0 && st.pr.nbody.(ri) - st.sat_cnt.(ri) = 1 ->
    Array.iter
      (fun a -> if st.assignment.(a) = Unknown then ignore (set st a False))
      r.ipos;
    Array.iter
      (fun a -> if st.assignment.(a) = Unknown then ignore (set st a True))
      r.ineg
  | _ -> ()

(** Point [a]'s source at a non-blocked rule that can derive it; with none
    left, [a] is false (conflict if already true). *)
let support st a =
  let rec seek = function
    | [] ->
      st.source.(a) <- -1;
      ignore (set st a False)
    | ri :: rest -> if st.blk_cnt.(ri) = 0 then st.source.(a) <- ri else seek rest
  in
  seek st.pr.rules_by_head.(a)

(** Rule [ri]'s body has just become blocked: atoms whose source pointer
    was [ri] must seek a new non-blocked supporter. *)
let on_body_blocked st ri =
  let reselect a =
    if st.source.(a) = ri && st.assignment.(a) <> False then support st a
  in
  match st.pr.rules.(ri).ihead with
  | IAtom h -> reselect h
  | IChoice (_, ats, _) -> Array.iter reselect ats
  | IFalse | IWeak _ -> ()

(** Process one literal of rule [ri] becoming satisfied (pos literal made
    true / neg literal made false). *)
let literal_sat st ri =
  st.sat_cnt.(ri) <- st.sat_cnt.(ri) + 1;
  if st.blk_cnt.(ri) = 0 then
    if st.sat_cnt.(ri) = st.pr.nbody.(ri) then on_body_sat st ri
    else constraint_unit st ri

(** Process one literal of rule [ri] becoming falsified. *)
let literal_blocked st ri =
  st.blk_cnt.(ri) <- st.blk_cnt.(ri) + 1;
  if st.blk_cnt.(ri) = 1 then on_body_blocked st ri

(** Drain the assignment queue, touching only rules that watch each newly
    assigned atom. Raises [Conflict] on contradiction. *)
let propagate st =
  while st.qhead <> st.qtail do
    let i = st.queue.(st.qhead) in
    st.qhead <- (st.qhead + 1) mod Array.length st.queue;
    let v = st.assignment.(i) in
    (match v with
    | True ->
      List.iter (fun ri -> literal_sat st ri) st.pr.pos_occ.(i);
      List.iter (fun ri -> literal_blocked st ri) st.pr.neg_occ.(i)
    | False ->
      List.iter (fun ri -> literal_blocked st ri) st.pr.pos_occ.(i);
      List.iter (fun ri -> literal_sat st ri) st.pr.neg_occ.(i)
    | Unknown -> () (* unreachable: queued atoms are assigned *));
    (* an assigned choice element may tighten its rule's bounds *)
    List.iter
      (fun ri ->
        match st.pr.rules.(ri).ihead with
        | IChoice (l, ats, u)
          when st.blk_cnt.(ri) = 0 && st.sat_cnt.(ri) = st.pr.nbody.(ri) ->
          choice_bounds st l ats u
        | _ -> ())
      st.pr.rules_by_head.(i)
  done

(** One-time initialization after seeding: derive counters from the current
    assignment, pick initial source pointers, and fire all immediately
    available consequences. *)
let init_propagation st =
  let nr = Array.length st.pr.rules in
  for ri = 0 to nr - 1 do
    let r = st.pr.rules.(ri) in
    let sat = ref 0 and blk = ref 0 in
    Array.iter
      (fun a ->
        match st.assignment.(a) with
        | True -> incr sat
        | False -> incr blk
        | Unknown -> ())
      r.ipos;
    Array.iter
      (fun a ->
        match st.assignment.(a) with
        | False -> incr sat
        | True -> incr blk
        | Unknown -> ())
      r.ineg;
    st.sat_cnt.(ri) <- !sat;
    st.blk_cnt.(ri) <- !blk
  done;
  (* initial source pointers; unsupported atoms are false *)
  Array.iteri (fun i v -> if v <> False then support st i) st.assignment;
  (* fire rules already satisfied or unit by the seeded assignment *)
  for ri = 0 to nr - 1 do
    if st.blk_cnt.(ri) = 0 then
      if st.sat_cnt.(ri) = st.pr.nbody.(ri) then on_body_sat st ri
      else constraint_unit st ri
  done;
  propagate st

(* -- Least models ------------------------------------------------------ *)

(** The least model of a reduct of [pr]'s program plus the [seed] atoms
    as facts, into [out]: a rule fires once its positive body is
    derived, unless one of its negative atoms satisfies [against]; a
    firing choice rule derives the elements that satisfy [chosen]. One
    worklist pass with a counter per rule of the positive atoms still
    [missing] (left there: 0 marks a rule whose body the model
    completes), linear in the program size. [stack] needs a slot per
    atom; a search passes its propagation queue, empty whenever this
    runs (before propagation starts, and at a complete assignment). *)
let least_model pr ~missing ~stack ~against ~chosen ~seed out =
  let rules = pr.rules in
  Array.fill out 0 (Array.length out) false;
  let top = ref 0 in
  let derive a =
    if not out.(a) then begin
      out.(a) <- true;
      stack.(!top) <- a;
      incr top
    end
  in
  let fire ri =
    match rules.(ri).ihead with
    | IAtom h -> derive h
    | IChoice (_, ats, _) -> Array.iter (fun a -> if chosen a then derive a) ats
    | IFalse | IWeak _ -> ()
  in
  (* one more positive body atom of rule [ri] derived *)
  let count_down ri =
    if missing.(ri) <> max_int then begin
      missing.(ri) <- missing.(ri) - 1;
      if missing.(ri) = 0 then fire ri
    end
  in
  List.iter derive seed;
  for ri = 0 to Array.length rules - 1 do
    let r = rules.(ri) in
    if Array.exists against r.ineg then missing.(ri) <- max_int (* never fires *)
    else begin
      missing.(ri) <- Array.length r.ipos;
      if missing.(ri) = 0 then fire ri
    end
  done;
  while !top > 0 do
    decr top;
    List.iter count_down pr.pos_occ.(stack.(!top))
  done

(** Alternating-fixpoint well-founded bounds: the lower bound is the least
    model of the reduct against the upper one with no choice element, the
    upper bound that of the reduct against the lower one with every
    choice element. Atoms in the lower bound are seeded true, atoms
    outside the upper bound false. The result is unchanged, the search
    space shrinks. *)
let wellfounded_seed st =
  let n = Array.length st.pr.atoms in
  let lower = Array.make n false in
  let upper = Array.make n true in
  let lower' = Array.make n false in
  let upper' = Array.make n false in
  let least_model =
    least_model st.pr ~missing:st.missing ~stack:st.queue ~seed:[]
  in
  let continue = ref true in
  while !continue do
    least_model ~against:(Array.get upper) ~chosen:(fun _ -> false) lower';
    least_model ~against:(Array.get lower') ~chosen:(fun _ -> true) upper';
    if lower = lower' (* structural: same contents *) && upper = upper' then
      continue := false
    else begin
      Array.blit lower' 0 lower 0 n;
      Array.blit upper' 0 upper 0 n
    end
  done;
  let assigned = ref 0 in
  for i = 0 to n - 1 do
    if lower.(i) then begin
      st.assignment.(i) <- True;
      incr assigned
    end
    else if not upper.(i) then begin
      st.assignment.(i) <- False;
      incr assigned
    end
  done;
  Obs.Counter.incr c_propagations ~by:!assigned

(** Gelfond–Lifschitz check at a complete assignment: the least model of
    the reduct against the candidate, whose choice rules derive only the
    elements the candidate holds, must equal the candidate; constraints
    and cardinality bounds must hold. *)
let is_stable st =
  Obs.Counter.incr c_gl_checks;
  Obs.fine_span "asp.solve.gl_check" @@ fun () ->
  let in_m i = st.assignment.(i) = True in
  let n = Array.length st.pr.atoms in
  let nr = Array.length st.pr.rules in
  least_model st.pr ~missing:st.missing ~stack:st.queue ~against:in_m
    ~chosen:in_m ~seed:[] st.derived;
  let least_equals_m = ref true in
  for i = 0 to n - 1 do
    if st.derived.(i) <> in_m i then least_equals_m := false
  done;
  (* constraints and cardinality bounds, using the live body counters: at a
     complete assignment, sat_cnt = nbody iff the body holds in the model *)
  let bounds_ok () =
    let ok = ref true in
    for ri = 0 to nr - 1 do
      if !ok && st.sat_cnt.(ri) = st.pr.nbody.(ri) then
        match st.pr.rules.(ri).ihead with
        | IFalse -> ok := false
        | IAtom _ | IWeak _ -> ()
        | IChoice (lower, ats, upper) ->
          let k =
            Array.fold_left (fun acc a -> if in_m a then acc + 1 else acc) 0 ats
          in
          (match lower with Some l -> if k < l then ok := false | None -> ());
          (match upper with Some u -> if k > u then ok := false | None -> ())
    done;
    !ok
  in
  !least_equals_m && bounds_ok ()

(* -- Search ------------------------------------------------------------ *)

let extract_model st =
  let m = ref Atom.Set.empty in
  Array.iteri
    (fun i v -> if v = True then m := Atom.Set.add st.pr.atoms.(i) !m)
    st.assignment;
  !m

(** Does the body of ground rule [r] hold in [m]? *)
let body_holds m (r : Grounder.ground_rule) =
  List.for_all (fun a -> Atom.Set.mem a m) r.gpos
  && List.for_all (fun a -> not (Atom.Set.mem a m)) r.gneg
  && List.for_all (fun c -> Query.count_holds m c) r.gcounts

(** Enumerate stable models over a prebuilt search state, up to [limit]
    (at least 1). [wellfounded:false] disables the well-founded narrowing
    (exposed for the ablation benchmark); the result is unchanged, only
    slower. *)
let solve_state ?limit ?(wellfounded = true) (st : search_state) : model list =
  (match limit with
  | Some l when l < 1 -> invalid_arg "Solver: model limit below 1"
  | _ -> ());
  Obs.Counter.incr c_solve_calls;
  if wellfounded then Obs.fine_span "asp.solve.wellfounded" (fun () -> wellfounded_seed st);
  let found = ref [] in
  let count = ref 0 in
  let aggregate_constraints_ok m =
    List.for_all
      (fun (r : Grounder.ground_rule) ->
        match r.ghead with
        | Grounder.GFalse -> not (body_holds m r)
        | Grounder.GAtom _ | Grounder.GWeak _ | Grounder.GChoice _ -> true)
      st.pr.counts
  in
  let record () =
    if is_stable st then begin
      let m = extract_model st in
      if aggregate_constraints_ok m then begin
        found := m :: !found;
        incr count;
        Obs.Counter.incr c_models_found;
        match limit with Some l when !count >= l -> raise Done | _ -> ()
      end
    end
  in
  let snapshot () =
    ( Array.copy st.assignment,
      Array.copy st.sat_cnt,
      Array.copy st.blk_cnt,
      Array.copy st.source )
  in
  let restore (asg, sat, blk, src) =
    Array.blit asg 0 st.assignment 0 (Array.length asg);
    Array.blit sat 0 st.sat_cnt 0 (Array.length sat);
    Array.blit blk 0 st.blk_cnt 0 (Array.length blk);
    Array.blit src 0 st.source 0 (Array.length src);
    clear_queue st
  in
  (* atoms below [from_i] stay assigned within this subtree, so the scan
     for a branch atom resumes where the parent left off *)
  let rec search from_i =
    let rec find i =
      if i >= Array.length st.assignment then None
      else if st.assignment.(i) = Unknown then Some i
      else find (i + 1)
    in
    match find from_i with
    | None -> record ()
    | Some i ->
      let snap = snapshot () in
      let branch v =
        Obs.Counter.incr c_decisions;
        match
          (try
             ignore (set st i v);
             propagate st;
             `Ok
           with Conflict ->
             Obs.Counter.incr c_conflicts;
             `Conflict)
        with
        | `Ok -> search i
        | `Conflict -> ()
      in
      (* try false first: favours subset-minimal candidates *)
      branch False;
      restore snap;
      branch True;
      restore snap
  in
  (match
     (try
        init_propagation st;
        `Ok
      with Conflict ->
        Obs.Counter.incr c_conflicts;
        `Conflict)
   with
  | `Ok -> ( try search 0 with Done -> ())
  | `Conflict -> ());
  if Obs.has_sinks () then Obs.set_attr "models" (string_of_int !count);
  if Obs.Log.(enabled Debug) then
    Obs.Log.debug "solved ground program"
      ~attrs:
        [
          ("models", string_of_int !count);
          ("atoms", string_of_int (Array.length st.assignment));
        ];
  List.rev !found

(** Enumerate stable models of a ground program, up to [limit]. *)
let solve_ground ?limit ?wellfounded (gp : Grounder.ground_program) : model list
    =
  Obs.span "asp.solve" @@ fun () ->
  solve_state ?limit ?wellfounded (extend (prepare gp) [])

(** Enumerate stable models of a (non-ground) program. *)
let solve ?limit ?wellfounded (p : Program.t) : model list =
  solve_ground ?limit ?wellfounded (Grounder.ground p)

let has_answer_set (p : Program.t) : bool =
  match solve ~limit:1 p with [] -> false | _ -> true

let first_answer_set (p : Program.t) : model option =
  match solve ~limit:1 p with [] -> None | m :: _ -> Some m

(* Entry points over a pre-grounded core: callers holding a cached
   [Grounder.ground_program] (keyed by [Program.fingerprint]) skip
   grounding entirely. Results coincide with the [Program.t] variants on
   [Grounder.ground p] by construction. *)

let has_answer_set_ground (gp : Grounder.ground_program) : bool =
  match solve_ground ~limit:1 gp with [] -> false | _ -> true

(* -- Delta solving over a prepared core --------------------------------- *)

(* When the prepared core is definite, the extension stays decidable in
   one pass over the delta: a definite program always has its least
   model, which equals the grounder's derived base — so a delta
   constraint with a purely positive, aggregate-free body is violated
   outright (the grounder instantiated that body from the base), while
   negation, aggregates or choice heads in the delta force the general
   search. Weak constraints never remove models. *)
let classify_definite_delta (delta : Grounder.ground_rule list) =
  let rec go unsat = function
    | [] -> if unsat then `Unsat else `Sat
    | (r : Grounder.ground_rule) :: rest ->
      if r.gneg <> [] || r.gcounts <> [] then `Unknown
      else (
        match r.ghead with
        | Grounder.GAtom _ | Grounder.GWeak _ -> go unsat rest
        | Grounder.GFalse -> go true rest
        | Grounder.GChoice _ -> `Unknown)
  in
  go false delta

(** [has_answer_set_ground] over a prepared core extended with delta
    rules: coincides with
    [has_answer_set_ground { grules = core.grules @ delta; base }] by
    construction, skipping the per-call recompilation of the core — and
    skipping search entirely on the definite fast path. *)
let has_answer_set_prepared (pr : prepared)
    ~(delta : Grounder.ground_rule list) : bool =
  match if pr.definite then classify_definite_delta delta else `Unknown with
  | `Sat -> true
  | `Unsat -> false
  | `Unknown -> (
    Obs.span "asp.solve" @@ fun () ->
    match solve_state ~limit:1 (extend pr delta) with
    | [] -> false
    | _ -> true)

type compiled =
  | Frozen of {
      program : Program.t;  (** decided from scratch on a refused batch *)
      core : Grounder.Incremental.core;
      prepared : prepared;
    }
  | Ground_core of {
      pr : prepared;  (** every rule, over every atom any rule names *)
      core_complete : int;  (** rules whose body the core completes alone *)
    }

(* [p]'s rules as ground rules when [p] is a ground core: every rule a
   definite rule or a constraint, its atoms with value arguments only and
   its body positive; [None] otherwise. *)
let ground_core (p : Program.t) : Grounder.ground_rule list option =
  let value (a : Atom.t) = List.for_all Term.is_value a.Atom.args in
  let rec body acc = function
    | [] -> Some (List.rev acc)
    | Rule.Pos a :: rest when value a -> body (a :: acc) rest
    | (Rule.Pos _ | Rule.Neg _ | Rule.Cmp _ | Rule.Count _) :: _ -> None
  in
  let ground_rule (r : Rule.t) =
    let ghead =
      match r.head with
      | Rule.Head a when value a -> Some (Grounder.GAtom a)
      | Rule.Falsity -> Some Grounder.GFalse
      | Rule.Head _ | Rule.Choice _ | Rule.Weak _ -> None
    in
    match (ghead, body [] r.body) with
    | Some ghead, Some gpos ->
      Some { Grounder.ghead; gpos; gneg = []; gcounts = [] }
    | _ -> None
  in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | r :: rest -> (
      match ground_rule r with Some g -> go (g :: acc) rest | None -> None)
  in
  go [] p.rules

let never _ = false

(* The least model of a ground core's rules plus [seed], in a fresh
   buffer: the [missing] count of every rule, 0 where the model
   completes its body. *)
let complete_bodies pr ~seed =
  let n = Array.length pr.atoms in
  let missing = Array.make (Array.length pr.rules) 0 in
  least_model pr ~missing ~stack:(Array.make n 0) ~against:never
    ~chosen:never ~seed (Array.make n false);
  missing

let compile (p : Program.t) : compiled =
  match ground_core p with
  | Some grules ->
    let base =
      List.fold_left
        (fun acc (r : Grounder.ground_rule) ->
          let acc =
            match r.ghead with Grounder.GAtom a -> Atom.Set.add a acc | _ -> acc
          in
          List.fold_left (fun acc a -> Atom.Set.add a acc) acc r.gpos)
        Atom.Set.empty grules
    in
    let pr = prepare { grules; base } in
    let missing = complete_bodies pr ~seed:[] in
    Ground_core
      {
        pr;
        core_complete =
          Array.fold_left (fun k m -> if m = 0 then k + 1 else k) 0 missing;
      }
  | None ->
    let core = Grounder.Incremental.freeze p in
    Frozen
      {
        program = p;
        core;
        prepared = prepare (Grounder.Incremental.core_ground core);
      }

let has_answer_set_extended (c : compiled) ~(facts : Atom.t list) : bool * int
    =
  match (c, facts) with
  | Frozen c, [] -> (has_answer_set_prepared c.prepared ~delta:[], 0)
  | Frozen c, _ -> (
    match Grounder.Incremental.delta_with c.core ~facts with
    | Some delta ->
      (has_answer_set_prepared c.prepared ~delta, List.length delta)
    | None ->
      (* the facts reach a negated or choice-condition predicate of the
         core: decide the extended program from scratch, asserting each
         distinct fact once as the delta does *)
      let facts = Grounder.Incremental.normalize_facts facts in
      let gp = Grounder.ground (Program.with_facts c.program facts) in
      ( has_answer_set_ground gp,
        Grounder.size gp - Grounder.size (Grounder.Incremental.core_ground c.core)
      ))
  | Ground_core { pr; core_complete }, _ ->
    (* a fact with no id occurs in no rule: it adds itself and nothing
       else to the least model, and completes no body *)
    let facts = Grounder.Incremental.normalize_facts facts in
    let seed =
      List.fold_left
        (fun ids a ->
          match Hashtbl.find pr.id_of a with
          | i -> i :: ids
          | exception Not_found -> ids)
        [] facts
    in
    let missing = complete_bodies pr ~seed in
    let sat = ref true and complete = ref 0 in
    Array.iteri
      (fun ri m ->
        if m = 0 then begin
          incr complete;
          match pr.rules.(ri).ihead with
          | IFalse -> sat := false
          | IAtom _ | IWeak _ | IChoice _ -> ()
        end)
      missing;
    (!sat, List.length facts + !complete - core_complete)

(** Atoms true in at least one answer set (brave consequences), restricted
    to a predicate when [pred] is given. *)
let brave_consequences ?pred (p : Program.t) : Atom.Set.t =
  let models = solve p in
  let all = List.fold_left Atom.Set.union Atom.Set.empty models in
  match pred with
  | None -> all
  | Some name -> Atom.Set.filter (fun a -> String.equal a.Atom.pred name) all

(** Atoms true in every answer set (cautious consequences); empty when the
    program has no answer set. *)
let cautious_consequences ?pred (p : Program.t) : Atom.Set.t =
  match solve p with
  | [] -> Atom.Set.empty
  | first :: rest ->
    let inter = List.fold_left Atom.Set.inter first rest in
    (match pred with
    | None -> inter
    | Some name -> Atom.Set.filter (fun a -> String.equal a.Atom.pred name) inter)

(* -- Optimization (weak constraints) ----------------------------------- *)

(** Cost of a model: the summed weights of the weak-constraint instances
    whose bodies it satisfies. *)
let model_cost (gp : Grounder.ground_program) (m : model) : int =
  List.fold_left
    (fun acc (r : Grounder.ground_rule) ->
      match r.ghead with
      | Grounder.GWeak w -> if body_holds m r then acc + w else acc
      | Grounder.GAtom _ | Grounder.GFalse | Grounder.GChoice _ -> acc)
    0 gp.grules

(** Stable models ranked by weak-constraint cost, cheapest first. *)
let solve_ranked ?limit (p : Program.t) : (model * int) list =
  let gp = Grounder.ground p in
  let models = solve_ground ?limit gp in
  List.map (fun m -> (m, model_cost gp m)) models
  |> List.stable_sort (fun (_, c1) (_, c2) -> Int.compare c1 c2)

(** The optimal stable models (all tied at minimal cost) and their cost.
    [None] when the program has no stable model. *)
let solve_optimal ?limit (p : Program.t) : (model list * int) option =
  match solve_ranked ?limit p with
  | [] -> None
  | (_, best) :: _ as ranked ->
    Some (List.map fst (List.filter (fun (_, c) -> c = best) ranked), best)
