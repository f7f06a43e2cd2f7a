(** Grounding: instantiating a safe program's variables with the constants
    that can actually matter.

    The algorithm follows the standard two-phase scheme, evaluated
    bottom-up over the predicate dependency graph:

    1. compute the set of {e possible atoms} — the least fixpoint of the
       positive projection of the program (negation ignored, choice heads
       treated as derivable) — by {e semi-naive evaluation}: predicates are
       processed one dependency SCC at a time (callees first), and within
       an SCC each fixpoint round joins rule bodies against the {e delta}
       (atoms derived in the previous round) rather than re-deriving
       everything from the full base;
    2. instantiate each rule against that base, evaluating arithmetic and
       comparison builtins, dropping rules that can never fire and negative
       literals that can never hold.

    Rule bodies are grounded by {e selectivity-ordered indexed joins}: body
    literals are statically reordered so that comparisons run as soon as
    their variables are bound (each builtin is therefore evaluated once per
    binding prefix instead of once per complete substitution), and
    candidate atoms for each positive literal are fetched from a
    per-predicate index discriminated on the first argument whenever that
    argument is bound. Join plans precompute, per literal, whether interval
    expansion or arithmetic normalization can be needed at all, so the
    common case (plain variables and values) skips both.

    {2 Negative body literals}

    A ground negative literal [not a] whose atom lies outside the
    possible-atom base is trivially true and is dropped from the rule
    instance (the rule is kept). Interval arguments in negative literals
    denote the conjunction over their expansion: [not q(1..2)] grounds to
    [not q(1), not q(2)], each instance subject to the same rule. A
    negative literal whose arguments fail to evaluate once ground (e.g.
    division by zero) makes that rule instance inapplicable: the instance
    is dropped, mirroring the behaviour of positive builtin failure. *)

(* Obs handles: atomic increments, safe in the join hot path. *)
let c_ground_calls = Obs.Counter.make "asp.ground.calls"
let c_ground_rules = Obs.Counter.make "asp.ground.rules"
let c_possible_atoms = Obs.Counter.make "asp.ground.possible_atoms"
let c_delta_rounds = Obs.Counter.make "asp.ground.delta_rounds"
let c_join_tuples = Obs.Counter.make "asp.ground.join_tuples"

exception Unsafe_rule of Rule.t

exception Aggregate_in_rule of Rule.t
(** Aggregates are admitted only in constraint and weak-constraint
    bodies. *)

type ghead =
  | GAtom of Atom.t
  | GFalse
  | GWeak of int  (** evaluated weight of a weak-constraint instance *)
  | GChoice of int option * Atom.t list * int option

type ground_rule = {
  ghead : ghead;
  gpos : Atom.t list;
  gneg : Atom.t list;
  gcounts : Rule.count list;
      (** outer-ground aggregates, evaluated against candidate models *)
}

type ground_program = {
  grules : ground_rule list;
  base : Atom.Set.t;  (** all possible atoms *)
}

let pp_ground_rule ppf r =
  let pp_head ppf = function
    | GAtom a -> Atom.pp ppf a
    | GFalse -> ()
    | GWeak _ -> ()
    | GChoice (l, atoms, u) ->
      let pp_b ppf = function Some n -> Fmt.pf ppf "%d " n | None -> () in
      let pp_u ppf = function Some n -> Fmt.pf ppf " %d" n | None -> () in
      Fmt.pf ppf "%a{ %a }%a" pp_b l
        Fmt.(list ~sep:(any "; ") Atom.pp)
        atoms pp_u u
  in
  let body =
    List.map (fun a -> Fmt.str "%a" Atom.pp a) r.gpos
    @ List.map (fun a -> Fmt.str "not %a" Atom.pp a) r.gneg
    @ List.map
        (fun c -> Fmt.str "%a" Rule.pp_body_elt (Rule.Count c))
        r.gcounts
  in
  match (r.ghead, body) with
  | GFalse, body -> Fmt.pf ppf ":- %s." (String.concat ", " body)
  | GWeak w, body -> Fmt.pf ppf ":~ %s. [%d]" (String.concat ", " body) w
  | h, [] -> Fmt.pf ppf "%a." pp_head h
  | h, body -> Fmt.pf ppf "%a :- %s." pp_head h (String.concat ", " body)

(* -- Interval expansion ---------------------------------------------- *)

(** Expand interval arguments: [p(1..3)] becomes [p(1)], [p(2)], [p(3)].
    Endpoints must evaluate to integers once ground. *)
let rec expand_intervals_in_term (t : Term.t) : Term.t list =
  match t with
  | Term.Var _ -> [ t ]
  | Term.Int _ -> [ t ]
  | Term.Fun (f, args) ->
    List.map (fun args -> Term.Fun (f, args)) (expand_args args)
  | Term.Binop _ -> [ t ]
  | Term.Interval (a, b) -> (
    match (Term.eval a, Term.eval b) with
    | Some (Term.Int l), Some (Term.Int u) ->
      if l > u then []
      else List.init (u - l + 1) (fun i -> Term.Int (l + i))
    | _ -> [ t ])

and expand_args = function
  | [] -> [ [] ]
  | arg :: rest ->
    let arg_choices = expand_intervals_in_term arg in
    let rest_choices = expand_args rest in
    List.concat_map
      (fun a -> List.map (fun r -> a :: r) rest_choices)
      arg_choices

let expand_atom (a : Atom.t) : Atom.t list =
  List.map (fun args -> { a with Atom.args }) (expand_args a.Atom.args)

let rec term_has_interval : Term.t -> bool = function
  | Term.Var _ | Term.Int _ -> false
  | Term.Fun (_, args) -> List.exists term_has_interval args
  | Term.Binop (_, a, b) -> term_has_interval a || term_has_interval b
  | Term.Interval _ -> true

let atom_has_interval (a : Atom.t) = List.exists term_has_interval a.Atom.args

let rec term_has_binop : Term.t -> bool = function
  | Term.Var _ | Term.Int _ -> false
  | Term.Fun (_, args) -> List.exists term_has_binop args
  | Term.Binop _ -> true
  | Term.Interval (a, b) -> term_has_binop a || term_has_binop b

let atom_has_binop (a : Atom.t) = List.exists term_has_binop a.Atom.args

(* -- Indexed atom base ------------------------------------------------ *)

(** Per-predicate atom store with first-argument discrimination: [all]
    holds every flushed atom of the predicate, [by_first] buckets them by
    first argument, and [delta] holds the atoms added in the most recently
    completed fixpoint round. *)
type pred_index = {
  mutable all : Atom.t list;
  by_first : (Term.t, Atom.t list ref) Hashtbl.t;
  mutable delta : Atom.t list;
}

(** The possible-atom base under construction. [stamp] doubles as the
    membership table: an atom is present iff stamped, and flushed (visible
    to joins) iff its stamp is at most [flushed_round]. A base may layer
    over a frozen [parent] (the incremental grounder's per-request
    overlay): lookups fall through to the parent, writes stay in the
    child, so a frozen core base is never mutated and can be shared by
    concurrent overlays. *)
type base = {
  stamp : (Atom.t, int) Hashtbl.t;
  mutable pending : Atom.t list;  (** derived in the current round *)
  by_pred : (string * int, pred_index) Hashtbl.t;
  mutable flushed_round : int;
  mutable delta_preds : (string * int) list;  (** preds with nonempty delta *)
  expand_memo : (Atom.t, Atom.t list) Hashtbl.t;
  parent : base option;  (** frozen layer below; never written through *)
}

let base_create () =
  {
    stamp = Hashtbl.create 64;
    pending = [];
    by_pred = Hashtbl.create 16;
    flushed_round = -1;
    delta_preds = [];
    expand_memo = Hashtbl.create 16;
    parent = None;
  }

(** A fresh mutable layer over a frozen parent base. Round numbering
    continues from the parent's, so stamps stay globally monotone across
    the layers. *)
let base_child parent =
  {
    stamp = Hashtbl.create 16;
    pending = [];
    by_pred = Hashtbl.create 8;
    flushed_round = parent.flushed_round;
    delta_preds = [];
    expand_memo = Hashtbl.create 16;
    parent = Some parent;
  }

(** Membership among all derived atoms, flushed or pending, in any
    layer. *)
let rec base_mem b a =
  Hashtbl.mem b.stamp a
  || (match b.parent with Some p -> base_mem p a | None -> false)

let rec find_stamp b a =
  match Hashtbl.find_opt b.stamp a with
  | Some _ as s -> s
  | None -> ( match b.parent with Some p -> find_stamp p a | None -> None)

(** Add a ground, evaluated atom to the current round's pending set.
    Returns [true] when the atom is new (in every layer). *)
let base_add b ~round a =
  if base_mem b a then false
  else begin
    b.pending <- a :: b.pending;
    Hashtbl.replace b.stamp a round;
    true
  end

let pred_index_for b key =
  match Hashtbl.find_opt b.by_pred key with
  | Some pi -> pi
  | None ->
    let pi = { all = []; by_first = Hashtbl.create 8; delta = [] } in
    Hashtbl.replace b.by_pred key pi;
    pi

(** Move the current round's pending atoms into the indexes; they become
    the new delta. Returns [true] when the round derived anything. *)
let base_flush b ~round =
  List.iter
    (fun key ->
      match Hashtbl.find_opt b.by_pred key with
      | Some pi -> pi.delta <- []
      | None -> ())
    b.delta_preds;
  b.delta_preds <- [];
  let added = b.pending <> [] in
  List.iter
    (fun (a : Atom.t) ->
      let key = (a.Atom.pred, Atom.arity a) in
      let pi = pred_index_for b key in
      if pi.delta = [] then b.delta_preds <- key :: b.delta_preds;
      pi.all <- a :: pi.all;
      pi.delta <- a :: pi.delta;
      match a.Atom.args with
      | [] -> ()
      | first :: _ -> (
        match Hashtbl.find_opt pi.by_first first with
        | Some l -> l := a :: !l
        | None -> Hashtbl.replace pi.by_first first (ref [ a ])))
    b.pending;
  b.pending <- [];
  b.flushed_round <- round;
  added

(** Which slice of the base a join literal ranges over: the whole flushed
    base, atoms stamped at most [n], the previous round's delta only, or
    atoms stamped at least [n] (the incremental grounder's "new since the
    last instantiation" slice — [From n] with [n] beyond every parent
    stamp, so only the top layer qualifies). *)
type occ = Any | UpTo of int | Delta | From of int

let mem_occ b (a : Atom.t) occ =
  match find_stamp b a with
  | None -> false
  | Some s -> (
    match occ with
    | Any -> s <= b.flushed_round
    | UpTo n -> s <= n && s <= b.flushed_round
    | Delta -> s = b.flushed_round
    | From n -> s >= n && s <= b.flushed_round)

(** Iterate the candidate atoms a (partially bound) pattern may match,
    using the first-argument index when the pattern's first argument is
    ground. [Delta] and [From _] range over the top layer only: parent
    layers are frozen, so their deltas are stale and their stamps lie
    below any [From] threshold the overlay uses. *)
let rec iter_candidates b (a : Atom.t) occ f =
  (match (occ, b.parent) with
  | (Any | UpTo _), Some p -> iter_candidates p a occ f
  | (Delta | From _), Some _ | _, None -> ());
  match Hashtbl.find_opt b.by_pred (a.Atom.pred, Atom.arity a) with
  | None -> ()
  | Some pi -> (
    let indexed () =
      match a.Atom.args with
      | first :: _ when Term.is_ground first -> (
        match Hashtbl.find_opt pi.by_first first with
        | Some l -> Some !l
        | None -> Some [])
      | _ -> None
    in
    match occ with
    | Delta -> List.iter f pi.delta
    | Any -> (
      match indexed () with
      | Some l -> List.iter f l
      | None -> List.iter f pi.all)
    | UpTo n ->
      let src = match indexed () with Some l -> l | None -> pi.all in
      List.iter
        (fun at ->
          match Hashtbl.find_opt b.stamp at with
          | Some s when s <= n -> f at
          | _ -> ())
        src
    | From n ->
      let src = match indexed () with Some l -> l | None -> pi.all in
      List.iter
        (fun at ->
          match Hashtbl.find_opt b.stamp at with
          | Some s when s >= n -> f at
          | _ -> ())
        src)

(* -- Join plans ------------------------------------------------------- *)

(** A body compiled for joining: positive literals interleaved with the
    comparisons that become decidable (or variable-binding) once the
    literals before them are bound. *)
type jelt =
  | JPos of {
      atom : Atom.t;
      ord : int;  (** position in join order (the semi-naive pivot index) *)
      src : int;  (** position in source order, to rebuild bodies *)
      iv : bool;  (** may need interval expansion *)
      ev : bool;  (** may need arithmetic normalization *)
      ground_at : bool;  (** fully bound by the time this literal runs *)
    }
  | JCheck of Rule.cmp_op * Term.t * Term.t
  | JBind of string * Term.t  (** [V = t] with [t] evaluable: bind V *)

(** Compile a body into a selectivity-ordered join plan, assuming the
    [initially_bound] variables are supplied by the caller. Comparisons
    are scheduled as early as their variables allow; positive literals are
    chosen greedily, preferring literals whose arithmetic arguments are
    already evaluable, then literals introducing the fewest unbound
    variables (most selective join), then literals usable through the
    first-argument index. Negative literals and aggregates take no part in
    joining. Returns the plan, the number of positive literals, and the
    variables bound after running it. *)
let make_plan ?(initially_bound = []) (body : Rule.body_elt list) :
    jelt list * int * string list =
  let pos =
    ref
      (List.filter_map (function Rule.Pos a -> Some a | _ -> None) body
      |> List.mapi (fun src a -> (src, a)))
  in
  let cmps =
    ref
      (List.filter_map
         (function Rule.Cmp (o, a, c) -> Some (o, a, c) | _ -> None)
         body)
  in
  let bound = ref initially_bound in
  let is_bound v = List.mem v !bound in
  let plan = ref [] in
  let nord = ref 0 in
  let rec term_ready t =
    match t with
    | Term.Var _ | Term.Int _ -> true
    | Term.Fun (_, args) -> List.for_all term_ready args
    | Term.Binop _ | Term.Interval _ -> List.for_all is_bound (Term.vars t)
  in
  (* Emit every comparison that is decidable now, and bind variables via
     evaluable equalities, to a local fixpoint. *)
  let rec absorb_cmps () =
    let progressed = ref false in
    let keep =
      List.filter
        (fun (op, t1, t2) ->
          let evaluable t = List.for_all is_bound (Term.vars t) in
          if evaluable t1 && evaluable t2 then begin
            plan := JCheck (op, t1, t2) :: !plan;
            progressed := true;
            false
          end
          else
            match (op, t1, t2) with
            | Rule.Eq, Term.Var v, t when (not (is_bound v)) && evaluable t ->
              plan := JBind (v, t) :: !plan;
              bound := v :: !bound;
              progressed := true;
              false
            | Rule.Eq, t, Term.Var v when (not (is_bound v)) && evaluable t ->
              plan := JBind (v, t) :: !plan;
              bound := v :: !bound;
              progressed := true;
              false
            | _ -> true)
        !cmps
    in
    cmps := keep;
    if !progressed then absorb_cmps ()
  in
  absorb_cmps ();
  while !pos <> [] do
    let score (_, (a : Atom.t)) =
      let unbound =
        List.length (List.filter (fun v -> not (is_bound v)) (Atom.vars a))
      in
      let ready = List.for_all term_ready a.Atom.args in
      let indexable =
        match a.Atom.args with
        | first :: _ -> List.for_all is_bound (Term.vars first)
        | [] -> true
      in
      ((if ready then 0 else 1), unbound, if indexable then 0 else 1)
    in
    let best =
      List.fold_left
        (fun acc cand ->
          match acc with
          | None -> Some cand
          | Some cur -> if score cand < score cur then Some cand else Some cur)
        None !pos
    in
    (match best with
    | Some ((src, a) as chosen) ->
      pos := List.filter (fun c -> c != chosen) !pos;
      let ground_at = List.for_all is_bound (Atom.vars a) in
      plan :=
        JPos
          {
            atom = a;
            ord = !nord;
            src;
            iv = atom_has_interval a;
            ev = atom_has_binop a;
            ground_at;
          }
        :: !plan;
      incr nord;
      List.iter
        (fun v -> if not (is_bound v) then bound := v :: !bound)
        (Atom.vars a);
      absorb_cmps ()
    | None -> ());
    ()
  done;
  (* anything left is undecidable even with all literals bound; keep it as
     a trailing check, which fails unless evaluable *)
  List.iter (fun (op, t1, t2) -> plan := JCheck (op, t1, t2) :: !plan) !cmps;
  (List.rev !plan, !nord, !bound)

let expand_atom_memo b (a : Atom.t) =
  match Hashtbl.find_opt b.expand_memo a with
  | Some l -> l
  | None ->
    let l = expand_atom a in
    Hashtbl.add b.expand_memo a l;
    l

(** Evaluate the ground arguments of a partially-bound pattern so that it
    matches the (normalized) stored atoms; [None] when a ground argument
    fails to evaluate (the literal can match nothing). *)
let normalize_pattern (a : Atom.t) : Atom.t option =
  let rec go acc = function
    | [] -> Some { a with Atom.args = List.rev acc }
    | t :: rest ->
      if Term.is_ground t then
        match Term.eval t with
        | Some t' -> go (t' :: acc) rest
        | None -> None
      else go (t :: acc) rest
  in
  go [] a.Atom.args

(** Enumerate the substitutions (and the ground positive-body instances
    they select, tagged by source position) grounding [plan] against [b],
    starting from [init], with each positive literal of join ordinal [o]
    restricted to the base slice [occ_of o]. *)
let run_plan b ~init (plan : jelt list) ~occ_of yield =
  let rec go subst pos_insts = function
    | [] ->
      Obs.Counter.incr c_join_tuples;
      yield subst pos_insts
    | JCheck (op, t1, t2) :: rest -> (
      match
        (Term.eval (Term.apply subst t1), Term.eval (Term.apply subst t2))
      with
      | Some v1, Some v2 ->
        if Rule.eval_cmp op v1 v2 then go subst pos_insts rest
      | _ -> ())
    | JBind (v, t) :: rest -> (
      match Term.eval (Term.apply subst t) with
      | Some value -> go (Term.subst_bind v value subst) pos_insts rest
      | None -> ())
    | JPos { atom; ord; src; iv; ev; ground_at } :: rest ->
      let occ = occ_of ord in
      let a' = Atom.apply subst atom in
      let instances = if iv then expand_atom_memo b a' else [ a' ] in
      List.iter
        (fun a' ->
          if ground_at || Atom.is_ground a' then begin
            let ga = if ev || iv then Atom.eval a' else Some a' in
            match ga with
            | Some ga ->
              if mem_occ b ga occ then go subst ((src, ga) :: pos_insts) rest
            | None -> ()
          end
          else
            let pat = if ev then normalize_pattern a' else Some a' in
            match pat with
            | None -> ()
            | Some pat ->
              iter_candidates b pat occ (fun cand ->
                  match Atom.match_atom subst pat cand with
                  | Some subst' -> go subst' ((src, cand) :: pos_insts) rest
                  | None -> ()))
        instances
  in
  go init [] plan

(** Predicate key at each join ordinal of a plan. *)
let jpos_preds plan npos =
  let arr = Array.make npos ("", 0) in
  List.iter
    (function
      | JPos { atom; ord; _ } -> arr.(ord) <- (atom.Atom.pred, Atom.arity atom)
      | JCheck _ | JBind _ -> ())
    plan;
  arr

(* -- Phase 1: possible atoms ------------------------------------------ *)

(** A derivation template: one (head atom, join plan) pair per normal-rule
    head or choice element, with choice-element conditions folded into the
    body so the semi-naive join covers them. *)
type template = {
  t_head : Atom.t;
  t_head_iv : bool;
  t_head_ev : bool;
  t_plan : jelt list;
  t_preds : (string * int) array;  (** predicate at each join ordinal *)
}

let template_of head body =
  let plan, npos, _ = make_plan body in
  {
    t_head = head;
    t_head_iv = atom_has_interval head;
    t_head_ev = atom_has_binop head;
    t_plan = plan;
    t_preds = jpos_preds plan npos;
  }

let templates_of_rule (r : Rule.t) : template list =
  match r.head with
  | Rule.Falsity | Rule.Weak _ -> []
  | Rule.Head a -> [ template_of a r.body ]
  | Rule.Choice (_, elts, _) ->
    List.map
      (fun (e : Rule.choice_elt) ->
        template_of e.choice_atom
          (r.body @ List.map (fun c -> Rule.Pos c) e.condition))
      elts

let derive_head b ~round t subst =
  let a = Atom.apply subst t.t_head in
  if t.t_head_iv then
    List.iter
      (fun inst ->
        match Atom.eval inst with
        | Some ga when Atom.is_ground ga -> ignore (base_add b ~round ga)
        | _ -> ())
      (expand_atom_memo b a)
  else if t.t_head_ev then
    match Atom.eval a with
    | Some ga -> ignore (base_add b ~round ga)
    | None -> ()
  else ignore (base_add b ~round a)

(** Semi-naive delta rounds over [b] from [round] (the round after a
    flush that derived atoms) to the fixpoint of [templates]. New atoms
    in round [r] carry stamp [r]; round [r] instantiates each template
    once per pivot position whose predicate the previous round derived,
    with literals before the pivot ranging over rounds [<= r-2], the
    pivot over exactly [r-1] (the top layer's delta), and literals after
    it over [<= r-1] — the standard non-duplicating scheme, so each
    combination is enumerated exactly once across the whole fixpoint. A
    pivot whose predicate the previous round did not derive has an empty
    delta, so skipping it changes nothing. Returns the first round left
    unused. *)
let delta_rounds b ~round templates =
  let round = ref round and continue = ref true in
  while !continue do
    let r = !round in
    Obs.fine_span "asp.ground.delta" (fun () ->
        List.iter
          (fun t ->
            Array.iteri
              (fun pivot key ->
                if List.mem key b.delta_preds then
                  run_plan b ~init:Term.subst_empty t.t_plan
                    ~occ_of:(fun ord ->
                      if ord < pivot then UpTo (r - 2)
                      else if ord = pivot then Delta
                      else UpTo (r - 1))
                    (fun subst _ -> derive_head b ~round:r t subst))
              t.t_preds)
          templates);
    continue := base_flush b ~round:r;
    round := r + 1;
    if !continue then Obs.Counter.incr c_delta_rounds
  done;
  !round

(** Compute the possible-atom base by SCC-stratified semi-naive
    evaluation: templates are grouped by the dependency SCC of their head
    predicate and processed callees-first; each group starts with one
    naive pass over the base built so far, then runs {!delta_rounds}
    until its fixpoint. *)
let compute_possible_atoms (p : Program.t) : base =
  let b = base_create () in
  let graph = Dependency.build p in
  let sccs = Dependency.sccs graph in
  let comp_of = Hashtbl.create 16 in
  List.iteri
    (fun i comp -> List.iter (fun pr -> Hashtbl.replace comp_of pr i) comp)
    sccs;
  let n_groups = List.length sccs in
  let groups = Array.make (max n_groups 1) [] in
  List.iter
    (fun (r : Rule.t) ->
      List.iter
        (fun t ->
          let key = (t.t_head.Atom.pred, Atom.arity t.t_head) in
          let gi =
            match Hashtbl.find_opt comp_of key with
            | Some i -> i
            | None -> n_groups - 1 (* unreachable: predicates covers heads *)
          in
          groups.(gi) <- t :: groups.(gi))
        (templates_of_rule r))
    p.rules;
  let round = ref 0 in
  let any_occ _ = Any in
  Array.iter
    (fun templates ->
      match templates with
      | [] -> ()
      | templates ->
        (* group round 0: naive pass over everything derived so far *)
        Obs.fine_span "asp.ground.delta" (fun () ->
            List.iter
              (fun t ->
                run_plan b ~init:Term.subst_empty t.t_plan ~occ_of:any_occ
                  (fun subst _ -> derive_head b ~round:!round t subst))
              templates);
        let derived = base_flush b ~round:!round in
        incr round;
        Obs.Counter.incr c_delta_rounds;
        if derived then round := delta_rounds b ~round:!round templates)
    groups;
  b

(* -- Phase 2: rule instantiation -------------------------------------- *)

(** Assemble the ground body for one substitution: positive instances come
    from the join (source order restored), negative literals are interval-
    expanded and kept only when their atom is derivable, aggregates are
    instantiated for model-time evaluation. Comparisons were already
    checked by the join plan. Returns [None] when the instance can never
    fire (a negative literal failed to evaluate). *)
let ground_body b subst ~pos_insts (body : Rule.body_elt list) :
    (Atom.t list * Atom.t list * Rule.count list) option =
  let exception Inapplicable in
  let pos_sorted =
    List.sort (fun (s1, _) (s2, _) -> Int.compare s1 s2) pos_insts
  in
  let next = ref pos_sorted in
  try
    let rec go pos neg counts = function
      | [] -> Some (List.rev pos, List.rev neg, List.rev counts)
      | Rule.Pos _ :: rest ->
        let ga =
          match !next with
          | (_, ga) :: tl ->
            next := tl;
            ga
          | [] -> raise Inapplicable (* join always supplies every slot *)
        in
        go (ga :: pos) neg counts rest
      | Rule.Neg a :: rest ->
        let a' = Atom.apply subst a in
        let instances =
          if atom_has_interval a' then expand_atom_memo b a' else [ a' ]
        in
        let neg =
          List.fold_left
            (fun neg inst ->
              match Atom.eval inst with
              | Some ga when Atom.is_ground ga ->
                (* a negative literal over an underivable atom is
                   trivially true and drops out *)
                if base_mem b ga then ga :: neg else neg
              | _ -> raise Inapplicable)
            neg instances
        in
        go pos neg counts rest
      | Rule.Cmp _ :: rest -> go pos neg counts rest (* checked by the join *)
      | Rule.Count c :: rest -> (
        match Rule.apply_body_elt subst (Rule.Count c) with
        | Rule.Count c' -> go pos neg (c' :: counts) rest
        | _ -> raise Inapplicable)
    in
    go [] [] [] body
  with Inapplicable -> None

(** Per-choice-element compiled condition plan (phase 2): run with the
    outer substitution as initial bindings to enumerate the element's
    instances. *)
type elem_plan = {
  e_atom : Atom.t;
  e_iv : bool;
  e_ev : bool;
  e_plan : jelt list;
}

let head_instances_choice b subst (elems : elem_plan list) : Atom.t list =
  List.concat_map
    (fun e ->
      let results = ref [] in
      run_plan b ~init:subst e.e_plan
        ~occ_of:(fun _ -> Any)
        (fun local_subst _ ->
          let a = Atom.apply local_subst e.e_atom in
          if e.e_iv then
            List.iter
              (fun inst ->
                match Atom.eval inst with
                | Some ga when Atom.is_ground ga -> results := ga :: !results
                | _ -> ())
              (expand_atom_memo b a)
          else if e.e_ev then (
            match Atom.eval a with
            | Some ga -> results := ga :: !results
            | None -> ())
          else results := a :: !results);
      !results)
    elems

(** Context-free compilation of a rule head: everything about emitting it
    that does not depend on the base, so the incremental grounder can
    compile once at freeze time and run the action against each batch's
    base. *)
type chead =
  | CAtom of Atom.t * bool * bool  (** atom, interval?, binop? *)
  | CFalse
  | CWeak of Term.t
  | CChoice of int option * elem_plan list * int option

let compile_chead (r : Rule.t) ~bound : chead =
  match r.head with
  | Rule.Head a -> CAtom (a, atom_has_interval a, atom_has_binop a)
  | Rule.Falsity -> CFalse
  | Rule.Weak w -> CWeak w
  | Rule.Choice (l, elts, u) ->
    let elems =
      List.map
        (fun (e : Rule.choice_elt) ->
          let e_plan, _, _ =
            make_plan ~initially_bound:bound
              (List.map (fun c -> Rule.Pos c) e.condition)
          in
          {
            e_atom = e.choice_atom;
            e_iv = atom_has_interval e.choice_atom;
            e_ev = atom_has_binop e.choice_atom;
            e_plan;
          })
        elts
    in
    CChoice (l, elems, u)

let emit_head_atom b ~emit a ~iv ~ev subst gpos gneg gcounts =
  let a = Atom.apply subst a in
  if iv then
    List.iter
      (fun inst ->
        match Atom.eval inst with
        | Some ga when Atom.is_ground ga ->
          emit { ghead = GAtom ga; gpos; gneg; gcounts }
        | _ -> ())
      (expand_atom_memo b a)
  else if ev then (
    match Atom.eval a with
    | Some ga -> emit { ghead = GAtom ga; gpos; gneg; gcounts }
    | None -> ())
  else emit { ghead = GAtom a; gpos; gneg; gcounts }

(** Turn a compiled head into the per-substitution emit action against
    base [b]. A choice head with no element instance and no lower bound
    emits nothing. *)
let head_action b (r : Rule.t) (ch : chead) ~(emit : ground_rule -> unit) =
  match ch with
  | CAtom (a, iv, ev) ->
    fun subst gpos gneg gcounts ->
      if gcounts <> [] then raise (Aggregate_in_rule r);
      emit_head_atom b ~emit a ~iv ~ev subst gpos gneg gcounts
  | CFalse ->
    fun _ gpos gneg gcounts -> emit { ghead = GFalse; gpos; gneg; gcounts }
  | CWeak w ->
    fun subst gpos gneg gcounts -> (
      match Term.eval (Term.apply subst w) with
      | Some (Term.Int cost) ->
        emit { ghead = GWeak cost; gpos; gneg; gcounts }
      | Some _ | None -> ())
  | CChoice (l, elems, u) ->
    fun subst gpos gneg gcounts ->
      if gcounts <> [] then raise (Aggregate_in_rule r);
      let atoms = head_instances_choice b subst elems in
      let atoms = List.sort_uniq Atom.compare atoms in
      if atoms <> [] || l <> None then
        emit { ghead = GChoice (l, atoms, u); gpos; gneg; gcounts }

(** Run a rule's join plan against [b] with each positive literal of
    join ordinal [o] restricted to [occ_of o], and emit its ground
    instances through [action]. *)
let instantiate_plan b (r : Rule.t) plan ~occ_of action =
  run_plan b ~init:Term.subst_empty plan ~occ_of (fun subst pos_insts ->
      match ground_body b subst ~pos_insts r.body with
      | None -> ()
      | Some (gpos, gneg, gcounts) -> action subst gpos gneg gcounts)

(** Instantiate every rule of [p] against base [b] with selectivity-
    ordered joins, calling [emit] per ground rule (in program order). *)
let instantiate b (p : Program.t) ~(emit : ground_rule -> unit) =
  List.iter
    (fun (r : Rule.t) ->
      match (r.head, r.body) with
      | Rule.Head a, [] ->
        (* fact fast path: no join, no body assembly *)
        emit_head_atom b ~emit a ~iv:(atom_has_interval a)
          ~ev:(atom_has_binop a) Term.subst_empty [] [] []
      | _ ->
        let plan, _, bound = make_plan r.body in
        instantiate_plan b r plan
          ~occ_of:(fun _ -> Any)
          (head_action b r (compile_chead r ~bound) ~emit))
    p.rules

let base_set_of b =
  Hashtbl.fold (fun a _ acc -> Atom.Set.add a acc) b.stamp Atom.Set.empty

let set_ground_rules n =
  if Obs.has_sinks () then Obs.set_attr "ground_rules" (string_of_int n)

let log_grounded p ~n_out ~base_set =
  Obs.Counter.incr c_ground_rules ~by:n_out;
  Obs.Counter.incr c_possible_atoms ~by:(Atom.Set.cardinal base_set);
  set_ground_rules n_out;
  if Obs.Log.(enabled Debug) then
    Obs.Log.debug "grounded program"
      ~attrs:
        [
          ("rules", string_of_int (List.length (Program.rules p)));
          ("ground_rules", string_of_int n_out);
          ("possible_atoms", string_of_int (Atom.Set.cardinal base_set));
        ]

(* The possible-atom base of [p] and its ground program. *)
let ground_base (p : Program.t) : base * ground_program =
  Obs.Counter.incr c_ground_calls;
  List.iter
    (fun r -> if not (Rule.is_safe r) then raise (Unsafe_rule r))
    p.rules;
  let b =
    Obs.fine_span "asp.ground.possible" (fun () -> compute_possible_atoms p)
  in
  let out = ref [] in
  let n_out = ref 0 in
  Obs.fine_span "asp.ground.instantiate" (fun () ->
      instantiate b p ~emit:(fun gr ->
          out := gr :: !out;
          incr n_out));
  let base_set = base_set_of b in
  log_grounded p ~n_out:!n_out ~base_set;
  (b, { grules = List.rev !out; base = base_set })

(** Ground a program: compute the possible-atom base (semi-naive, indexed),
    then instantiate every rule against it with selectivity-ordered joins.

    Worst-case complexity is O(|rules| * |base|^v) substitutions for v the
    maximum number of body variables of any rule — grounding is inherently
    exponential in rule width — but the index-driven joins visit only
    candidate atoms matching each literal's bound prefix, and semi-naive
    evaluation re-derives nothing: across the whole fixpoint each rule
    instantiation is enumerated once per delta combination rather than once
    per iteration.

    @raise Unsafe_rule on unsafe input.
    @raise Aggregate_in_rule when an aggregate occurs outside a constraint
    or weak-constraint body. *)
let ground (p : Program.t) : ground_program =
  Obs.span "asp.ground" @@ fun () -> snd (ground_base p)

let size gp = List.length gp.grules
let atom_count gp = Atom.Set.cardinal gp.base

(* -- Incremental grounding -------------------------------------------- *)

(** Two-stage incremental grounding. [freeze] grounds a context-free core
    program once and keeps, besides the ground program itself, what is
    needed to extend it by ground context facts without regrounding:

    - the possible-atom base with its indexes (layered over by each
      batch, never mutated);
    - the compiled phase-1 derivation templates and phase-2 join plans,
      each indexed by the predicate at every join position, so a batch
      touches only the plans that can see it;
    - the predicates whose new atoms could change an existing ground
      rule: a negative literal's atom (dropped as trivially true while
      underivable) and a choice element's condition (the head gains
      elements).

    {!delta_with} then adds one batch of context facts: phase 1
    continues the core's semi-naive rounds in a child base layer (stamps
    stay globally monotone), and phase 2 runs each affected plan with
    the [From] occurrence at the pivot — every new rule instance is
    enumerated exactly once, at its first join position holding a new
    atom. A batch whose phase 1 derives an atom of one of those
    predicates is refused. The frozen core is never touched. *)
module Incremental = struct
  type inst_rule = { ir_rule : Rule.t; ir_plan : jelt list; ir_chead : chead }

  type core = {
    k_base : base;
    k_next_round : int;
    k_ground : ground_program;
    k_refuse_on : (string * int) list;
        (** negated and choice-condition predicates: a new atom of one of
            them could change a core ground rule, so its batch is refused *)
    k_inst : inst_rule array;  (** phase-2 plans with >= 1 join literal *)
    k_inst_by_pred : (string * int, (int * int) list ref) Hashtbl.t;
        (** body predicate -> (inst rule, pivot ordinal) pairs to re-join *)
    k_templates : template list;
        (** phase-1 templates with >= 1 join literal *)
  }

  let core_ground k = k.k_ground

  let pred_key (a : Atom.t) = (a.Atom.pred, Atom.arity a)

  let freeze (p : Program.t) : core =
    Obs.span "asp.ground" @@ fun () ->
    let b, k_ground = ground_base p in
    let k_refuse_on =
      List.concat_map
        (fun (r : Rule.t) ->
          List.filter_map
            (function Rule.Neg a -> Some (pred_key a) | _ -> None)
            r.body
          @
          match r.head with
          | Rule.Choice (_, elts, _) ->
            List.concat_map
              (fun (e : Rule.choice_elt) -> List.map pred_key e.condition)
              elts
          | Rule.Head _ | Rule.Falsity | Rule.Weak _ -> [])
        p.rules
      |> List.sort_uniq compare
    in
    let k_inst_by_pred = Hashtbl.create 16 in
    let insts = ref [] and n_inst = ref 0 in
    List.iter
      (fun (r : Rule.t) ->
        match (r.head, r.body) with
        | Rule.Head _, [] -> ()
        | _ ->
          let plan, nord, bound = make_plan r.body in
          if nord > 0 then begin
            let i = !n_inst in
            insts :=
              { ir_rule = r; ir_plan = plan; ir_chead = compile_chead r ~bound }
              :: !insts;
            incr n_inst;
            Array.iteri
              (fun pivot key ->
                match Hashtbl.find_opt k_inst_by_pred key with
                | Some l -> l := (i, pivot) :: !l
                | None ->
                  Hashtbl.replace k_inst_by_pred key (ref [ (i, pivot) ]))
              (jpos_preds plan nord)
          end)
      p.rules;
    let k_templates =
      List.concat_map
        (fun r ->
          List.filter (fun t -> t.t_preds <> [||]) (templates_of_rule r))
        p.rules
    in
    {
      k_base = b;
      k_next_round = b.flushed_round + 1;
      k_ground;
      k_refuse_on;
      k_inst = Array.of_list (List.rev !insts);
      k_inst_by_pred;
      k_templates;
    }

  let value_fact (a : Atom.t) = List.for_all Term.is_value a.Atom.args

  (** Normalize an asserted fact the way the grounder normalizes emitted
      heads: intervals expand to their conjunctions, arithmetic is
      evaluated, and an unevaluable fact is silently inapplicable.
      @raise Invalid_argument on a non-ground fact. *)
  let normalize_fact (a : Atom.t) : Atom.t list =
    if value_fact a then [ a ]
    else if not (Atom.is_ground a) then
      invalid_arg "Grounder.Incremental: context facts must be ground"
    else
    if atom_has_interval a then
      List.filter_map
        (fun inst ->
          match Atom.eval inst with
          | Some ga when Atom.is_ground ga -> Some ga
          | _ -> None)
        (expand_atom a)
    else match Atom.eval a with Some ga -> [ ga ] | None -> []

  let rec seen h a = function
    | [] -> false
    | (h', x) :: rest -> (h' = h && Atom.compare x a = 0) || seen h a rest

  (* the normalized facts, deduplicated in order; hash-prefiltered, so
     full atom comparison only on a hash match. A batch of value facts
     is its own normalization. *)
  let normalize_facts (facts : Atom.t list) : Atom.t list =
    let rec dedup hashed acc = function
      | [] -> List.rev acc
      | a :: rest ->
        let h = Atom.hash a in
        if seen h a hashed then dedup hashed acc rest
        else dedup ((h, a) :: hashed) (a :: acc) rest
    in
    dedup [] []
      (if List.for_all value_fact facts then facts
       else List.concat_map normalize_fact facts)

  (* Phase 1 asserts the batch in a child layer over the core's base (the
     core's is never written through, so one core can back any number of
     batches at once) and continues the core's semi-naive fixpoint on its
     consequences; every predicate with a new atom then has an index in
     that layer. Phase 2 runs, for each such predicate, the plans with a
     join literal over it, pivoting on the atoms new since the core. The
     base is final by then, so each new instance's negative literals and
     choice elements are final too. *)
  let delta_with core ~(facts : Atom.t list) : ground_rule list option =
    let b = base_child core.k_base in
    let facts = normalize_facts facts in
    let n0 = core.k_next_round in
    List.iter (fun a -> ignore (base_add b ~round:n0 a)) facts;
    if base_flush b ~round:n0 then
      ignore (delta_rounds b ~round:(n0 + 1) core.k_templates);
    let fresh_preds = Hashtbl.fold (fun key _ acc -> key :: acc) b.by_pred [] in
    if List.exists (fun key -> List.mem key core.k_refuse_on) fresh_preds then
      None
    else
      Obs.span "asp.ground" @@ fun () ->
      Obs.Counter.incr c_ground_calls;
      let rules =
        ref
          (List.rev_map
             (fun a -> { ghead = GAtom a; gpos = []; gneg = []; gcounts = [] })
             facts)
      in
      let emit gr = rules := gr :: !rules in
      List.iter
        (fun key ->
          match Hashtbl.find_opt core.k_inst_by_pred key with
          | None -> ()
          | Some l ->
            List.iter
              (fun (i, pivot) ->
                let ir = core.k_inst.(i) in
                instantiate_plan b ir.ir_rule ir.ir_plan
                  ~occ_of:(fun ord ->
                    if ord < pivot then UpTo (n0 - 1)
                    else if ord = pivot then From n0
                    else Any)
                  (head_action b ir.ir_rule ir.ir_chead ~emit))
              !l)
        fresh_preds;
      let d = List.rev !rules in
      Obs.Counter.incr c_ground_rules ~by:(List.length d);
      set_ground_rules (List.length d);
      Some d
end
