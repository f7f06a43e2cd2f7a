(** Evaluating (possibly non-ground) rule bodies against a fixed model —
    used by the learner to test which candidate constraints a witness
    model violates, and by the policy layer for explanations. *)

(** The value of a [#count] aggregate in a model: the number of distinct
    ground tuple instantiations under which every condition holds. The
    aggregate must be outer-ground (only its local variables free). *)
let rec count_value (m : Atom.Set.t) (c : Rule.count) : int =
  let atoms = Atom.Set.elements m in
  let candidates (a : Atom.t) =
    List.filter
      (fun (cand : Atom.t) ->
        String.equal cand.pred a.pred && Atom.arity cand = Atom.arity a)
      atoms
  in
  let seen = Hashtbl.create 8 in
  let pos, rest =
    List.partition (function Rule.Pos _ -> true | _ -> false) c.conditions
  in
  let cmps, negs =
    List.partition (function Rule.Cmp _ -> true | _ -> false) rest
  in
  let ordered = pos @ cmps @ negs in
  let rec go subst = function
    | [] ->
      let tuple = List.map (Term.apply subst) c.tuple in
      if List.for_all Term.is_ground tuple then
        Hashtbl.replace seen (String.concat ";" (List.map Term.to_string tuple)) ()
    | Rule.Pos a :: rest ->
      let a' = Atom.apply subst a in
      if Atom.is_ground a' then begin
        match Atom.eval a' with
        | Some ga -> if Atom.Set.mem ga m then go subst rest
        | None -> ()
      end
      else
        List.iter
          (fun cand ->
            match Atom.match_atom subst a' cand with
            | Some subst' -> go subst' rest
            | None -> ())
          (candidates a')
    | Rule.Cmp (op, t1, t2) :: rest -> (
      match
        (Term.eval (Term.apply subst t1), Term.eval (Term.apply subst t2))
      with
      | Some v1, Some v2 -> if Rule.eval_cmp op v1 v2 then go subst rest
      | _ -> ())
    | Rule.Neg a :: rest -> (
      match Atom.eval (Atom.apply subst a) with
      | Some ga when Atom.is_ground ga ->
        if not (Atom.Set.mem ga m) then go subst rest
      | _ -> ())
    | Rule.Count _ :: _ -> () (* no nesting *)
  in
  go Term.subst_empty ordered;
  Hashtbl.length seen

(** Does an outer-ground [#count] aggregate hold in the model? *)
and count_holds (m : Atom.Set.t) (c : Rule.count) : bool =
  match Term.eval c.bound with
  | Some (Term.Int _ as k) ->
    Rule.eval_cmp c.count_op (Term.Int (count_value m c)) k
  | Some _ | None -> false

(** A model with its atoms grouped by predicate and arity: what matching a
    non-ground positive literal looks up. Read-only once built, so one
    index may be shared across domains. *)
type index = {
  model : Atom.Set.t;
  by_pred : (string * int, Atom.t list) Hashtbl.t;
}

let index (m : Atom.Set.t) : index =
  let by_pred = Hashtbl.create 16 in
  Atom.Set.iter
    (fun (a : Atom.t) ->
      let key = (a.pred, Atom.arity a) in
      let existing = Option.value ~default:[] (Hashtbl.find_opt by_pred key) in
      Hashtbl.replace by_pred key (a :: existing))
    m;
  { model = m; by_pred }

(* Positive literals first, then comparisons, then negatives/aggregates.
   The index is forced only by a positive literal still non-ground when
   it is reached, so a body whose positive literals are all ground never
   builds one. *)
let holds (idx : index Lazy.t) (m : Atom.Set.t) (body : Rule.body_elt list) :
    bool =
  let candidates (a : Atom.t) =
    Option.value ~default:[]
      (Hashtbl.find_opt (Lazy.force idx).by_pred (a.pred, Atom.arity a))
  in
  let pos, rest = List.partition (function Rule.Pos _ -> true | _ -> false) body in
  let cmps, negs = List.partition (function Rule.Cmp _ -> true | _ -> false) rest in
  let ordered = pos @ cmps @ negs in
  let rec go subst = function
    | [] -> true
    | Rule.Count c :: rest -> (
      match Rule.apply_body_elt subst (Rule.Count c) with
      | Rule.Count c' -> count_holds m c' && go subst rest
      | _ -> false)
    | Rule.Pos a :: rest ->
      let a' = Atom.apply subst a in
      if Atom.is_ground a' then
        match Atom.eval a' with
        | Some ga -> Atom.Set.mem ga m && go subst rest
        | None -> false
      else
        List.exists
          (fun cand ->
            match Atom.match_atom subst a' cand with
            | Some subst' -> go subst' rest
            | None -> false)
          (candidates a')
    | Rule.Cmp (op, t1, t2) :: rest -> (
      let t1' = Term.apply subst t1 and t2' = Term.apply subst t2 in
      match (op, t1', t2') with
      | Rule.Eq, Term.Var v, t when Term.eval t <> None ->
        go (Term.subst_bind v (Option.get (Term.eval t)) subst) rest
      | Rule.Eq, t, Term.Var v when Term.eval t <> None ->
        go (Term.subst_bind v (Option.get (Term.eval t)) subst) rest
      | _ -> (
        match (Term.eval t1', Term.eval t2') with
        | Some v1, Some v2 -> Rule.eval_cmp op v1 v2 && go subst rest
        | _ -> false))
    | Rule.Neg a :: rest -> (
      let a' = Atom.apply subst a in
      match Atom.eval a' with
      | Some ga when Atom.is_ground ga ->
        (not (Atom.Set.mem ga m)) && go subst rest
      | _ -> false)
  in
  go Term.subst_empty ordered

(** Does some substitution make every element of [body] true in [m]?
    Positive literals are matched against the model's atoms; comparisons
    are evaluated once their variables are bound (an [=] against a free
    variable binds it); negative literals and aggregates are checked last
    and must be outer-ground by then. *)
let body_holds (m : Atom.Set.t) (body : Rule.body_elt list) : bool =
  holds (lazy (index m)) m body

(** {!body_holds} against a prebuilt index. *)
let body_holds_in (idx : index) (body : Rule.body_elt list) : bool =
  holds (Lazy.from_val idx) idx.model body

(** Is a constraint violated by [m]? (Its body holds.) Non-constraint
    rules are never "violated" in this sense. *)
let violates (m : Atom.Set.t) (r : Rule.t) : bool =
  match r.Rule.head with
  | Rule.Falsity -> body_holds m r.Rule.body
  | Rule.Head _ | Rule.Choice _ | Rule.Weak _ -> false

(** {!violates} against a prebuilt index. *)
let violates_in (idx : index) (r : Rule.t) : bool =
  match r.Rule.head with
  | Rule.Falsity -> body_holds_in idx r.Rule.body
  | Rule.Head _ | Rule.Choice _ | Rule.Weak _ -> false

(** All substitutions (as ground body instances) making [body] hold —
    used to explain {e why} a constraint fired. *)
let satisfying_instances (m : Atom.Set.t) (body : Rule.body_elt list) :
    Rule.body_elt list list =
  let results = ref [] in
  let atoms = Atom.Set.elements m in
  let candidates (a : Atom.t) =
    List.filter
      (fun (c : Atom.t) ->
        String.equal c.pred a.pred && Atom.arity c = Atom.arity a)
      atoms
  in
  let pos, rest = List.partition (function Rule.Pos _ -> true | _ -> false) body in
  let cmps, negs = List.partition (function Rule.Cmp _ -> true | _ -> false) rest in
  let ordered = pos @ cmps @ negs in
  let rec go subst = function
    | [] ->
      results := List.map (Rule.apply_body_elt subst) body :: !results
    | Rule.Count c :: rest -> (
      match Rule.apply_body_elt subst (Rule.Count c) with
      | Rule.Count c' -> if count_holds m c' then go subst rest
      | _ -> ())
    | Rule.Pos a :: rest ->
      let a' = Atom.apply subst a in
      if Atom.is_ground a' then begin
        match Atom.eval a' with
        | Some ga -> if Atom.Set.mem ga m then go subst rest
        | None -> ()
      end
      else
        List.iter
          (fun cand ->
            match Atom.match_atom subst a' cand with
            | Some subst' -> go subst' rest
            | None -> ())
          (candidates a')
    | Rule.Cmp (op, t1, t2) :: rest -> (
      let t1' = Term.apply subst t1 and t2' = Term.apply subst t2 in
      match (op, t1', t2') with
      | Rule.Eq, Term.Var v, t when Term.eval t <> None ->
        go (Term.subst_bind v (Option.get (Term.eval t)) subst) rest
      | Rule.Eq, t, Term.Var v when Term.eval t <> None ->
        go (Term.subst_bind v (Option.get (Term.eval t)) subst) rest
      | _ -> (
        match (Term.eval t1', Term.eval t2') with
        | Some v1, Some v2 -> if Rule.eval_cmp op v1 v2 then go subst rest
        | _ -> ()))
    | Rule.Neg a :: rest -> (
      let a' = Atom.apply subst a in
      match Atom.eval a' with
      | Some ga when Atom.is_ground ga ->
        if not (Atom.Set.mem ga m) then go subst rest
      | _ -> ())
  in
  go Term.subst_empty ordered;
  List.rev !results

(** Total cost a weak constraint contributes on a model: the sum of its
    weight over all distinct satisfying ground instances of its body.
    Zero for non-weak rules. *)
let weak_cost (m : Atom.Set.t) (r : Rule.t) : int =
  match r.Rule.head with
  | Rule.Weak weight ->
    let seen = Hashtbl.create 8 in
    let total = ref 0 in
    let atoms = Atom.Set.elements m in
    let candidates (a : Atom.t) =
      List.filter
        (fun (c : Atom.t) ->
          String.equal c.pred a.pred && Atom.arity c = Atom.arity a)
        atoms
    in
    let pos, rest =
      List.partition (function Rule.Pos _ -> true | _ -> false) r.Rule.body
    in
    let cmps, negs =
      List.partition (function Rule.Cmp _ -> true | _ -> false) rest
    in
    let ordered = pos @ cmps @ negs in
    let rec go subst = function
      | Rule.Count c :: rest -> (
        match Rule.apply_body_elt subst (Rule.Count c) with
        | Rule.Count c' -> if count_holds m c' then go subst rest
        | _ -> ())
      | [] -> (
        let instance =
          String.concat ";"
            (List.map
               (fun e -> Fmt.str "%a" Rule.pp_body_elt (Rule.apply_body_elt subst e))
               r.Rule.body)
        in
        if not (Hashtbl.mem seen instance) then begin
          Hashtbl.replace seen instance ();
          match Term.eval (Term.apply subst weight) with
          | Some (Term.Int w) -> total := !total + w
          | Some _ | None -> ()
        end)
      | Rule.Pos a :: rest ->
        let a' = Atom.apply subst a in
        if Atom.is_ground a' then begin
          match Atom.eval a' with
          | Some ga -> if Atom.Set.mem ga m then go subst rest
          | None -> ()
        end
        else
          List.iter
            (fun cand ->
              match Atom.match_atom subst a' cand with
              | Some subst' -> go subst' rest
              | None -> ())
            (candidates a')
      | Rule.Cmp (op, t1, t2) :: rest -> (
        let t1' = Term.apply subst t1 and t2' = Term.apply subst t2 in
        match (op, t1', t2') with
        | Rule.Eq, Term.Var v, t when Term.eval t <> None ->
          go (Term.subst_bind v (Option.get (Term.eval t)) subst) rest
        | Rule.Eq, t, Term.Var v when Term.eval t <> None ->
          go (Term.subst_bind v (Option.get (Term.eval t)) subst) rest
        | _ -> (
          match (Term.eval t1', Term.eval t2') with
          | Some v1, Some v2 -> if Rule.eval_cmp op v1 v2 then go subst rest
          | _ -> ()))
      | Rule.Neg a :: rest -> (
        let a' = Atom.apply subst a in
        match Atom.eval a' with
        | Some ga when Atom.is_ground ga ->
          if not (Atom.Set.mem ga m) then go subst rest
        | _ -> ())
    in
    go Term.subst_empty ordered;
    !total
  | Rule.Head _ | Rule.Falsity | Rule.Choice _ -> 0
