(** ASP programs: ordered lists of rules with convenience operations. *)

type t = { rules : Rule.t list }

let empty = { rules = [] }
let of_rules rules = { rules }
let rules p = p.rules
let add_rule p r = { rules = p.rules @ [ r ] }
let append p q = { rules = p.rules @ q.rules }
let concat ps = { rules = List.concat_map (fun p -> p.rules) ps }
let size p = List.length p.rules
let is_empty p = p.rules = []

let facts p =
  List.filter_map
    (fun r ->
      match (r.Rule.head, r.Rule.body) with
      | Rule.Head a, [] -> Some a
      | _ -> None)
    p.rules

let ground_facts p =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | (r : Rule.t) :: rest -> (
      match (r.head, r.body) with
      | Rule.Head a, [] when Atom.is_ground a -> go (a :: acc) rest
      | _ -> None)
  in
  go [] p.rules

let constraints p = List.filter Rule.is_constraint p.rules

(** All predicate name/arity pairs appearing anywhere in the program. *)
let predicates p =
  let tbl = Hashtbl.create 16 in
  let add (a : Atom.t) = Hashtbl.replace tbl (a.pred, Atom.arity a) () in
  let rec add_body = function
    | Rule.Pos a | Rule.Neg a -> add a
    | Rule.Cmp _ -> ()
    | Rule.Count c -> List.iter add_body c.Rule.conditions
  in
  List.iter
    (fun (r : Rule.t) ->
      (match r.head with
      | Rule.Head a -> add a
      | Rule.Falsity | Rule.Weak _ -> ()
      | Rule.Choice (_, elts, _) ->
        List.iter
          (fun (e : Rule.choice_elt) ->
            add e.choice_atom;
            List.iter add e.condition)
          elts);
      List.iter add_body r.body)
    p.rules;
  Hashtbl.fold (fun k () acc -> k :: acc) tbl []
  |> List.sort_uniq Stdlib.compare

let is_ground_rule (r : Rule.t) = Rule.vars r = []
let is_ground p = List.for_all is_ground_rule p.rules

(** Rule-order-sensitive structural equality. Programs are ordered rule
    lists, and grounding/solving preserve that order, so two programs are
    interchangeable for caching exactly when they are equal rule by
    rule. *)
let equal p q =
  p == q || List.compare Rule.compare p.rules q.rules = 0

(** Structural fingerprint consistent with {!equal}: equal programs have
    equal fingerprints; distinct programs collide only with hash-collision
    probability, so a cache keyed by fingerprint must confirm with
    {!equal} before trusting a hit. *)
let fingerprint p =
  List.fold_left Rule.hash_fold (Term.hash_combine 0x811c9dc5 (List.length p.rules)) p.rules

(** Add a set of ground atoms as facts (used to inject contexts). *)
let with_facts p atoms =
  { rules = List.map Rule.fact atoms @ p.rules }

let pp ppf p = Fmt.(list ~sep:(any "@.") Rule.pp) ppf p.rules
let to_string p = Fmt.str "%a" pp p
