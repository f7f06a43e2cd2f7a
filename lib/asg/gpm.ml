(** Answer set grammars (Definition 2 of the paper): a CFG whose production
    rules carry annotated ASP programs, plus the two operations the
    learning task needs — [with_context] ([G(C)]: add a program to every
    production's annotation) and [with_hypothesis] ([G : H]: add learned
    rules to specific productions). *)

type sites = (int list * (string * string) list) list

type compiled = { core : Asp.Solver.compiled; sites : sites }

type tree = {
  tree : Grammar.Parse_tree.t;
  compiled : compiled option Atomic.t;
}

module Sentences = Map.Make (struct
  type t = string list

  let compare = List.compare String.compare
end)

module Preds = Hashtbl.Make (String)

type t = {
  cfg : Grammar.Cfg.t;
  annotations : (int * Annotation.program) list;
      (** production id -> annotated program *)
  shared : Annotation.program;
      (** rules attached to {e every} production — used for contexts *)
  version : int;
      (** process-unique stamp; every construction/derivation gets a
          fresh one, so equal versions imply the same grammar value *)
  sentences : tree list Sentences.t Atomic.t;
      (** the compiled view: tokenized sentence -> its parse trees under
          this value. An atomic immutable map, so readers on any domain
          never lock; a new one at every construction and derivation. *)
  reads : Asp.Term.t list list Preds.t option Atomic.t;
      (** the read index: predicate name -> the argument lists of every
          atom occurrence in [annotations] and [shared]. Built on the
          first {!reads} and never changed after, so it is shared across
          domains without a lock; a new empty cell at every construction
          and derivation. *)
}

(* Process-wide version source. Atomic so grammars can be derived from
   worker domains (e.g. the serving layer's batch path) without racing. *)
let next_version = Atomic.make 0
let fresh_version () = Atomic.fetch_and_add next_version 1

(* Every construction and derivation goes through here: a fresh version
   and an empty compiled view, never the parent's. *)
let build cfg ~annotations ~shared =
  {
    cfg;
    annotations;
    shared;
    version = fresh_version ();
    sentences = Atomic.make Sentences.empty;
    reads = Atomic.make None;
  }

let make ?(annotations = []) cfg = build cfg ~annotations ~shared:[]

let cfg g = g.cfg
let shared g = g.shared
let version g = g.version

let annotation g prod_id =
  List.concat_map (fun (id, p) -> if id = prod_id then p else []) g.annotations

(** All annotation rules of the production, including shared (context)
    rules. *)
let full_annotation g prod_id = annotation g prod_id @ g.shared

(** [G(C)]: the grammar constructed by adding program [C] to the annotation
    of every production rule. *)
let with_context g (c : Asp.Program.t) =
  build g.cfg ~annotations:g.annotations
    ~shared:(g.shared @ Annotation.of_asp_program c)

(** [G : H]: add each hypothesis rule to the annotation of the production
    it names. *)
let with_hypothesis g (h : (int * Annotation.rule) list) =
  build g.cfg
    ~annotations:(g.annotations @ List.map (fun (id, r) -> (id, [ r ])) h)
    ~shared:g.shared

let add_annotation g prod_id rules =
  build g.cfg ~annotations:(g.annotations @ [ (prod_id, rules) ])
    ~shared:g.shared

let compiled_trees g tokens =
  match Sentences.find_opt tokens (Atomic.get g.sentences) with
  | Some trees -> trees
  | None ->
    let trees =
      List.map
        (fun tree -> { tree; compiled = Atomic.make None })
        (Grammar.Earley.parses g.cfg tokens)
    in
    (* a racing domain may have published first: keep its trees, so
       every caller compiles into the same cells *)
    let rec publish () =
      let m = Atomic.get g.sentences in
      match Sentences.find_opt tokens m with
      | Some trees -> trees
      | None ->
        if Atomic.compare_and_set g.sentences m (Sentences.add tokens trees m)
        then trees
        else publish ()
    in
    publish ()

(* Traces are folded into predicate names with '@', which no parsed
   name contains, so a name that does may meet a mangled one. *)
let rec mangled_from pred i =
  i < String.length pred
  && (String.unsafe_get pred i = '@' || mangled_from pred (i + 1))

let mangled pred = mangled_from pred 0

let read_index g =
  match Atomic.get g.reads with
  | Some idx -> idx
  | None ->
    let idx = Preds.create 16 in
    let add pred args =
      let pats = Option.value ~default:[] (Preds.find_opt idx pred) in
      if not (List.mem args pats) then Preds.replace idx pred (args :: pats)
    in
    let add_atom ({ atom = { pred; args }; _ } : Annotation.aatom) =
      add pred args;
      (* a mangled name reads every fact of its base name and arity *)
      if mangled pred then
        add
          (List.hd (String.split_on_char '@' pred))
          (List.map (fun _ -> Asp.Term.var "_") args)
    in
    let add_rule = Annotation.iter_atoms add_atom in
    List.iter (fun (_, rules) -> List.iter add_rule rules) g.annotations;
    List.iter add_rule g.shared;
    (* a racing domain builds an equal index; either may stay *)
    Atomic.set g.reads (Some idx);
    idx

(* can [pattern] match the value [v]? A variable, arithmetic or an
   interval matches any value, and a repeated variable is not held to
   one value, so this over-approximates unification *)
let rec may_match (pattern : Asp.Term.t) (v : Asp.Term.t) =
  match (pattern, v) with
  | (Var _ | Binop _ | Interval _), _ -> true
  | Int i, Int j -> i = j
  | Fun (f, ps), Fun (h, vs) -> String.equal f h && may_match_args ps vs
  | _ -> false

and may_match_args ps vs =
  match (ps, vs) with
  | [], [] -> true
  | p :: ps, v :: vs -> may_match p v && may_match_args ps vs
  | _ -> false

let rec any_pattern args = function
  | [] -> false
  | pat :: pats -> may_match_args pat args || any_pattern args pats

let reads g ({ pred; args } : Asp.Atom.t) =
  (not (List.for_all Asp.Term.is_value args))
  || mangled pred
  ||
  match Preds.find (read_index g) pred with
  | pats -> any_pattern args pats
  | exception Not_found -> false

(** The underlying CFG with annotations removed (called [G_CF] in the
    paper) is just [cfg g]; the language of that CFG always contains the
    language of [g]. *)

let pp ppf g =
  List.iter
    (fun (p : Grammar.Production.t) ->
      let ann = annotation g p.Grammar.Production.id in
      if ann = [] then Fmt.pf ppf "%a@." Grammar.Production.pp p
      else
        Fmt.pf ppf "%a { %a }@." Grammar.Production.pp p Annotation.pp ann)
    (Grammar.Cfg.productions g.cfg);
  if g.shared <> [] then Fmt.pf ppf "shared { %a }@." Annotation.pp g.shared

let to_string g = Fmt.str "%a" pp g

(** Remove unreachable/unproductive productions from the underlying CFG,
    re-homing annotations onto the surviving productions (annotations of
    dropped productions could never fire and are discarded). Shared
    (context) rules are preserved. *)
let clean (g : t) : t =
  let cleaned, mapping = Grammar.Transform.remove_useless g.cfg in
  let annotations =
    List.filter_map
      (fun (old_id, new_id) ->
        match annotation g old_id with
        | [] -> None
        | rules -> Some (new_id, rules))
      mapping
  in
  build cleaned ~annotations ~shared:g.shared
