(** Annotated ASP programs — the semantic side of an answer set grammar.

    Following Definition 1 of the paper, a production rule
    [n0 -> n1 ... nk] carries an annotated ASP program whose atoms may be
    annotated with an integer between 1 and k. Annotation [a@i] refers to
    the i-th child of the node where the production is applied; an
    unannotated atom refers to the node itself. At a node with trace [t],
    [a@i] is instantiated as the ordinary atom [a@(t ++ [i])] and [a] as
    [a@t] (traces are folded into the predicate name, so the plain ASP
    engine can solve the resulting program unchanged). *)

type aatom = {
  atom : Asp.Atom.t;
  site : int option;  (** [Some i] = annotation [@i]; [None] = this node *)
}

type body_elt =
  | Pos of aatom
  | Neg of aatom
  | Cmp of Asp.Rule.cmp_op * Asp.Term.t * Asp.Term.t

type choice_elt = { choice_atom : aatom; condition : aatom list }

type head =
  | Head of aatom
  | Falsity
  | Weak of Asp.Term.t  (** preference: violating costs the weight *)
  | Choice of int option * choice_elt list * int option

type rule = { head : head; body : body_elt list }
type program = rule list

let at ?site atom = { atom; site }
let fact ?site atom = { head = Head (at ?site atom); body = [] }
let constraint_ body = { head = Falsity; body }

(** Lift a plain ASP rule into an unannotated rule (every atom refers to
    the node itself). Used for contexts [G(C)]. *)
let of_asp_rule (r : Asp.Rule.t) : rule =
  let lift a = { atom = a; site = None } in
  let head =
    match r.Asp.Rule.head with
    | Asp.Rule.Head a -> Head (lift a)
    | Asp.Rule.Falsity -> Falsity
    | Asp.Rule.Weak w -> Weak w
    | Asp.Rule.Choice (l, elts, u) ->
      Choice
        ( l,
          List.map
            (fun (e : Asp.Rule.choice_elt) ->
              {
                choice_atom = lift e.choice_atom;
                condition = List.map lift e.condition;
              })
            elts,
          u )
  in
  let body =
    List.map
      (function
        | Asp.Rule.Pos a -> Pos (lift a)
        | Asp.Rule.Neg a -> Neg (lift a)
        | Asp.Rule.Cmp (op, t1, t2) -> Cmp (op, t1, t2)
        | Asp.Rule.Count _ ->
          raise
            (Invalid_argument
               "Annotation.of_asp_rule: aggregates are not supported in \
                grammar annotations"))
      r.Asp.Rule.body
  in
  { head; body }

let of_asp_program (p : Asp.Program.t) : program =
  List.map of_asp_rule (Asp.Program.rules p)

(* -- Trace instantiation ----------------------------------------------- *)

(** Predicate-name mangling: an atom with trace [1;2] over predicate [p]
    becomes predicate ["p@1_2"]; the empty trace leaves the name unchanged
    (the root's annotations are global atoms). *)
let mangle_pred pred (trace : int list) =
  match trace with
  | [] -> pred
  | _ -> pred ^ "@" ^ String.concat "_" (List.map string_of_int trace)

let instantiate_atom (trace : int list) (a : aatom) : Asp.Atom.t =
  let full_trace =
    match a.site with None -> trace | Some i -> trace @ [ i ]
  in
  { a.atom with Asp.Atom.pred = mangle_pred a.atom.Asp.Atom.pred full_trace }

(** Instantiate an annotated rule at the node with trace [t] — the
    [P R @ t] operation of Section II-A. *)
let instantiate_rule (trace : int list) (r : rule) : Asp.Rule.t =
  let head =
    match r.head with
    | Head a -> Asp.Rule.Head (instantiate_atom trace a)
    | Falsity -> Asp.Rule.Falsity
    | Weak w -> Asp.Rule.Weak w
    | Choice (l, elts, u) ->
      Asp.Rule.Choice
        ( l,
          List.map
            (fun e ->
              {
                Asp.Rule.choice_atom = instantiate_atom trace e.choice_atom;
                condition = List.map (instantiate_atom trace) e.condition;
              })
            elts,
          u )
  in
  let body =
    List.map
      (function
        | Pos a -> Asp.Rule.Pos (instantiate_atom trace a)
        | Neg a -> Asp.Rule.Neg (instantiate_atom trace a)
        | Cmp (op, t1, t2) -> Asp.Rule.Cmp (op, t1, t2))
      r.body
  in
  { Asp.Rule.head; body }

let instantiate_program trace (p : program) : Asp.Rule.t list =
  List.map (instantiate_rule trace) p

(** Apply [f] to every atom of the rule: its head atom, choice elements
    and their conditions, and positive and negative body atoms. *)
let iter_atoms f (r : rule) =
  (match r.head with
  | Head a -> f a
  | Falsity | Weak _ -> ()
  | Choice (_, elts, _) ->
    List.iter
      (fun e ->
        f e.choice_atom;
        List.iter f e.condition)
      elts);
  List.iter (function Pos a | Neg a -> f a | Cmp _ -> ()) r.body

(* -- Parsing ------------------------------------------------------------ *)

(** Parse annotated ASP text: plain ASP syntax where any atom may be
    followed by [@i]. Reuses the ASP token stream. *)

exception Parse_error = Asp.Parser.Parse_error

type pstate = Asp.Parser.state

let parse_aatom (st : pstate) : aatom =
  let atom = Asp.Parser.parse_atom st in
  if Asp.Parser.peek st = Asp.Lexer.AT then begin
    Asp.Parser.advance st;
    match Asp.Parser.peek st with
    | Asp.Lexer.INT i ->
      Asp.Parser.advance st;
      { atom; site = Some i }
    | tok ->
      raise
        (Parse_error
           (Printf.sprintf "expected child index after @ but found %s"
              (Asp.Lexer.token_to_string tok)))
  end
  else { atom; site = None }

let parse_body_elt (st : pstate) : body_elt =
  match Asp.Parser.peek st with
  | Asp.Lexer.NOT ->
    Asp.Parser.advance st;
    Neg (parse_aatom st)
  | Asp.Lexer.IDENT _ -> (
    let t = Asp.Parser.parse_arg st in
    match Asp.Parser.cmp_of_token (Asp.Parser.peek st) with
    | Some op ->
      Asp.Parser.advance st;
      Cmp (op, t, Asp.Parser.parse_arg st)
    | None -> (
      match t with
      | Asp.Term.Fun (pred, args) ->
        let atom = Asp.Atom.make pred args in
        if Asp.Parser.peek st = Asp.Lexer.AT then begin
          Asp.Parser.advance st;
          match Asp.Parser.peek st with
          | Asp.Lexer.INT i ->
            Asp.Parser.advance st;
            Pos { atom; site = Some i }
          | tok ->
            raise
              (Parse_error
                 (Printf.sprintf "expected child index after @ but found %s"
                    (Asp.Lexer.token_to_string tok)))
        end
        else Pos { atom; site = None }
      | _ -> raise (Parse_error "expected an atom in annotated rule body")))
  | _ -> (
    let t = Asp.Parser.parse_arg st in
    match Asp.Parser.cmp_of_token (Asp.Parser.peek st) with
    | Some op ->
      Asp.Parser.advance st;
      Cmp (op, t, Asp.Parser.parse_arg st)
    | None -> raise (Parse_error "expected a comparison operator"))

let parse_body (st : pstate) : body_elt list =
  let first = parse_body_elt st in
  let rec loop acc =
    if Asp.Parser.peek st = Asp.Lexer.COMMA then begin
      Asp.Parser.advance st;
      loop (parse_body_elt st :: acc)
    end
    else List.rev acc
  in
  loop [ first ]

let parse_choice_elt (st : pstate) : choice_elt =
  let choice_atom = parse_aatom st in
  if Asp.Parser.peek st = Asp.Lexer.COLON then begin
    Asp.Parser.advance st;
    let first = parse_aatom st in
    let rec loop acc =
      if Asp.Parser.peek st = Asp.Lexer.COMMA then begin
        Asp.Parser.advance st;
        loop (parse_aatom st :: acc)
      end
      else List.rev acc
    in
    { choice_atom; condition = loop [ first ] }
  end
  else { choice_atom; condition = [] }

let parse_choice (st : pstate) lower : head =
  Asp.Parser.expect st Asp.Lexer.LBRACE;
  let elts =
    if Asp.Parser.peek st = Asp.Lexer.RBRACE then []
    else begin
      let first = parse_choice_elt st in
      let rec loop acc =
        if Asp.Parser.peek st = Asp.Lexer.SEMI then begin
          Asp.Parser.advance st;
          loop (parse_choice_elt st :: acc)
        end
        else List.rev acc
      in
      loop [ first ]
    end
  in
  Asp.Parser.expect st Asp.Lexer.RBRACE;
  let upper =
    match Asp.Parser.peek st with
    | Asp.Lexer.INT u ->
      Asp.Parser.advance st;
      Some u
    | _ -> None
  in
  Choice (lower, elts, upper)

let parse_rule (st : pstate) : rule =
  match Asp.Parser.peek st with
  | Asp.Lexer.IF ->
    Asp.Parser.advance st;
    let body = parse_body st in
    Asp.Parser.expect st Asp.Lexer.DOT;
    { head = Falsity; body }
  | Asp.Lexer.WEAK_IF ->
    Asp.Parser.advance st;
    let body = parse_body st in
    Asp.Parser.expect st Asp.Lexer.DOT;
    Asp.Parser.expect st Asp.Lexer.LBRACKET;
    let weight = Asp.Parser.parse_term st in
    Asp.Parser.expect st Asp.Lexer.RBRACKET;
    { head = Weak weight; body }
  | _ ->
    let head =
      match Asp.Parser.peek st with
      | Asp.Lexer.LBRACE -> parse_choice st None
      | Asp.Lexer.INT l when Asp.Parser.peek2 st = Asp.Lexer.LBRACE ->
        Asp.Parser.advance st;
        parse_choice st (Some l)
      | _ -> Head (parse_aatom st)
    in
    let body =
      if Asp.Parser.peek st = Asp.Lexer.IF then begin
        Asp.Parser.advance st;
        parse_body st
      end
      else []
    in
    Asp.Parser.expect st Asp.Lexer.DOT;
    { head; body }

(** Parse an annotated program from a string. *)
let parse (input : string) : program =
  let st = Asp.Parser.make_state input in
  let rec loop acc =
    if Asp.Parser.peek st = Asp.Lexer.EOF then List.rev acc
    else loop (parse_rule st :: acc)
  in
  loop []

let parse_rule_string (input : string) : rule =
  let st = Asp.Parser.make_state input in
  let r = parse_rule st in
  Asp.Parser.expect st Asp.Lexer.EOF;
  r

(* -- Pretty printing ----------------------------------------------------- *)

let pp_aatom ppf a =
  match a.site with
  | None -> Asp.Atom.pp ppf a.atom
  | Some i -> Fmt.pf ppf "%a@@%d" Asp.Atom.pp a.atom i

let pp_body_elt ppf = function
  | Pos a -> pp_aatom ppf a
  | Neg a -> Fmt.pf ppf "not %a" pp_aatom a
  | Cmp (op, t1, t2) ->
    Fmt.pf ppf "%a %s %a" Asp.Term.pp t1 (Asp.Rule.cmp_op_to_string op)
      Asp.Term.pp t2

let pp_choice_elt ppf e =
  match e.condition with
  | [] -> pp_aatom ppf e.choice_atom
  | conds ->
    Fmt.pf ppf "%a : %a" pp_aatom e.choice_atom
      Fmt.(list ~sep:(any ", ") pp_aatom)
      conds

let pp_head ppf = function
  | Head a -> pp_aatom ppf a
  | Falsity -> ()
  | Weak _ -> ()
  | Choice (l, elts, u) ->
    let pp_bound ppf = function Some n -> Fmt.pf ppf "%d " n | None -> () in
    let pp_ubound ppf = function Some n -> Fmt.pf ppf " %d" n | None -> () in
    Fmt.pf ppf "%a{ %a }%a" pp_bound l
      Fmt.(list ~sep:(any "; ") pp_choice_elt)
      elts pp_ubound u

let pp_rule ppf (r : rule) =
  match (r.head, r.body) with
  | Head _, [] | Choice _, [] -> Fmt.pf ppf "%a." pp_head r.head
  | Falsity, body ->
    Fmt.pf ppf ":- %a." Fmt.(list ~sep:(any ", ") pp_body_elt) body
  | Weak w, body ->
    Fmt.pf ppf ":~ %a. [%a]"
      Fmt.(list ~sep:(any ", ") pp_body_elt)
      body Asp.Term.pp w
  | head, body ->
    Fmt.pf ppf "%a :- %a." pp_head head
      Fmt.(list ~sep:(any ", ") pp_body_elt)
      body

let pp ppf (p : program) = Fmt.(list ~sep:(any "@.") pp_rule) ppf p
let rule_to_string r = Fmt.str "%a" pp_rule r
let to_string p = Fmt.str "%a" pp p

let compare_rule (r1 : rule) (r2 : rule) =
  if r1 == r2 then 0
  else String.compare (rule_to_string r1) (rule_to_string r2)

let equal_rule r1 r2 = compare_rule r1 r2 = 0
