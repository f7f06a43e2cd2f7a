(** Annotated ASP programs — the semantic side of an answer set grammar
    (Definition 1): atoms may carry a child site [@i]; instantiating a
    rule at a node with trace [t] renames [a@i] to [a@(t ++ [i])] and a
    plain [a] to [a@t], with traces folded into predicate names so the
    plain ASP engine applies unchanged. *)

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

(** {2 Construction} *)

val at : ?site:int -> Asp.Atom.t -> aatom
val fact : ?site:int -> Asp.Atom.t -> rule
val constraint_ : body_elt list -> rule

(** Lift plain ASP (used for contexts [G(C)]): every atom refers to the
    node itself. *)
val of_asp_rule : Asp.Rule.t -> rule

val of_asp_program : Asp.Program.t -> program

(** {2 Trace instantiation} *)

(** ["p"] at trace [[1;2]] becomes ["p@1_2"]; the empty trace leaves the
    name unchanged. *)
val mangle_pred : string -> int list -> string

val instantiate_atom : int list -> aatom -> Asp.Atom.t
val instantiate_rule : int list -> rule -> Asp.Rule.t
val instantiate_program : int list -> program -> Asp.Rule.t list

(** [iter_atoms f r] applies [f] to every atom of [r]: the head atom,
    each choice element and its condition, and the positive and
    negative body atoms. *)
val iter_atoms : (aatom -> unit) -> rule -> unit

(** {2 Parsing (ASP syntax plus [@i] sites and [:~ ... [w]])} *)

exception Parse_error of string

type pstate = Asp.Parser.state

val parse_rule : pstate -> rule
val parse : string -> program
val parse_rule_string : string -> rule

(** {2 Printing and comparison} *)

val pp_aatom : Format.formatter -> aatom -> unit
val pp_body_elt : Format.formatter -> body_elt -> unit
val pp_rule : Format.formatter -> rule -> unit
val pp : Format.formatter -> program -> unit
val rule_to_string : rule -> string
val to_string : program -> string

(** The order of the rules' printed forms; a rule equals itself without
    being printed. *)
val compare_rule : rule -> rule -> int

val equal_rule : rule -> rule -> bool
