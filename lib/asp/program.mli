(** ASP programs: ordered rule lists with convenience operations. *)

type t = { rules : Rule.t list }

val empty : t
val of_rules : Rule.t list -> t
val rules : t -> Rule.t list

(** Append one rule at the end (source order is preserved). *)
val add_rule : t -> Rule.t -> t

val append : t -> t -> t
val concat : t list -> t

(** Number of rules. *)
val size : t -> int

val is_empty : t -> bool

(** Ground atoms asserted as facts (head with empty body). *)
val facts : t -> Atom.t list

(** [Some atoms] when every rule of the program is a ground fact (the
    atoms in source order, duplicates kept; the empty program gives
    [Some []]), [None] as soon as one rule has a body, a non-atom head or
    a variable. This is the "ground facts only" view of a context under
    which a frozen context-free core can be extended by delta grounding
    instead of regrounding. *)
val ground_facts : t -> Atom.t list option

(** The constraint rules (empty heads), in source order. *)
val constraints : t -> Rule.t list

(** All predicate name/arity pairs appearing anywhere in the program. *)
val predicates : t -> (string * int) list

(** Rule-order-sensitive structural equality: programs are ordered rule
    lists, so this is equality rule by rule. *)
val equal : t -> t -> bool

(** Structural fingerprint consistent with {!equal}: equal programs have
    equal fingerprints. Collisions between distinct programs are possible
    (it is a hash), so caches keyed by fingerprint must confirm hits with
    {!equal}. *)
val fingerprint : t -> int

(** No variables anywhere in the rule. *)
val is_ground_rule : Rule.t -> bool

(** Every rule is ground. *)
val is_ground : t -> bool

(** Add ground atoms as facts (used to inject contexts). *)
val with_facts : t -> Atom.t list -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
