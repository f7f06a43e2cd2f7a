(** Evaluating (possibly non-ground) rule bodies against a fixed model —
    used by the learner to test which candidate constraints a witness
    model violates, and by explanations. *)

(** The value of an outer-ground [#count] aggregate in a model. *)
val count_value : Atom.Set.t -> Rule.count -> int

(** Does an outer-ground [#count] aggregate hold in the model? *)
val count_holds : Atom.Set.t -> Rule.count -> bool

(** A model with its atoms grouped by predicate and arity. Immutable once
    built: one index may be read from several domains. *)
type index

val index : Atom.Set.t -> index

(** Does some substitution make every body element true in the model?
    Builds an index of the model only if a positive literal is still
    non-ground when it is matched. *)
val body_holds : Atom.Set.t -> Rule.body_elt list -> bool

(** {!body_holds} against a prebuilt index: evaluating many bodies on one
    model builds its index once. *)
val body_holds_in : index -> Rule.body_elt list -> bool

(** Is a constraint violated by the model (its body holds)? Always false
    for non-constraint rules. *)
val violates : Atom.Set.t -> Rule.t -> bool

(** {!violates} against a prebuilt index. *)
val violates_in : index -> Rule.t -> bool

(** All ground instances of the body that hold in the model — the
    evidence for {e why} a constraint fired. *)
val satisfying_instances :
  Atom.Set.t -> Rule.body_elt list -> Rule.body_elt list list

(** Total cost a weak constraint contributes on a model: its weight summed
    over all distinct satisfying ground body instances; zero for non-weak
    rules. *)
val weak_cost : Atom.Set.t -> Rule.t -> int
