(** The policy repository and representations repository of Figure 2:
    the latest generated policies (strings of the GPM's language) and
    the latest learned GPM representation, with how many of each were
    stored. An older entry is dropped when a newer one is stored. *)

type t = {
  mutable policies : string list;
  mutable versions : int;  (** policy sets stored *)
  mutable representation : Asg.Gpm.t option;
  mutable representations : int;  (** representations stored *)
}

let create () =
  { policies = []; versions = 0; representation = None; representations = 0 }

let store_policies t policies =
  t.policies <- policies;
  t.versions <- t.versions + 1;
  t.versions

let latest_policies t = t.policies

let store_representation t gpm =
  t.representation <- Some gpm;
  t.representations <- t.representations + 1;
  t.representations

let latest_representation t = t.representation
let version_count t = t.versions
let representation_count t = t.representations
