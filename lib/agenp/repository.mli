(** The policy repository and representations repository (Figure 2):
    the latest generated policies and the latest learned GPM, each with
    a version that counts the entries stored. Only the latest of each is
    kept. *)

type t

val create : unit -> t

(** Store a policy set; returns its version (1 for the first). *)
val store_policies : t -> string list -> int

val latest_policies : t -> string list

(** Store a learned GPM; returns its version (1 for the first). *)
val store_representation : t -> Asg.Gpm.t -> int

val latest_representation : t -> Asg.Gpm.t option
val version_count : t -> int
val representation_count : t -> int
