(** The context repository (Figure 2): current context, external-fact
    merging, and history. *)

type t

val create : ?capacity:int -> unit -> t
val current : t -> Asp.Program.t
val update : t -> Asp.Program.t -> unit
val merge_external : t -> Asp.Program.t -> unit

(** The last [capacity] (default 256) contexts an {!update} replaced,
    newest first. *)
val history : t -> Asp.Program.t list

(** Did the context change between the last two snapshots? *)
val changed : t -> bool
