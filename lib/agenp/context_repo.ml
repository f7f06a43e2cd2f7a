(** The context repository of Figure 2: the AMS's view of its operating
    context, merged from local observations and the Policy Information
    Point's external facts, with history retained for adaptation
    decisions. *)

type t = {
  mutable current : Asp.Program.t;
  history : Asp.Program.t Obs.Ring.t;  (** the last [capacity] contexts *)
}

let create ?(capacity = 256) () =
  { current = Asp.Program.empty; history = Obs.Ring.create ~capacity }

let current t = t.current

let update t ctx =
  ignore (Obs.Ring.add t.history (fun _ -> t.current));
  t.current <- ctx

(** Merge external facts (from the PIP) into the current context. *)
let merge_external t (facts : Asp.Program.t) =
  t.current <- Asp.Program.append t.current facts

let history t = List.rev (Obs.Ring.to_list t.history)

(** Has the context changed between the last two snapshots? Triggers
    PAdaP re-evaluation. *)
let changed t =
  match Obs.Ring.to_list ~last:1 t.history with
  | [] -> false
  | prev :: _ -> not (Asp.Program.equal prev t.current)
