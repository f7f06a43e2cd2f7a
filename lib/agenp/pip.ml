(** The Policy Information Point: acquires external conditions that
    influence local policy generation (Section III-A3). Sources are
    pluggable closures so simulations can model satellites, road-side
    units, partner feeds, etc. *)

type source = { name : string; poll : unit -> Asp.Program.t }

type t = { mutable sources : source list }

let create () = { sources = [] }

let register t name poll = t.sources <- t.sources @ [ { name; poll } ]

(** Poll every source and merge the external facts. *)
let poll_all (t : t) : Asp.Program.t =
  Obs.span "agenp.pip.poll"
    ~attrs:[ ("sources", string_of_int (List.length t.sources)) ]
  @@ fun () ->
  Asp.Program.concat
    (List.map
       (fun s ->
         Obs.fine_span "agenp.pip.source" ~attrs:[ ("name", s.name) ] s.poll)
       t.sources)

let source_names t = List.map (fun s -> s.name) t.sources
