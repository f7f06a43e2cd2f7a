(** Policy repair: the sentence-level counterpart of counterfactual
    explanation. Where {!Counterfactual} asks "what context would have
    made this policy valid?", repair asks "what is the minimal change to
    the {e policy} that makes it valid in this context?" — e.g. which
    unit to add to an undeployable convoy. Breadth-first over token
    edits (insert / delete / replace), so the first answer is an edit-
    distance-minimal valid policy. *)

type edit =
  | Insert of int * string  (** position, token *)
  | Delete of int  (** position *)
  | Replace of int * string  (** position, new token *)

let pp_edit ppf = function
  | Insert (i, tok) -> Fmt.pf ppf "insert %S at %d" tok i
  | Delete i -> Fmt.pf ppf "delete token %d" i
  | Replace (i, tok) -> Fmt.pf ppf "replace token %d with %S" i tok

let apply_edit (tokens : string list) (e : edit) : string list =
  match e with
  | Insert (i, tok) ->
    List.concat
      [ List.filteri (fun j _ -> j < i) tokens; [ tok ];
        List.filteri (fun j _ -> j >= i) tokens ]
  | Delete i -> List.filteri (fun j _ -> j <> i) tokens
  | Replace (i, tok) -> List.mapi (fun j t -> if j = i then tok else t) tokens

type result = {
  repaired : string;  (** the valid sentence found *)
  edits : int;  (** edit distance from the original *)
}

(** Find a valid sentence within [max_edits] token edits of [sentence]
    under [context]. The insertable/replacement vocabulary is the
    grammar's terminal set. Returns [None] if no valid sentence is within
    reach (or the frontier exceeds [max_frontier] candidates). *)
let repair ?(max_edits = 2) ?(max_frontier = 20_000) (gpm : Asg.Gpm.t)
    ~(context : Asp.Program.t) (sentence : string) : result option =
  let vocabulary = Grammar.Cfg.terminals (Asg.Gpm.cfg gpm) in
  let valid tokens = Asg.Membership.accepts_tokens ~context gpm tokens in
  let initial = Asg.Membership.tokenize sentence in
  if valid initial then Some { repaired = sentence; edits = 0 }
  else begin
    let seen = Hashtbl.create 64 in
    let key tokens = String.concat " " tokens in
    Hashtbl.replace seen (key initial) ();
    let frontier = ref [ initial ] in
    let rec expand depth =
      if depth > max_edits || !frontier = [] then None
      else begin
        let next = ref [] in
        let found = ref None in
        List.iter
          (fun tokens ->
            if !found = None then begin
              let n = List.length tokens in
              let candidates =
                List.concat
                  [
                    (* insertions at every position *)
                    List.concat_map
                      (fun i -> List.map (fun tok -> Insert (i, tok)) vocabulary)
                      (List.init (n + 1) Fun.id);
                    (* deletions *)
                    List.map (fun i -> Delete i) (List.init n Fun.id);
                    (* replacements *)
                    List.concat_map
                      (fun i -> List.map (fun tok -> Replace (i, tok)) vocabulary)
                      (List.init n Fun.id);
                  ]
              in
              List.iter
                (fun e ->
                  if !found = None then begin
                    let tokens' = apply_edit tokens e in
                    let k = key tokens' in
                    if not (Hashtbl.mem seen k) then begin
                      Hashtbl.replace seen k ();
                      if valid tokens' then
                        found := Some { repaired = k; edits = depth }
                      else if Hashtbl.length seen < max_frontier then
                        next := tokens' :: !next
                    end
                  end)
                candidates
            end)
          !frontier;
        match !found with
        | Some r -> Some r
        | None ->
          frontier := !next;
          expand (depth + 1)
      end
    in
    expand 1
  end

let to_sentence (original : string) (r : result) : string =
  if r.edits = 0 then Printf.sprintf "%S is already valid" original
  else
    Printf.sprintf "%S becomes valid as %S (%d edit%s)" original r.repaired
      r.edits
      (if r.edits = 1 then "" else "s")
