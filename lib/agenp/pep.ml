(** The Policy Enforcement Point: carries out PDP decisions on the managed
    resources and records what happened, producing the monitoring stream
    the PAdaP learns from. The managed resource is abstracted as the
    [verdict] of an enforcement: whether the action succeeded / complied.

    The verdict lives inside the record's decision ([compliant], set
    here). The PEP keeps no record: only its tick and how many records
    were compliant. *)

type record = {
  tick : int;
  decision : Serve.Decision.t;
      (** [compliant] is [Some verdict] for every enforced record *)
}

type t = {
  mutable tick : int;
  mutable compliant : int;  (** records enforced compliant *)
}

let create () = { tick = 0; compliant = 0 }

let c_noncompliant = Obs.Counter.make "agenp.pep.noncompliant"
let h_noncompliance = Obs.Health.make "pep.noncompliance"

(** Enforce a decision; [verdict] is the environment's compliance check
    (ground truth oracle in simulations, human/monitoring in the field).
    [gpm_version] attributes the observation to the model that made the
    decision, feeding the per-version [pep.noncompliance] health
    signal. *)
let enforce ?gpm_version (t : t) ~(decision : Serve.Decision.t)
    ~(verdict : bool) : record =
  Obs.span "agenp.pep.enforce" @@ fun () ->
  t.tick <- t.tick + 1;
  if verdict then t.compliant <- t.compliant + 1;
  let decision = { decision with Serve.Decision.compliant = Some verdict } in
  let r = { tick = t.tick; decision } in
  Obs.Health.observe ?version:gpm_version h_noncompliance (not verdict);
  if not verdict then Obs.Counter.incr c_noncompliant;
  if not verdict then
    Obs.Log.info "pep recorded a non-compliant enforcement"
      ~attrs:
        [
          ("tick", string_of_int r.tick);
          ("chosen", r.decision.Serve.Decision.chosen);
        ];
  r

let compliant (r : record) =
  match r.decision.Serve.Decision.compliant with Some c -> c | None -> false

let compliance_rate t =
  if t.tick = 0 then 1.0 else float_of_int t.compliant /. float_of_int t.tick
