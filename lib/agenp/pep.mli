(** The Policy Enforcement Point: carries out decisions and produces the
    monitoring stream the PAdaP learns from. It keeps no record, only
    its tick and its count of compliant records. *)

type record = {
  tick : int;  (** this enforcement's number, from 1 *)
  decision : Serve.Decision.t;
      (** [compliant] is [Some verdict] for every enforced record *)
}

type t

val create : unit -> t

(** Enforce [decision]; [verdict] is the monitoring verdict, stored into
    the decision's [compliant] field. Every enforcement feeds the
    [pep.noncompliance] {!Obs.Health} signal — pass [gpm_version]
    ({!Asg.Gpm.version} of the deciding model) to attribute it per model
    version. *)
val enforce :
  ?gpm_version:int -> t -> decision:Serve.Decision.t -> verdict:bool -> record

(** The stored monitoring verdict ([false] only for records enforced
    non-compliant). *)
val compliant : record -> bool

(** The share of enforced records that were compliant; 1.0 before the
    first. *)
val compliance_rate : t -> float
