(** The decision audit trail: an [Obs.Ring] (bounded, mutex-protected)
    of per-decision records kept by a serving engine.

    Every decision the engine serves appends one record carrying the
    request's trace ID (joinable against span [trace] attributes and
    log ["trace"] fields), the context fingerprint, model version,
    options, outcome, compliance verdict, cache provenance, and
    latency. The ring keeps the newest [capacity] records; older ones
    are overwritten, but [seq]/[total] keep counting so truncation is
    visible. Records export to JSONL (one object per line) and parse
    back for offline queries ([agenp audit]). *)

type record = {
  seq : int;  (** 0-based position in the engine's decision sequence *)
  ts : float;  (** wall-clock seconds when the decision finished *)
  trace_id : string;
  context_fp : int;  (** [Asp.Program.fingerprint] of the request context *)
  gpm_version : int;
  options : string list;
  chosen : string;
  fallback_used : bool;
  compliant : bool option;
  provenance : string;  (** [Serve.provenance_to_string] of the response *)
  ground_hits : int;
      (** ground-cache hits across {e every} membership check of this
          decision (one per parse tree per option) *)
  ground_misses : int;  (** ditto, misses — [0]/[0] on a memo hit *)
  latency : float;  (** seconds *)
}

type t

(** A ring retaining the newest [capacity] records ([capacity >= 1]
    enforced). *)
val create : capacity:int -> t

val capacity : t -> int

(** Records currently retained. *)
val length : t -> int

(** Records ever added (>= {!length}; the difference was overwritten). *)
val total : t -> int

(** Append one record; assigns and returns its [seq]. Thread-safe. *)
val add :
  t ->
  ts:float ->
  trace_id:string ->
  context_fp:int ->
  gpm_version:int ->
  options:string list ->
  chosen:string ->
  fallback_used:bool ->
  compliant:bool option ->
  provenance:string ->
  ground_hits:int ->
  ground_misses:int ->
  latency:float ->
  int

(** Retained records, oldest first; [last] keeps only the newest [n]. *)
val to_list : ?last:int -> t -> record list

val clear : t -> unit

(** One JSON object (no trailing newline):
    [{"seq", "ts", "trace", "context_fp" (hex string — the 62-bit hash
    would lose bits as a JSON number), "gpm_version", "options",
    "chosen", "fallback_used", "compliant" (bool or null),
    "provenance", "ground_hits", "ground_misses", "latency_s"}]. *)
val record_to_json : record -> string

(** Parse one {!record_to_json} line.
    @raise Obs.Json.Parse_error on malformed input. *)
val record_of_json : string -> record

(** Write records as JSONL, one {!record_to_json} per line. *)
val write_jsonl : string -> record list -> unit

(** Read a JSONL file back (blank lines skipped).
    @raise Obs.Json.Parse_error on malformed lines. *)
val read_jsonl : string -> record list
