(* The decision audit trail: an [Obs.Ring] of records. See audit.mli. *)

type record = {
  seq : int;
  ts : float;
  trace_id : string;
  context_fp : int;
  gpm_version : int;
  options : string list;
  chosen : string;
  fallback_used : bool;
  compliant : bool option;
  provenance : string;
  ground_hits : int;
  ground_misses : int;
  latency : float;
}

type t = record Obs.Ring.t

let create ~capacity : t = Obs.Ring.create ~capacity
let capacity = Obs.Ring.capacity
let length = Obs.Ring.length
let total = Obs.Ring.total

let add t ~ts ~trace_id ~context_fp ~gpm_version ~options ~chosen
    ~fallback_used ~compliant ~provenance ~ground_hits ~ground_misses ~latency
    =
  (Obs.Ring.add t (fun seq ->
       {
         seq;
         ts;
         trace_id;
         context_fp;
         gpm_version;
         options;
         chosen;
         fallback_used;
         compliant;
         provenance;
         ground_hits;
         ground_misses;
         latency;
       }))
    .seq

let to_list = Obs.Ring.to_list
let clear = Obs.Ring.clear

let record_to_json r =
  let b = Buffer.create 256 in
  (* the fingerprint is a 62-bit hash: as a JSON number it would lose
     bits to float round-tripping, so it travels as a hex string *)
  Printf.bprintf b
    "{\"seq\": %d, \"ts\": %.6f, \"trace\": \"%s\", \"context_fp\": \"%x\", \
     \"gpm_version\": %d, \"options\": [%s], \"chosen\": \"%s\", \
     \"fallback_used\": %b, \"compliant\": %s, \"provenance\": \"%s\", \
     \"ground_hits\": %d, \"ground_misses\": %d, \"latency_s\": %.9f}"
    r.seq r.ts
    (Obs.Json.escape r.trace_id)
    r.context_fp r.gpm_version
    (String.concat ", "
       (List.map
          (fun o -> Printf.sprintf "\"%s\"" (Obs.Json.escape o))
          r.options))
    (Obs.Json.escape r.chosen)
    r.fallback_used
    (match r.compliant with
    | Some true -> "true"
    | Some false -> "false"
    | None -> "null")
    (Obs.Json.escape r.provenance)
    r.ground_hits r.ground_misses r.latency;
  Buffer.contents b

let record_of_json line =
  let j = Obs.Json.parse line in
  let num k = int_of_float (Obs.Json.to_num (Obs.Json.member k j)) in
  let fnum k = Obs.Json.to_num (Obs.Json.member k j) in
  let str k = Obs.Json.to_str (Obs.Json.member k j) in
  {
    seq = num "seq";
    ts = fnum "ts";
    trace_id = str "trace";
    context_fp =
      (match int_of_string_opt ("0x" ^ str "context_fp") with
      | Some fp -> fp
      | None -> raise (Obs.Json.Parse_error "bad context_fp"));
    gpm_version = num "gpm_version";
    options =
      List.map Obs.Json.to_str (Obs.Json.to_list (Obs.Json.member "options" j));
    chosen = str "chosen";
    fallback_used = Obs.Json.to_bool (Obs.Json.member "fallback_used" j);
    compliant =
      (match Obs.Json.member "compliant" j with
      | Obs.Json.Null -> None
      | v -> Some (Obs.Json.to_bool v));
    provenance = str "provenance";
    (* absent in pre-ground-count exports; default 0 keeps old trails
       readable *)
    ground_hits =
      (match Obs.Json.member_opt "ground_hits" j with
      | Some v -> int_of_float (Obs.Json.to_num v)
      | None -> 0);
    ground_misses =
      (match Obs.Json.member_opt "ground_misses" j with
      | Some v -> int_of_float (Obs.Json.to_num v)
      | None -> 0);
    latency = fnum "latency_s";
  }

let write_jsonl path records = Obs.Json.write_jsonl path record_to_json records
let read_jsonl path = Obs.Json.read_jsonl path record_of_json
