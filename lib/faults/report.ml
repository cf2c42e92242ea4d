type t = {
  run : Engine.run;
  verdict : Oracle.verdict;
  reproducible : bool option;
}

let make ?reproducible run verdict = { run; verdict; reproducible }

let status_of (o : Engine.outcome) =
  Format.asprintf "%a" Engine.pp_applied o.Engine.applied

let rows t =
  List.map
    (fun (o : Engine.outcome) ->
      { Air_vitral.Campaign.at = o.Engine.at;
        label = Fault.label o.Engine.fault;
        status = status_of o;
        detected_at = o.Engine.detected_at;
        latency = o.Engine.latency;
        action = o.Engine.action;
        flows = o.Engine.flows })
    t.run.Engine.outcomes

let latency_summary t =
  let q = Engine.detection_latencies t.run in
  if Air_obs.Quantile.count q = 0 then None
  else
    Some
      { Air_vitral.Campaign.samples = Air_obs.Quantile.count q;
        p50 = Air_obs.Quantile.p50 q;
        p90 = Air_obs.Quantile.p90 q;
        p99 = Air_obs.Quantile.p99 q;
        max = Air_obs.Quantile.max_value q }

let to_text t =
  let spec = t.run.Engine.spec in
  Air_vitral.Campaign.render ~name:spec.Campaign.name ~seed:spec.Campaign.seed
    ~horizon:spec.Campaign.horizon ~mtf:t.run.Engine.mtf
    ~findings:
      (List.map
         (fun f -> Format.asprintf "%a" Oracle.pp_finding f)
         t.verdict.Oracle.findings)
    ?latency:(latency_summary t) ?reproducible:t.reproducible (rows t)

(* --- JSON ---------------------------------------------------------------- *)

let escape = Air_obs.Report.json_escape

let opt_int = function None -> "null" | Some v -> string_of_int v

let opt_str = function
  | None -> "null"
  | Some s -> Printf.sprintf "\"%s\"" (escape s)

let fault_json (o : Engine.outcome) =
  Printf.sprintf
    "{\"at\":%d,\"label\":\"%s\",\"status\":\"%s\",\"detected_at\":%s,\
     \"latency\":%s,\"action\":%s,\"flows\":[%s]}"
    o.Engine.at
    (escape (Fault.label o.Engine.fault))
    (escape (status_of o))
    (opt_int o.Engine.detected_at)
    (opt_int o.Engine.latency)
    (opt_str o.Engine.action)
    (String.concat ","
       (List.map
          (fun f -> Printf.sprintf "\"%s\"" (escape f))
          o.Engine.flows))

let to_json t =
  let spec = t.run.Engine.spec in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":\"%s\",\"seed\":%d,\"horizon\":%d,\"mtf\":%d"
       (escape spec.Campaign.name)
       spec.Campaign.seed spec.Campaign.horizon t.run.Engine.mtf);
  (match t.reproducible with
  | None -> ()
  | Some b ->
    Buffer.add_string buf
      (Printf.sprintf ",\"deterministic\":%s" (if b then "true" else "false")));
  Buffer.add_string buf ",\"faults\":[";
  Buffer.add_string buf
    (String.concat "," (List.map fault_json t.run.Engine.outcomes));
  Buffer.add_string buf "]";
  (match latency_summary t with
  | None -> Buffer.add_string buf ",\"detection_latency\":null"
  | Some l ->
    Buffer.add_string buf
      (Printf.sprintf
         ",\"detection_latency\":{\"samples\":%d,\"p50\":%d,\"p90\":%d,\
          \"p99\":%d,\"max\":%d}"
         l.Air_vitral.Campaign.samples l.Air_vitral.Campaign.p50
         l.Air_vitral.Campaign.p90 l.Air_vitral.Campaign.p99
         l.Air_vitral.Campaign.max));
  Buffer.add_string buf
    (Printf.sprintf
       ",\"containment\":{\"verdict\":\"%s\",\"checks\":%d,\"findings\":[%s]}}"
       (if Oracle.passed t.verdict then "contained" else "breached")
       t.verdict.Oracle.checks
       (String.concat ","
          (List.map
             (fun f ->
               Printf.sprintf "\"%s\""
                 (escape (Format.asprintf "%a" Oracle.pp_finding f)))
             t.verdict.Oracle.findings)));
  Buffer.contents buf

let document ts =
  Printf.sprintf "{\"schema\":\"air-campaign/1\",\"campaigns\":[%s]}"
    (String.concat "," (List.map to_json ts))
