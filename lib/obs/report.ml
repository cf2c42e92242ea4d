(* Rendering of metrics snapshots: a human-readable table for terminals
   and JSON for external dashboards / the bench trajectory. *)

let pp_histogram_line ppf (h : Metrics.histogram_view) =
  Format.fprintf ppf "n=%d total=%d peak=%d" h.view_observations h.view_total
    h.view_peak;
  if h.view_observations > 0 then
    Format.fprintf ppf " p50=%d p90=%d p99=%d"
      (Metrics.view_quantile h ~num:1 ~den:2)
      (Metrics.view_quantile h ~num:9 ~den:10)
      (Metrics.view_quantile h ~num:99 ~den:100);
  if h.view_observations > 0 then begin
    Format.fprintf ppf " buckets=[";
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          let label =
            if i < Array.length h.view_bounds then
              Printf.sprintf "≤%d" h.view_bounds.(i)
            else "+inf"
          in
          Format.fprintf ppf " %s:%d" label c
        end)
      h.view_buckets;
    Format.fprintf ppf " ]"
  end

let pp ~events ppf (snapshot : Metrics.snapshot) =
  Format.fprintf ppf "metrics:@.";
  List.iter
    (fun (name, v) ->
      match v with
      | Metrics.Counter_value n -> Format.fprintf ppf "  %-36s %12d@." name n
      | Metrics.Gauge_value n ->
        Format.fprintf ppf "  %-36s %12d  (gauge)@." name n
      | Metrics.Histogram_value h ->
        Format.fprintf ppf "  %-36s %a@." name pp_histogram_line h)
    snapshot;
  if events <> [] then begin
    Format.fprintf ppf "events:@.";
    List.iter
      (fun (kind, n) -> Format.fprintf ppf "  %-36s %12d@." kind n)
      events
  end

let to_string ~events snapshot =
  Format.asprintf "%a" (pp ~events) snapshot

(* --- JSON ---------------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_ints xs =
  "[" ^ String.concat "," (List.map string_of_int (Array.to_list xs)) ^ "]"

let to_json ~events (snapshot : Metrics.snapshot) =
  let buf = Buffer.create 2048 in
  let metric (name, v) =
    let body =
      match v with
      | Metrics.Counter_value n ->
        Printf.sprintf "{\"kind\":\"counter\",\"value\":%d}" n
      | Metrics.Gauge_value n ->
        Printf.sprintf "{\"kind\":\"gauge\",\"value\":%d}" n
      | Metrics.Histogram_value h ->
        Printf.sprintf
          "{\"kind\":\"histogram\",\"count\":%d,\"total\":%d,\"peak\":%d,\
           \"p50\":%d,\"p90\":%d,\"p99\":%d,\"bounds\":%s,\"buckets\":%s}"
          h.view_observations h.view_total h.view_peak
          (Metrics.view_quantile h ~num:1 ~den:2)
          (Metrics.view_quantile h ~num:9 ~den:10)
          (Metrics.view_quantile h ~num:99 ~den:100)
          (json_ints h.view_bounds) (json_ints h.view_buckets)
    in
    Printf.sprintf "\"%s\":%s" (json_escape name) body
  in
  Buffer.add_string buf "{\"metrics\":{";
  Buffer.add_string buf (String.concat "," (List.map metric snapshot));
  Buffer.add_string buf "}";
  if events <> [] then begin
    Buffer.add_string buf ",\"events\":{";
    Buffer.add_string buf
      (String.concat ","
         (List.map
            (fun (kind, n) ->
              Printf.sprintf "\"%s\":%d" (json_escape kind) n)
            events));
    Buffer.add_string buf "}"
  end;
  Buffer.add_string buf "}";
  Buffer.contents buf
