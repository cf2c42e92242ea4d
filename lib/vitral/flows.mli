(** VITRAL per-flow IPC view.

    Aggregates the causal hop records of a run ({!Air_obs.Causal.entries},
    or {!Air.Cluster.flow_entries} for a whole cluster) by flow — the
    (origin module, partition, port) triple every correlation id embeds —
    and reports how many messages each flow sent, delivered, forwarded over
    a gateway and had perturbed by faults, plus end-to-end latency
    percentiles over the matched send→receive pairs ({!Air_obs.Quantile}).

    A latency sample is the receive tick minus the send tick of the same
    correlation id; cross-module flows therefore include gateway, bus
    serialization and propagation time. Receives whose send fell out of the
    tracker's bounded ring still count as delivered but yield no sample. *)

type flow = {
  key : Air_obs.Causal.id;  (** Flow key ({!Air_obs.Causal.flow_of}). *)
  origin : string;  (** ["m0.p1.q2"] — {!Air_obs.Causal.flow_to_string}. *)
  sent : int;
  delivered : int;
  forwarded : int;  (** Gateway hops towards a cluster link. *)
  perturbed : int;  (** Fault [Perturb] records on the flow's messages. *)
  latency : Air_obs.Quantile.t;
}

type t = {
  flows : flow list;  (** Sorted by flow key. *)
  unmatched : int;
      (** Receives whose send was not retained (evicted or duplicated) —
          delivered but unsampled. *)
}

val render :
  ?port_name:(module_id:int -> port:int -> string option) ->
  Air_obs.Causal.entry list ->
  string
(** Text table, one row per flow. [port_name], when given, resolves an
    origin (module, port index) to the declared port name — e.g. via
    {!Air_ipc.Router.port_names} — appended to the packed origin. *)
