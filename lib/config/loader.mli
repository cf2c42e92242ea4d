(** Loading a complete AIR module configuration from its integration file.

    The textual equivalent of the ARINC 653 configuration tables: one
    [(air-system …)] form declaring partitions (with their processes and
    behaviour scripts), partition scheduling tables, interpartition ports
    and channels, and health-monitoring tables. Names are resolved to dense
    identifiers in declaration order.

    See [examples/configs/] for complete documents; the grammar is
    documented field by field in the README.

    No exception escapes a load: a syntax error, an unknown name or
    keyword, and a value a library constructor rejects (a zero MTF, a
    zero port depth, a module [Air.System.create] refuses) are all
    returned as [Error] with the field path and the offending form. *)

val load : string -> (Air.System.config, string) result
(** Parse and decode a configuration document from a string. *)

val load_file : string -> (Air.System.config, string) result

(** {1 Fault campaigns}

    A configuration document may carry a [(faults (campaign …) …)] section
    describing seeded fault-injection campaigns against the module:

    {v
(faults
  (campaign
    (name nominal-storm)
    (seed 7)
    (horizon 20000)
    (injections
      (inject (at 1500) (fault (wild-access GNC data write 64))))
    (rates
      (rate (per-mtf-permille 250) (fault (message-loss ATT_OUT))))))
    v}

    The section is validated (partition, schedule and error-code names
    resolved) but otherwise ignored by {!load}; the campaign engine reads
    it through {!load_campaigns_file}. *)

val load_campaigns_file :
  string -> (Air_faults.Campaign.spec list, string) result
(** Decode the campaigns of a configuration document (empty list when the
    document has no [faults] section). *)

(** {1 Clusters}

    A cluster document wires several module configurations over a bus:

    {v
(air-cluster
  (bus (latency 12) (bytes-per-tick 4))
  (modules (module (name platform) (config "platform.air"))
           (module (name payload)  (config "payload.air")))
  (links (link (from platform ATT_GW) (to payload ATT_IN))))
    v}

    Module config paths are resolved relative to the cluster document. *)

val load_cluster_file :
  ?instrument:(int -> Air.System.config -> Air.System.config) ->
  string ->
  (Air.Cluster.t, string) result
(** Parses the cluster document, loads every referenced module
    configuration, builds the systems and wires the bus links.
    [instrument], when given, rewrites each module's decoded configuration
    (argument: the module's cluster index) before the system is built —
    e.g. attaching a flight recorder and causal flow tracker to every
    module for a traced run. *)

(** {1 Fleets}

    A fleet document stamps out an [n]-module constellation from one
    template configuration and wires it with a generated topology
    ({!Air_fleet.Topology}):

    {v
(air-fleet
  (template "constellation_node.air")
  (modules 12)
  (topology ring)            ; ring | mesh | (topology grid ROWS COLS)
  (gateway TX)               ; outbound port prefix: TX0, TX1, …
  (ingress RX)               ; every inbound link lands here
  (bus (latency 8) (bytes-per-tick 16))
  (isl-latency 8)            ; per-link latency override (optional)
  (domains 2))               ; default domain count for parallel runs
    v}

    The template must declare the gateway ports the topology drains
    ({!Air_fleet.Topology.gateway_ports}) and the ingress port. It is
    reloaded once per module, so clones share no mutable state. *)

type fleet = {
  fleet_cluster : Air.Cluster.t;
  fleet_domains : int;
      (** The document's [(domains N)], a default for {!Air_fleet.Fleet}
          runs — callers may override it. *)
}

val load_fleet_file :
  ?instrument:(int -> Air.System.config -> Air.System.config) ->
  string ->
  (fleet, string) result
(** Parses the fleet document, clones and instruments the template per
    module (as in {!load_cluster_file}) and wires the generated links. *)
