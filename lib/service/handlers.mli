(** Scenario execution: from a parsed {!Request.scenario} to a canonical
    fingerprint and a structured JSON result.

    Handlers are pure request → value functions — no printing, no
    process exit — which is what lets the server cache, deduplicate and
    batch them.  Sweeps fan out over the server's shared persistent
    {!Etx_util.Pool} instead of spawning domains per request. *)

val policy_of_string : string -> (Etx_routing.Policy.t, string) result
(** "ear", "sdr", "ear2", "inverse", "linear", "maximin" (the CLI's
    vocabulary). *)

val battery_of_string : string -> (Etx_battery.Battery.kind, string) result
(** "thin-film" (also "thin_film"/"thinfilm") or "ideal". *)

val simulate_config : Request.simulate_params -> (Etx_etsim.Config.t, string) result
(** The one builder of a [simulate] configuration, shared by the CLI and
    the wire: policy, battery and workload names (["encrypt"],
    ["decrypt"], ["duplex"], ["synthetic"]), the [fail_links] schedule
    (drawn from the seed, none when 0) and the fault spec (none when
    every rate is 0) on the calibrated platform.  [Error] carries the
    unknown name or the constructor's message. *)

val store_backed :
  Store.t ->
  (Etx_etsim.Config.t -> Etx_etsim.Metrics.t) ->
  Etx_etsim.Config.t ->
  Etx_etsim.Metrics.t
(** [store_backed store simulate] is [simulate] with its results kept in
    [store], keyed by {!Etx_etsim.Engine.config_fingerprint} under a
    prefix no request fingerprint uses: a run found there is decoded
    instead of simulated, and a computed one is written back.  An entry
    that does not decode is recomputed.  Safe to call from several pool
    workers at once ({!Etextile.Experiments.run_units}' [?simulate]),
    which is how [fig7 --store] and [resilience --store] resume. *)

val audit_runs :
  ?pool:Etx_util.Pool.t -> ?domains:int -> Request.audit_params ->
  Etextile.Experiments.audit_row list
(** {!Etextile.Experiments.audit_runs} on the request's sizes, seeds,
    cadence, fault spec and retry budget.
    @raise Invalid_argument when a constructor rejects them. *)

val fingerprint : Request.scenario -> (string, string) result
(** Canonical content address of the scenario's {e result}.  Simulate
    requests reuse the checkpoint layer's configuration fingerprint
    ({!Etx_etsim.Engine.config_fingerprint}, fault rates in their exact
    form); sweeps reuse their sweep fingerprints from
    {!Etextile.Experiments}, and an audit's covers its fault spec and
    retry budget whenever they are off their defaults.  Two requests
    with equal fingerprints produce bit-identical results, so the cache
    may replay one for the other; requests that differ in any parameter
    the result depends on never share one.  The declared bounds have
    already run when the request was decoded; [Error] is a semantic
    rejection from building the configuration (unknown policy, battery
    or workload, a constructor's check), answered [invalid_request]
    before any compute. *)

val execute :
  pool:Etx_util.Pool.t -> Request.scenario -> (Etx_util.Json.t, string) result
(** Run the scenario and return its structured result.  [Error] carries
    the validation message for semantically invalid parameters. *)
