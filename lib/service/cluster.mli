(** The cluster front-end: one router, N backend daemons.

    The router speaks the same newline-delimited JSON protocol as a
    single {!Server} — clients cannot tell the difference — and shards
    scenario requests across backend daemons by scenario fingerprint
    (named once per distinct request, {!Names}) on a consistent-hash
    {!Ring}, so a given computation always lands on
    the same backend (whose LRU stays warm) and membership changes only
    remap the failed backend's arc.

    Failure handling, in layers:

    - {b health checking}: each backend is pinged when [health_period_s]
      has elapsed since it was last heard from; probe outcomes feed the
      same {!Breaker} as real requests, so a restarted backend is
      re-admitted within one period.
    - {b retries with backoff}: a failed dispatch (connect error,
      timeout, torn connection) is retried against the next backend in
      ring-preference order, up to [attempts] total, sleeping a
      decorrelated-jitter {!Etx_util.Backoff} delay between attempts.
    - {b circuit breaking}: consecutive transport failures trip a
      per-backend {!Breaker}; an open breaker refuses instantly instead
      of paying the timeout again, and a half-open probe re-admits the
      backend after [breaker_cooldown_s].
    - {b load shedding}: a scenario request that cannot be fingerprinted
      is answered [invalid_request] locally and takes no slot; at most
      [queue_depth] of the others per batch are admitted, shared fairly
      across [client] keys
      (round-robin, one per client per round); the rest get an explicit
      [degraded] error carrying [retry_after_ms] instead of hanging.
    - {b deadlines}: a request's [deadline_ms] bounds the whole routed
      attempt (dispatch timeouts and backoff sleeps are clipped to the
      remainder); expiry yields [deadline_exceeded], never a hang.

    A request that exhausts every layer gets a [degraded] error with
    [retry_after_ms] — an explicit "come back later", never silence.
    Transport-level failures never lose an accepted request: either
    some backend returns its (bit-identical, content-addressed) result,
    or the client receives a structured error telling it to retry. *)

type config = {
  backends : string list;  (** backend Unix-socket paths; at least one *)
  replicas : int;  (** ring virtual nodes per backend *)
  attempts : int;  (** total dispatch attempts per request; >= 1 *)
  connect_timeout_s : float;
  request_timeout_s : float;  (** per-response read deadline *)
  probe_timeout_s : float;  (** health-check ping deadline *)
  health_period_s : float;  (** quiet time before a backend is probed *)
  failure_threshold : int;  (** consecutive failures to trip the breaker open *)
  breaker_cooldown_s : float;
  backoff_base_ms : float;
  backoff_cap_ms : float;
  seed : int;  (** backoff-jitter PRNG seed (replayable retry pacing) *)
  queue_depth : int;  (** admitted scenario requests per batch *)
  retry_after_ms : int;  (** hint carried by degraded responses *)
}

val default_config : backends:string list -> config
(** 64 ring replicas, 4 attempts, 1 s connect / 30 s request / 1 s
    probe timeouts, 2 s health period, threshold 3, 5 s cooldown,
    25–1000 ms backoff, queue depth 64, retry-after 250 ms. *)

type rpc = path:string -> timeout_s:float -> string -> (string, string) result
(** One request line in, one response line out, within [timeout_s]
    seconds total.  [Error] is a transport-level failure description.
    Injectable so the failover logic is unit-testable without sockets;
    the default dials the Unix socket. *)

type t

val create :
  ?now:(unit -> float) -> ?sleep:(float -> unit) -> ?rpc:rpc -> config -> t
(** [now]/[sleep] (seconds) default to [Unix.gettimeofday] and
    [Unix.sleepf]; inject both to unit-test time-dependent behavior.
    @raise Invalid_argument on an empty backend list, duplicate
    backends, or non-positive numeric settings. *)

val handle_batch : t -> string list -> string list
(** Route one batch (same protocol as {!Server.handle_batch}): control
    requests are answered locally, scenario requests are forwarded to
    their ring backend with the failure handling above.  Forwarded
    responses pass through byte-for-byte. *)

val probe : t -> unit
(** Health-check every backend whose [health_period_s] has elapsed.
    Called at batch start; the [route] daemon also runs it as the
    {!Daemon} idle hook. *)

val stats_json : t -> Etx_util.Json.t
(** Cluster-level stats: per-backend breaker state and counters
    (routed, failovers, shed, degraded, deadline-exceeded, probes).  A
    backend's [health] is ["up"] exactly while its breaker is closed. *)

val stopped : t -> bool
(** A [shutdown] request has been served.  It stops only the router:
    backends belong to whoever started them (the [cluster] command
    drains its supervised fleet once the router has stopped). *)
