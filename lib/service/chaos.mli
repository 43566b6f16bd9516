(** Deterministic chaos harness for the sharded cluster.

    Proves the cluster's failure handling end to end with real backend
    processes: a {!Supervisor} runs N [serve] daemons sharing one
    durable {!Store} directory, a {!Cluster} router carries a stream of
    scenario requests, and — concurrently, on a schedule derived from a
    seed — the harness kills backends (SIGKILL) and hangs them
    (SIGSTOP, later SIGCONT) mid-batch while the supervisor heals.

    Properties checked, recorded as human-readable violations:

    - {b no accepted request is lost}: every request ends in an [ok]
      response; [degraded]/[retry_after] responses are retried by the
      harness (that is their contract) within a bounded budget.
    - {b bit-identical results}: every [ok] response's [result] bytes
      equal the same request's result from a single in-process daemon
      computed before any chaos.
    - {b self-healing}: killed backends are restarted by the supervisor
      with jittered backoff while the stream keeps completing.
    - {b graceful rolling restart}: every backend drained (SIGTERM,
      in-flight batch finishes, no SIGKILL escalation) and resumed one
      at a time under a second request stream, losing nothing.
    - {b durability}: after the run, {e every} backend is SIGKILLed and
      restarted cold, and each fingerprint from both streams must be
      served with [cache:"store"] — from the shared durable store,
      bit-identically, without recomputation.

    The kill/hang schedule is replayable from [seed] (event timing
    interleaves with OS scheduling, but the event sequence and every
    request's expected result are exact).  On violation the outcome
    carries the seed so the run can be replayed. *)

type config = {
  exe : string;  (** path to the etx binary (spawns [exe serve ...]) *)
  backends : int;  (** cluster size; >= 1 *)
  requests : int;  (** distinct scenario requests per stream; >= 1 *)
  events : int;  (** chaos events injected while the first stream runs *)
  seed : int;  (** drives the event schedule and backoff jitter *)
  dir : string;
      (** scratch directory: sockets, logs, the shared store (the
          {!Supervisor.serve_ops} layout) *)
  mesh_size : int;  (** scenario size (4 keeps each compute cheap) *)
  log : string -> unit;  (** progress lines (use [ignore] to silence) *)
}

val config :
  ?backends:int ->
  ?requests:int ->
  ?events:int ->
  ?seed:int ->
  ?mesh_size:int ->
  ?log:(string -> unit) ->
  exe:string ->
  dir:string ->
  unit ->
  config
(** Defaults: 3 backends, 12 requests, 6 events, seed 1, mesh 4,
    silent. *)

type outcome = {
  seed : int;  (** echo of the schedule seed, for replay *)
  completed : int;
      (** first-stream requests that ended [ok] with matching bytes *)
  client_retries : int;  (** [degraded] responses retried by the harness *)
  kills : int;  (** SIGKILLs that landed on a running backend *)
  hangs : int;  (** SIGSTOP pauses that landed on a running backend *)
  supervised_restarts : int;
      (** restarts the supervisor performed to heal kills *)
  rolling_completed : int;
      (** second-stream requests completed during the rolling restart *)
  store_served_after_restart : int;
      (** final-phase responses with [cache:"store"], out of
          [2 * requests] *)
  violations : string list;  (** empty iff every property held *)
}

val run : config -> outcome
(** Runs every phase and always drains every spawned process, even on
    exception.  Never raises on a property violation — those are
    reported in [violations].  Ignores SIGPIPE for the rest of the
    process, as {!Daemon} requires of a router's caller: the router
    runs in this process and writes to backends the schedule kills. *)

type reply =
  | Served of { cache : string; result : string }
      (** [status:"ok"]: the cache tier ([""] when absent) and the
          serialized [result] member ([""] when absent) *)
  | Refused of string
      (** any other status, carrying the reply's ["error"] code
          (["degraded"] is the retryable one) *)
  | Garbled of string  (** not JSON: a description of the line *)

val classify : string -> reply
(** How the harness reads one response line from a router or daemon. *)
