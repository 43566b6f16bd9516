(** The persistent simulation server.

    A long-lived daemon that answers scenario requests without paying
    process startup or recomputing identical work.  The protocol is
    newline-delimited JSON in both directions; a {e batch} is a run of
    request lines terminated by a blank line (or end of stream), and
    responses come back in arrival order, one line per request.

    Inside one batch the server applies, in order:

    - {b admission control}: at most [queue_depth] scenario requests are
      admitted; the rest are answered immediately with a structured
      [queue_full] error and the server keeps serving — the queue never
      grows without bound.  Control requests (stats/ping/metrics/
      shutdown) are always admitted, so operators can observe a
      saturated server.
    - {b priority ordering}: admitted requests execute by descending
      [priority], ties in arrival order.
    - {b deduplication and caching}: each scenario's canonical
      fingerprint is looked up in the LRU result cache (a {e hit}
      replays bit-identical bytes) and, failing that, against results
      computed earlier in the same batch (a {e coalesced} duplicate is
      computed once even with caching disabled).

    All simulation work fans out over one shared persistent
    {!Etx_util.Pool} owned by the server for its whole life.  The
    transports around {!handle_batch} live in {!Daemon}.

    The [stats] control request reports per-scenario latency as an
    all-time count, mean and max plus p50/p90/p99 over the newest 512
    samples, so a long-lived server reports its current tail. *)

type config = {
  queue_depth : int;  (** admission bound per batch; at least 1 *)
  cache_capacity : int;  (** LRU entries; 0 disables caching *)
  domains : int;  (** worker domains of the shared pool *)
  store_dir : string option;
      (** durable {!Store} directory beneath the LRU: misses consult it
          before computing ([cache:"store"] in the response) and
          computed results are persisted to it, so restarts — and every
          other backend sharing the directory — keep the cache.  [None]
          disables durability. *)
}

val default_config : config
(** queue depth 64, cache capacity 128, one worker domain, no durable
    store. *)

type t

val create : ?now:(unit -> float) -> config -> t
(** Start a server: opens the durable store (if configured) and spawns
    the worker pool.  [now] injects the clock used for latency
    measurement and deadline accounting (seconds; defaults to
    [Unix.gettimeofday]) so tests can be deterministic.
    @raise Invalid_argument on non-positive [queue_depth] or [domains],
    or negative [cache_capacity].
    @raise Sys_error if [store_dir] cannot be created. *)

val handle_batch : t -> string list -> string list
(** Serve one batch: request lines in, response lines out (same length,
    arrival order).  Never raises on malformed input — bad lines get
    error responses.  A scenario request whose [deadline_ms] has already
    elapsed (measured from batch receipt) when its execution slot comes
    up is shed with a [deadline_exceeded] error before any cache lookup
    or compute. *)

val stopped : t -> bool
(** A [shutdown] request has been served; the serving loop
    ({!Daemon}) stops reading and the caller calls {!shutdown}. *)

val shutdown : t -> unit
(** Release the worker pool.  Idempotent. *)
