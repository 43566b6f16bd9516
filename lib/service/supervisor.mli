(** Self-healing supervision of a fixed set of backend processes.

    Each child walks a small state machine:

    {v
      Running ──(exit observed)──▶ Backing_off ──(due)──▶ Running
         │                            ▲
         │ (drain: SIGTERM, wait,     │ restart delay: per-child
         │  SIGKILL past the grace)   │ decorrelated-jitter Backoff,
         ▼                            │ reset after a stable uptime
      Stopped ──(resume)──▶ Running
    v}

    {!tick} observes exits (non-blocking reap) and restarts due
    children; {!while_healing} loops it in the background.  {!drain}
    is the graceful stop: SIGTERM, then wait up to the grace period for
    the child to finish its in-flight batch and exit, then SIGKILL as a
    last resort.
    {!rolling_restart} drains and resumes one child at a time, waiting
    for readiness in between, so a cluster in front of these children
    never loses more than one shard.

    Process operations are injected through {!ops}, so the state machine
    is unit-testable with a scripted world and an injected clock;
    {!serve_ops} supplies the real ones for a fleet of [serve]
    backends — the one way the [cluster] and [chaos] commands start
    them. *)

type ops = {
  spawn : int -> int;  (** [spawn index] starts child [index], returns its pid. *)
  term : int -> unit;  (** Send SIGTERM to a pid. *)
  kill : int -> unit;  (** Send SIGKILL to a pid. *)
  reap : int -> bool;
      (** Non-blocking: has this pid exited (reaping it if so)?  Must
          keep answering [true] for an already-reaped pid. *)
  ready : int -> bool;  (** One bounded readiness probe of child [index]. *)
  now : unit -> float;
  sleep : float -> unit;
  log : string -> unit;
}

val backend_socket : dir:string -> int -> string
(** [DIR/backendI.sock]: where child [I] of a {!serve_ops} fleet listens. *)

val serve_ops :
  exe:string ->
  dir:string ->
  jobs:int ->
  metrics_every_s:float option ->
  log:(string -> unit) ->
  ops
(** Real-world [ops] for a fleet of [exe serve] backends sharing [dir]
    (created if missing): child [I] runs [serve --socket DIR/backendI.sock
    --jobs JOBS --store DIR/store] with stdout and stderr appended to
    [DIR/backendI.log], plus [--metrics-file DIR/backendI.metrics.json
    --metrics-every S] when [metrics_every_s = Some S].  Readiness is
    one [ping] over the socket, bounded by 0.2 s through {!Netio}'s
    deadlines.  Signals go through [Unix.kill], exits are observed with
    [waitpid \[WNOHANG\]] (ESRCH/ECHILD count as exited), and time is
    [Unix.gettimeofday] / [Unix.sleepf]. *)

type config = {
  children : int;
  backoff_base_ms : float;  (** First restart delay. *)
  backoff_cap_ms : float;  (** Restart delay clamp. *)
  seed : int;  (** Jitter stream seed (deterministic schedules). *)
  stable_after_s : float;
      (** Uptime after which a child's backoff resets, so one crash far
          from the last does not pay an escalated delay. *)
  drain_grace_s : float;  (** SIGTERM-to-SIGKILL grace during drains. *)
  ready_timeout_s : float;  (** Readiness wait bound after spawn/resume. *)
}

val default_config : children:int -> config

type t

val create : ops -> config -> t
val start : t -> int list
(** Spawn every child (a stopped fleet included), then {!await_ready}:
    the indices of children that never answered ready, [[]] when the
    whole fleet is up. *)

val await_ready : t -> int list
(** Wait for each child in turn, up to [ready_timeout_s] apiece, until
    it answers ready; the indices of those that never did. *)

val pid : t -> int -> int
(** Current pid of child [index], or -1 when not running. *)

val tick : t -> unit
(** One supervision step: reap exits, move crashed children to backoff,
    restart those whose delay has elapsed. *)

val while_healing : t -> period_s:float -> (unit -> 'a) -> 'a
(** [while_healing t ~period_s f] runs [f ()] while a separate domain
    calls {!tick} every [period_s]; that domain is stopped and joined
    when [f] returns or raises. *)

val drain : t -> int -> bool
(** Gracefully stop child [index]: SIGTERM, wait up to [drain_grace_s]
    for a clean exit, SIGKILL past that.  The child moves to [Stopped]
    (not restarted by {!tick}).  Returns [true] when the exit was
    graceful (no SIGKILL needed). *)

val resume : t -> int -> bool
(** Restart a [Stopped] child and wait (bounded) until it answers
    ready; [true] on readiness. *)

val rolling_restart : t -> bool
(** Drain and resume each child in turn, waiting for readiness before
    moving on.  [true] when every drain was graceful and every resumed
    child came back ready. *)

val stop_all : t -> unit
(** Drain every child (graceful first, SIGKILL stragglers). *)

val restarts_total : t -> int
(** Crash-triggered restarts performed by {!tick} (rolling restarts not
    included). *)

val forced_kills_total : t -> int
(** Children that had to be SIGKILLed because they out-stayed a drain's
    grace period. *)
