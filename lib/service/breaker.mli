(** Per-backend circuit breaker: closed / open / half-open.

    Closed passes traffic; [failure_threshold] consecutive failures trip
    it open.  While open, {!allow} refuses instantly (no connection
    attempt, no timeout paid) until [cooldown_s] has elapsed, at which
    point the breaker moves to half-open and {!allow} grants exactly one
    probe request.  A success while half-open (or at any other time —
    e.g. an out-of-band health ping) closes the breaker; a failure
    re-opens it and restarts the cooldown.

    The breaker is also the backend's liveness view: a backend is
    {e up} exactly while its breaker is closed.  With a success
    threshold of one, that is the same as "fewer than
    [failure_threshold] failures since the last success".

    The clock is injected at creation so tests drive time explicitly. *)

type state = Closed | Open | Half_open

type t

val create :
  ?failure_threshold:int ->
  ?cooldown_s:float ->
  ?obs_label:string ->
  now:(unit -> float) ->
  unit ->
  t
(** Defaults: 3 consecutive failures, 5 s cooldown.  [obs_label] names
    this breaker's backend in the [etx_breaker_transitions_total]
    metric family; without it no metrics are recorded.
    @raise Invalid_argument if [failure_threshold < 1] or
    [cooldown_s <= 0]. *)

val state : t -> state
(** Current state; an elapsed cooldown is observed as [Half_open]. *)

val allow : t -> bool
(** May a request be sent now?  [Closed]: yes.  [Open]: no, until the
    cooldown elapses — then the breaker becomes [Half_open] and this
    call returns [true] (the probe); further calls return [false] until
    the probe's outcome is recorded. *)

val record_success : t -> unit
(** Close the breaker and clear the failure streak, from any state. *)

val record_failure : t -> unit
(** Count a failure; trips [Closed] past the threshold, and re-opens a
    [Half_open] breaker immediately. *)

val opened_total : t -> int
(** Times the breaker tripped open — flakiness visible in stats. *)

val consecutive_failures : t -> int
(** Current failure streak, in any state (0 after any success). *)

val health_name : t -> string
(** ["up"] while [Closed], ["down"] otherwise. *)

val health_transitions : t -> int
(** Up/down flips: trips out of [Closed] plus returns to it (a
    half-open probe failing re-opens without a flip). *)

val state_name : state -> string
(** ["closed"], ["open"] or ["half_open"]. *)
