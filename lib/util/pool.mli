(** Deterministic fixed-size domain pool for embarrassingly-parallel maps.

    The experiment driver runs hundreds of independent simulations; this
    module fans them out over OCaml 5 domains while keeping the results
    bit-identical to a sequential run: outputs are written into an
    index-addressed buffer, so scheduling order never leaks into the
    result, and the lowest-index exception is the one re-raised.

    There is one scheduler, the persistent pool {!t}: a long-lived
    server keeps one across requests, and {!map} wraps a short-lived one
    around a single {!run}.

    Built on stdlib [Domain]/[Mutex]/[Atomic] only — no external
    dependencies. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()]: the hardware parallelism the
    runtime suggests for this machine. *)

type t
(** A persistent pool of worker domains. *)

val create : ?domains:int -> unit -> t
(** Spawn a pool of [max 1 domains] workers (default
    {!default_domains}).  Workers idle on a condition variable between
    calls — no spinning. *)

val size : t -> int
(** Number of worker domains the pool owns. *)

val run : t -> ('a -> 'b) -> 'a list -> 'b list
(** [run t f xs] is [List.map f xs] computed on [t]'s workers, which
    start the elements in input order.  Output order is exactly input
    order, so results are bit-identical to a sequential run for every
    pool size.

    If an application raises, the rest of the call is cancelled
    promptly: elements already in flight finish, but no element that has
    not started yet will start.  The exception of the {e lowest} input
    index is then re-raised {e with its original backtrace} — the one a
    sequential [List.map] would have surfaced first, since every element
    below a failed one started before it and ran to completion.

    Must not be called from inside one of [t]'s own tasks (the pool
    would deadlock), and calls must not race {!shutdown}.
    @raise Invalid_argument if the pool has been shut down. *)

val shutdown : t -> unit
(** Stop and join every worker.  Idempotent: a second call is a no-op,
    so cleanup paths can call it unconditionally.  Tasks still queued
    when shutdown begins are dropped (a single-owner pool has none:
    {!run} only returns once its tasks finished). *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and guarantees {!shutdown}
    on every exit path, exceptional or not. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs] is {!run} on a pool of [min domains n] workers
    created for this call and shut down after it, with {!run}'s ordering,
    cancellation and exception guarantees.  With [domains <= 1] (or a
    singleton/empty list) no domain is spawned and [f] is applied
    sequentially, left to right.  [domains] defaults to
    {!default_domains}. *)

(** {1 Supervised elements} *)

type error = {
  exn : exn;
  backtrace : Printexc.raw_backtrace;  (** backtrace of the last attempt *)
  attempts : int;  (** how many times the element was tried *)
}

type 'a outcome = Completed of 'a | Crashed of error

val attempt : retries:int -> ('a -> 'b) -> 'a -> 'b outcome
(** [attempt ~retries f] never raises from [f]: it tries [f x] up to
    [1 + retries] times, immediately, and yields [Crashed] with the last
    exception, its backtrace and the attempt count if every try raised.
    Mapped over {!run} or {!map}, one element crashing never cancels the
    rest.
    @raise Invalid_argument on a negative [retries] (at partial
    application, before any element runs). *)
