(** Running statistics over float observations.

    Used by the simulator's metrics collection and by the benchmark
    harness to summarize sweeps.  Accumulation is Welford's online
    algorithm, so a single pass yields mean and variance without storing
    the observations. *)

type t
(** Mutable accumulator. *)

val create : unit -> t

val add : t -> float -> unit
(** Record one observation. *)

val count : t -> int
val mean : t -> float

val variance : t -> float
(** Unbiased sample variance; [0.] with fewer than two observations. *)

val stddev : t -> float
val min : t -> float
val max : t -> float

val total : t -> float
(** Sum of all observations. *)

val merge : t -> t -> t
(** [merge a b] is an accumulator equivalent to having seen both streams. *)

val of_list : float list -> t

val percentile : float list -> p:float -> float
(** [percentile xs ~p] with [p] in [0,1]: linear-interpolated quantile of
    a non-empty list.  @raise Invalid_argument on an empty list. *)
