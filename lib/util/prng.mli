(** Deterministic pseudo-random number generation.

    Experiments must be reproducible bit-for-bit across runs, so the
    simulator never uses [Random]; it threads an explicit {!t} built from
    a seed.  The generator is splitmix64, which is small, fast and has
    well-understood statistical quality for simulation workloads. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator from a 63-bit seed.  Equal seeds
    yield equal streams. *)

val copy : t -> t
(** Independent copy of the current state. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> bound:int -> int
(** [int t ~bound] draws uniformly from [0, bound).  [bound] must be
    positive. *)

val float : t -> bound:float -> float
(** [float t ~bound] draws uniformly from [0, bound).  [bound] must be
    positive and finite. *)

val bool : t -> bool
(** Fair coin flip. *)

val byte : t -> int
(** Uniform value in [0, 255]. *)

val bytes : t -> len:int -> Bytes.t
(** [bytes t ~len] draws [len] independent uniform bytes. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of the
    continuation of [t]'s stream (useful to give sub-systems their own
    streams without coupling their consumption). *)
