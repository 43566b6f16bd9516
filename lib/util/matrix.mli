(** Dense square float matrices.

    Fig 5's Floyd-Warshall (the definition the router is tested
    against, and the hop counts of the static analysis) operates on
    adjacency-matrix representations, as in the paper (Sec 6).  Indices
    are 0-based. *)

type t
(** A square matrix of floats. *)

val create : dim:int -> init:float -> t
(** [create ~dim ~init] is a [dim] x [dim] matrix filled with [init].
    @raise Invalid_argument if [dim <= 0]. *)

val dim : t -> int

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val copy : t -> t

val data : t -> float array
(** The underlying row-major array (length [dim * dim]); entry [(i, j)]
    lives at [i * dim + j].  Exposed for performance-critical kernels
    (Floyd-Warshall's triple loop); mutations write through. *)

val init : dim:int -> f:(int -> int -> float) -> t
(** [init ~dim ~f] fills entry [(i, j)] with [f i j]. *)

val map : t -> f:(float -> float) -> t

val iteri : t -> f:(int -> int -> float -> unit) -> unit

val equal : ?eps:float -> t -> t -> bool
(** Entry-wise comparison with absolute tolerance [eps] (default [1e-9]);
    two infinities of the same sign compare equal. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering (infinity printed as ["inf"]). *)

module Int : sig
  (** Square integer matrices (successor matrices use node indices, with
      [-1] meaning "no successor"). *)

  type t

  val create : dim:int -> init:int -> t
  val dim : t -> int
  val get : t -> int -> int -> int
  val set : t -> int -> int -> int -> unit
  val copy : t -> t

  val data : t -> int array
  (** Row-major backing array, as {!Matrix.data}. *)

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end
