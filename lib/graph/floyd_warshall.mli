(** All-pairs shortest paths with successor matrix.

    This is the second phase of both EAR and SDR (paper Sec 6, Fig 5): a
    variation of Floyd-Warshall that computes, besides the K x K distance
    matrix [d], the K x K successor matrix [s] where [s(i, j)] is the
    node that follows [i] on a shortest path from [i] to [j].  The
    routing tables downloaded to the nodes are rows of [s].

    Input is a weight matrix as produced by phase one: [0] on the
    diagonal, the (possibly battery-reweighted) edge weight where an edge
    exists, [infinity] elsewhere. *)

type result = {
  distances : Etx_util.Matrix.t;
  successors : Etx_util.Matrix.Int.t;
      (** [-1] where no path exists (and on the diagonal). *)
}

val run : Etx_util.Matrix.t -> result
(** [run w] executes the Fig 5 recurrence.  Ties are resolved in favour
    of the incumbent path (the paper's [<=] branch in line 5), which
    makes the result deterministic.  Weights must be non-negative.
    @raise Invalid_argument on a negative entry. *)

val distance : result -> src:int -> dst:int -> float
(** [infinity] when unreachable. *)

val successor : result -> src:int -> dst:int -> int option
(** First hop from [src] towards [dst]; [None] when [src = dst] or
    unreachable. *)
