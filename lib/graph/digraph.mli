(** Directed graphs with float edge lengths.

    Nodes are dense integer ids [0 .. node_count - 1].  Edge lengths are
    physical interconnect lengths in centimeters (paper Sec 5.1.2); the
    routing layer later reweights them (SDR uses the length itself, EAR
    multiplies by a battery-dependent factor).

    A graph is built once and then queried; adding an edge twice updates
    its length.

    {b The edge index.}  Every consumer that walks the links (the
    router's searches, the engine's per-link state, connectivity, the
    fault plan) reads one compressed-row index, built on first use and
    cached on the graph: edge ids [0 .. edge_count - 1] in (source,
    destination) ascending order, each node's out-edges one contiguous
    row, plus the reverse index of its in-edges.  Per-link state is an
    array of length [edge_count] indexed by edge id, so it grows with the
    links, not with the square of the nodes.  {!add_edge} drops the
    cached index; the next use rebuilds it. *)

type t

type index = private {
  row_start : int array;
      (** length [node_count + 1]: the out-edges of [i] are the ids
          [row_start.(i) .. row_start.(i + 1) - 1] *)
  targets : int array;  (** per edge: its destination, ascending within a row *)
  lengths : float array;  (** per edge: its length *)
  tails : int array;  (** per edge: its source *)
  in_start : int array;
      (** length [node_count + 1]: the in-edges of [v] are
          [in_edges.(in_start.(v)) .. in_edges.(in_start.(v + 1) - 1)] *)
  in_edges : int array;  (** edge ids grouped by destination, ascending within a group *)
}

val create : node_count:int -> t
(** An edgeless graph.  @raise Invalid_argument if [node_count <= 0]. *)

val node_count : t -> int
val edge_count : t -> int

val add_edge : t -> src:int -> dst:int -> length:float -> unit
(** Add or update the directed edge [src -> dst].  Self-loops are
    rejected.  @raise Invalid_argument on out-of-range ids, self-loop, or
    non-positive length. *)

val add_bidirectional : t -> a:int -> b:int -> length:float -> unit
(** Both [a -> b] and [b -> a]. *)

val mem_edge : t -> src:int -> dst:int -> bool

val length : t -> src:int -> dst:int -> float
(** Length of an existing edge.  @raise Not_found if absent. *)

val index : t -> index
(** The graph's edge index, built on the first call after the last
    {!add_edge} and shared by every later one (also across domains: a
    graph has one index at a time, so its identity names the edge
    set). *)

val edge_id : index -> src:int -> dst:int -> int
(** The id of edge [src -> dst], [-1] when there is none: a scan of
    [src]'s row.  @raise Invalid_argument if [src] is out of range. *)

val successors : t -> int -> (int * float) list
(** Outgoing [(dst, length)] pairs, in increasing [dst] order: the
    node's row of {!index}. *)

val predecessors : t -> int -> (int * float) list
(** Incoming [(src, length)] pairs, in increasing [src] order: the
    node's reverse row of {!index}. *)

val fold_edges : t -> init:'a -> f:('a -> src:int -> dst:int -> length:float -> 'a) -> 'a
(** Every edge in (source, destination) ascending order, the order of
    their ids, read from the construction store without building the
    index. *)

val iter_edges : t -> f:(src:int -> dst:int -> length:float -> unit) -> unit

val adjacency_matrix : t -> Etx_util.Matrix.t
(** The weight matrix of Sec 6: [0] on the diagonal, the length where an
    edge exists, [infinity] elsewhere. *)

val transpose : t -> t

val pp : Format.formatter -> t -> unit
