(** Single-source shortest paths: binary-heap Dijkstra over a graph's
    edge index ({!Digraph.index}).

    This is the kernel behind {!Etx_routing.Router}'s phase three.  A
    search is driven one settled node at a time ({!settle_next}, with
    {!pending} and {!labels} to look ahead), so the caller can stop as
    soon as it has what it needs: the router stops
    once every module has a usable replica and nothing nearer is
    pending.  All state lives in a reusable {!t}; after {!create} a
    search allocates nothing, and {!start} resets only the nodes the
    previous search labelled.

    {b Tie rule.}  First hops reproduce {!Floyd_warshall}'s successor
    matrix exactly whenever every weight is positive and every sum either
    algorithm forms is exact: Fig 5's strict [<] keeps, among the
    shortest [src -> v] paths, the one whose largest intermediate node
    index k* is smallest, and its first hop is the first hop towards k*
    (or [v] itself when the direct edge is that path).  The search
    carries k* as a label key: relaxing from settled [u] proposes [-1]
    when [u] is the source, else [max (key u) u], and the smallest key
    among exactly tight predecessors wins. *)

type t
(** One search's scratch: labels, settled distances and first hops, an
    indexed min-heap with decrease-key.  Not shareable across domains. *)

val create : node_count:int -> t
(** @raise Invalid_argument if [node_count <= 0]. *)

val start : t -> src:int -> unit
(** Forget the previous search and begin one from [src]. *)

val settle_next : t -> Digraph.index -> weights:float array -> int
(** Settle the nearest pending node, fix its distance and first hop,
    relax its out-edges with [weights.(e)] for the edge with id [e]
    ([infinity] masks an edge), and return it; [-1] once nothing is
    pending.  Weights must be non-negative and not NaN; the tie rule
    additionally needs them positive. *)

val pending : t -> int
(** The node {!settle_next} would settle next, [-1] once nothing is
    pending.  Every node not yet settled is at least its label away. *)

val labels : t -> float array
(** Per node: the tentative distance (an upper bound; exact once
    settled), [infinity] when not reached.  Same ownership as
    {!distances}. *)

val distances : t -> float array
(** Per node: the settled distance, [infinity] when not (yet) settled.
    The array is the search's own, valid until the next {!start}. *)

val first_hops : t -> int array
(** Per node: the first hop from the source, [-1] for the source and for
    nodes not settled.  Same ownership as {!distances}. *)

(** {2 Whole searches} *)

type result = {
  distances : float array;  (** [infinity] when unreachable. *)
  predecessors : int array;  (** [-1] for the source and unreachable nodes. *)
}

val run : Etx_util.Matrix.t -> src:int -> result
(** [run w ~src] over a weight matrix in the same convention as
    {!Floyd_warshall.run}: every finite off-diagonal entry is an edge.
    @raise Invalid_argument on a negative weight. *)

val run_graph : Digraph.t -> weight:(src:int -> dst:int -> float) -> src:int -> result
(** Same over a {!Digraph.t} with a caller-supplied edge weight (e.g. the
    EAR battery reweighting).  [weight] may return [infinity] to mask an
    edge. *)

val path_to : result -> src:int -> dst:int -> int list option
(** Reconstructed node sequence [src; ...; dst], or [None] when
    unreachable. *)
