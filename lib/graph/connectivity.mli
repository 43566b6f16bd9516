(** Reachability queries, including over partially-dead networks.

    The simulator's death detection asks "from the job's current node,
    does a living instance of the next module remain reachable through
    living relays?"; these helpers answer that without rebuilding the
    graph: they walk its edge index ({!Digraph.index}). *)

val reachable :
  Digraph.t ->
  ?alive:(int -> bool) ->
  ?edge_alive:(int -> bool) ->
  src:int ->
  unit ->
  bool array
(** BFS over out-edges restricted to nodes satisfying [alive] and edges
    whose {!Digraph.edge_id} satisfies [edge_alive] (defaults:
    everyone/everything).
    [reachable.(dst)] is true when a path of alive nodes over alive edges
    [src -> ... -> dst] exists.  A dead [src] reaches nothing, not even
    itself. *)

val components : Digraph.t -> ?alive:(int -> bool) -> unit -> int array
(** Weakly-connected component labels (edges treated as undirected);
    dead nodes get label [-1].  Labels are dense from 0. *)

val component_count : Digraph.t -> ?alive:(int -> bool) -> unit -> int

val is_connected : Digraph.t -> ?alive:(int -> bool) -> unit -> bool
(** True when the alive subgraph is weakly connected and non-empty. *)
