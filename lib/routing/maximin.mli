(** Max-min residual-energy routing (widest-path), a baseline in the
    spirit of the wireless-sensor-network algorithms the paper cites
    ([13], Chang & Tassiulas) and dismisses as ill-suited to e-textiles.

    Instead of summing battery-weighted lengths like EAR, a path's merit
    is its {e width}, the minimum reported battery level among the nodes
    it enters; routes maximize the width first and minimize the physical
    distance among equally wide paths second.  This is shortest-widest
    routing (Wang & Crowcroft, IEEE JSAC 1996).  Its (max width, min
    distance) order is not isotone, so a single lexicographic
    Floyd-Warshall can keep a wide sub-path that a later, narrower hop
    makes needlessly long; the exact answer is a shortest path over the
    edges into nodes at or above the widest level that connects the
    pair.  {!Router.compute_widest} computes it that way: per living
    source, one truncated {!Etx_graph.Dijkstra} search per reported
    level, highest first, stopping at the first level that reaches a
    usable replica of every module, on {!Router}'s cached adjacency,
    first-hop tie rule, phase three and rotating tables.  Its output is
    a {!Routing_table.t} like EAR's, so the simulator runs it unchanged.

    Including it lets the repository quantify the paper's claim that
    such algorithms "do not apply to e-textile platforms" as an
    experiment rather than an assertion. *)

type path_value = {
  width : int;  (** bottleneck battery level along the path; [max_int] for the empty path *)
  distance : float;  (** physical length, the tie-breaker *)
}

val better : path_value -> path_value -> bool
(** [better a b] when [a] is strictly preferable (wider, or as wide and
    shorter). *)

val widest_path :
  graph:Etx_graph.Digraph.t ->
  snapshot:Router.snapshot ->
  src:int ->
  dst:int ->
  path_value * int option
(** The shortest-widest path from [src] to [dst] over living nodes and
    unfailed links, and its first hop: width [-1], distance [infinity]
    and [None] when [dst] is unreachable; width [max_int], distance [0]
    and [None] when [src = dst].  The first hop follows the tie rule of
    {!Etx_graph.Dijkstra}, so with lengths that pass {!Router}'s
    exactness gate it is the hop {!compute} takes towards [dst] when it
    picks [dst].  One whole search per level; for tests and analysis. *)

type workspace = Router.workspace
(** {!Router}'s workspace: the cached adjacency, search state,
    per-level weights, candidate arrays and a rotating pair of routing
    tables, reused across recomputes so the controller's per-frame
    maximin path stops allocating; {!Router.changed_entries} reads its
    download count.  A workspace belongs to one controller; it must not
    be shared across domains. *)

val create_workspace : unit -> workspace
(** An empty workspace; buffers are sized lazily on first use. *)

val compute :
  ?workspace:workspace ->
  graph:Etx_graph.Digraph.t ->
  mapping:Mapping.t ->
  module_count:int ->
  Router.snapshot ->
  Routing_table.t
(** {!Router.compute_widest}: for each living node and module, forward
    towards the living duplicate with the best (width, distance) value,
    avoiding locked ports when an unlocked alternative exists.  The
    result is identical with and without [?workspace]; with one, the
    returned table belongs to the workspace's rotating pair (valid
    across exactly one further [compute], as in {!Router.compute}). *)
