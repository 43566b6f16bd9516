(** Max-min residual-energy routing (widest-path), a baseline in the
    spirit of the wireless-sensor-network algorithms the paper cites
    ([13], Chang & Tassiulas) and dismisses as ill-suited to e-textiles.

    Instead of summing battery-weighted lengths like EAR, a path's merit
    is the {e minimum} reported battery level among the nodes it enters;
    routes maximize that bottleneck level and break ties by physical
    distance.  Implemented as a Floyd-Warshall variant over the
    lexicographic (max width, min distance) semiring, with the same
    successor-matrix output and phase-three duplicate selection as
    {!Router}, so the simulator can run it unchanged.

    The kernel is struct-of-arrays: path values live in parallel flat
    [int] (width) and [float] (distance) row-major buffers rather than a
    matrix of boxed records, so the O(n^3) DP loop allocates nothing,
    and a {!workspace} reuses those buffers (plus the membership hash
    sets, candidate arrays and routing-table rows) across recomputes,
    mirroring [Router.compute ?workspace].

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

type paths
(** All-pairs widest-path matrices in struct-of-arrays layout. *)

val dim : paths -> int

val path_width : paths -> src:int -> dst:int -> int
(** Bottleneck battery level of the best path; [-1] when unreachable,
    [max_int] on the diagonal. *)

val path_distance : paths -> src:int -> dst:int -> float
(** Physical length of the best path; [infinity] when unreachable. *)

val path_value : paths -> src:int -> dst:int -> path_value
(** Both components as a record (convenience for tests/analysis; the
    kernels read the flat buffers directly). *)

val successor : paths -> src:int -> dst:int -> int option
(** First hop from [src] towards [dst]; [None] when [src = dst] or
    unreachable. *)

type workspace
(** Scratch buffers (flat value/successor matrices, failed-link and
    locked-port hash sets, per-module candidate arrays, and a rotating
    pair of routing tables) reused across recomputes so the
    controller's per-frame maximin path stops allocating.  A workspace
    belongs to one controller; it must not be shared across domains. *)

val create_workspace : unit -> workspace
(** An empty workspace; buffers are sized lazily on first use and
    resized if the graph dimension changes. *)

val widest_paths :
  ?workspace:workspace ->
  graph:Etx_graph.Digraph.t ->
  snapshot:Router.snapshot ->
  unit ->
  paths
(** All-pairs widest paths over living nodes and links.  With
    [?workspace] the returned {!paths} aliases the workspace buffers
    and is overwritten by the next call on the same workspace. *)

val compute :
  ?workspace:workspace ->
  graph:Etx_graph.Digraph.t ->
  mapping:Mapping.t ->
  module_count:int ->
  Router.snapshot ->
  Routing_table.t
(** Phase three over the widest-path matrices: for each node and module,
    forward towards the living duplicate with the best (width, distance)
    value, avoiding locked ports when an unlocked alternative exists.
    The result is identical with and without [?workspace]; with one,
    the returned table belongs to the workspace's rotating pair (valid
    across exactly one further [compute], as in {!Router.compute}). *)
