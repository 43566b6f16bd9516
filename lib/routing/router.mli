(** The online routing algorithm: phases 1-3 of Sec 6.

    EAR and SDR share this machinery end to end; they differ only in the
    {!Weight.t} used by phase one (the paper keeps everything else
    identical "for a fair comparison").

    The controller runs {!compute} on the system state reported over the
    TDMA medium: which nodes are alive, their quantized battery levels,
    and which output ports sit in deadlock. *)

type snapshot = {
  alive : bool array;  (** per node *)
  battery_level : int array;  (** per node, in [0, levels) *)
  levels : int;  (** N_B: number of reportable levels *)
  mutable locked_ports : (int * int) list;
      (** [(node, next_hop)] pairs whose forwarding is deadlocked; phase
          three steers the node's table away from these ports.  Mutable
          so the engine can refresh one snapshot buffer in place per
          frame; the list values themselves are immutable and sharable *)
  mutable failed_links : (int * int) list;
      (** directed interconnects broken by wear-and-tear; phase one cuts
          them out of the weight matrix like dead nodes *)
}

val full_snapshot : node_count:int -> levels:int -> snapshot
(** Everyone alive at the top level; no deadlocks, no failed links. *)

type workspace
(** Scratch state reused across recomputes, so the controller's
    per-frame hot path stops allocating: keyed on the graph's edge
    index ({!Etx_graph.Digraph.index}, whose rows and reverse rows it
    reads), phase one's per-edge weights for every pass with the node states they were
    written from, failed/locked flags, the search state (labels, an
    indexed heap, settled distances and first hops), per-node and
    per-module marks, the battery factor of every level and the
    exactness gate, interned [Forward] entries, and a rotating pair of
    routing tables.  After
    the first recompute on a graph, a recompute allocates only a few
    words whatever the mesh size.  A workspace belongs to one
    controller; it must not be shared across domains.

    {b Work in proportion to the change.}  Phase one rewrites only the
    edges at nodes whose [alive] flag or level moved since the last
    recompute; every edge when the weight, level count, failed-link
    list or (for {!compute_widest}) the set of reported levels changed,
    and on the first recompute on a graph.

    {b Row reuse.}  A workspace also keeps, per source, the nodes its
    last searches settled.  A source's searches depend only on its own
    lock flags, the candidate arrays and, per pass, the weights on the
    out-edges of the nodes they settle.  Every edge [u -> v] whose
    weight moved marks [v] when it rose and [u] when it fell or
    revived; a living source that settled no marked node and whose own
    lock flags did not move copies its row from the previous table of
    the pair instead of searching (counted by
    [etx_routing_searches_reused_total]).  A rise into a node the
    search labelled but never settled cannot change the row: a search
    that stopped early had already labelled it beyond its stop
    distance, and one that ran to exhaustion settled everything it
    labelled.  This applies only right after a recompute on the same
    graph, mapping, module count and pass count; a refused one (see
    {!compute}) leaves the workspace as it was.  The tables are the same
    either way. *)

val create_workspace : unit -> workspace
(** An empty workspace; buffers are sized lazily on first use and
    rebuilt when the graph passed has another edge index (a different
    graph, or one edited since, which drops its index). *)

val weight_matrix :
  graph:Etx_graph.Digraph.t -> weight:Weight.t -> snapshot -> Etx_util.Matrix.t
(** Phase one: the W matrix.  Diagonal 0; [f(N_B(j)) * L_ij] for an edge
    between living nodes; infinity elsewhere (dead nodes are cut out of
    the network entirely). *)

val compute :
  ?workspace:workspace ->
  graph:Etx_graph.Digraph.t ->
  mapping:Mapping.t ->
  module_count:int ->
  weight:Weight.t ->
  snapshot ->
  Routing_table.t
(** All three phases.  For every living node and module, the table entry
    points one hop along a weighted-shortest path to the best living
    duplicate, avoiding locked ports when an unlocked alternative exists
    (the recovery branch of Fig 6).  Entries of dead nodes are
    [Unreachable].

    The table is exactly the one Fig 5's Floyd-Warshall and Fig 6 give,
    computed as one truncated {!Etx_graph.Dijkstra} search per living
    node that stops once each module has a usable replica and nothing
    nearer is pending.  The two agree bit for bit only when no path sum
    rounds, so the weight must pass an exactness gate, a property of
    the weight family, the level count and the graph, not of the
    snapshot: every product [f_l * L_e] of a level's battery factor and
    an edge length is positive and finite, and with [2^e] the smallest
    lowest set bit among them, the sum over edges of each edge's
    largest product is below [2^(52 + e)].  Then every weight of every
    snapshot is a multiple of [2^e] and every path sum is exact.  SDR,
    EAR and EAR2 with dyadic Q (the policies' 2, the ablation's 1.5 and
    4), inverse-level (whose factors are whole numbers) and linear
    drain with slope 1 pass on whole-centimetre meshes and tori.  The
    gate is checked once per weight, level count and graph on a
    workspace.

    @raise Invalid_argument when the weight fails the gate (a
    non-dyadic factor such as EAR's Q = 1.7, a zero or negative one, or
    lengths whose sums round), before anything is written: the
    workspace and its tables are left as they were.

    Passing [?workspace] reuses its scratch state instead of
    allocating; the result is identical either way, but the returned
    table then belongs to the workspace's rotating pair: it stays valid
    across exactly one further [compute] on the same workspace and is
    overwritten by the one after that.  Searches are skipped for the
    sources whose rows cannot have changed (row reuse, see
    {!workspace}), and {!changed_entries} counts what moved. *)

val compute_widest :
  ?workspace:workspace ->
  graph:Etx_graph.Digraph.t ->
  mapping:Mapping.t ->
  module_count:int ->
  snapshot ->
  Routing_table.t
(** The {!Maximin} kernel: shortest-widest routing over the physical
    lengths.  A path's width is the lowest level among the nodes it
    enters; each living node forwards every module towards the living
    replica with the widest path, the shortest among equally wide ones
    (then the smallest id), avoiding locked ports when an unlocked
    alternative exists and delivering when it hosts the module.

    The table is defined by a per-level recurrence: for each level some
    living node reports, highest first, Fig 5 over the edges into nodes
    at or above it, each pair taking the first level that reaches it as
    its width, with that level's distance and successor; phase three
    then chooses as above.  It runs as truncated searches: per living
    source, one per level, highest first, until every module has a
    usable replica; each search counts one
    [etx_routing_maximin_levels_total].  They give the recurrence's
    table bit for bit under the exactness gate of {!compute}, here a
    property of the graph's lengths alone (whole-centimetre mesh and
    torus lengths pass it); ownership, row reuse, {!changed_entries}
    and the refusal of a graph that fails the gate as in
    {!compute}. *)

val changed_entries : workspace -> int
(** The (node, module) entries of the table the last {!compute} or
    {!compute_widest} on this workspace returned that differ from the
    table before it ({!Routing_table.diff_count} of the two), counted
    while the table was written: the download volume of a recompute.
    Every entry counts when there was no table before it (the first
    recompute). *)

val shortest_paths :
  graph:Etx_graph.Digraph.t -> weight:Weight.t -> snapshot -> Etx_graph.Floyd_warshall.result
(** Phases one and two as Fig 5 prints them, Floyd-Warshall over
    {!weight_matrix}: the oracle the searches are tested against.  No
    exactness gate applies (nothing routes on the result). *)
