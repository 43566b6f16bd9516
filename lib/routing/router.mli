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

(** The change-set between two snapshots: which ingredients of the
    routing recompute actually moved.  One {!Delta.diff} pass replaces
    the controller's separate snapshot-equality walk, and the same
    result steers {!compute_incremental} towards the cheapest exact
    repair. *)
module Delta : sig
  type t = {
    full : bool;
        (** arities/levels differ or there was no previous snapshot:
            nothing can be reused *)
    alive_changed : bool;  (** some node's liveness flipped *)
    dirty_levels : int list;
        (** ascending ids of nodes whose quantized battery level moved *)
    locks_changed : bool;  (** the locked-port list differs *)
    links_changed : bool;  (** the failed-link list differs *)
  }

  val empty : t
  (** Nothing changed.  A preallocated constant: steady-state diffing
      allocates nothing. *)

  val full : t
  (** Everything must be assumed changed. *)

  val is_empty : t -> bool
  (** [is_empty (diff ~previous s)] holds exactly when [previous] and
      [s] are structurally equal snapshots. *)

  val make :
    ?alive_changed:bool ->
    ?dirty_levels:int list ->
    ?locks_changed:bool ->
    ?links_changed:bool ->
    unit ->
    t
  (** Hand-built deltas for tests and benchmarks (all flags default to
      unchanged). *)

  val diff : previous:snapshot -> snapshot -> t
  (** Single-pass comparison.  The list fields short-circuit on physical
      identity before falling back to structural equality, matching how
      the engine shares unchanged lists frame to frame. *)
end

type workspace
(** Scratch buffers (weight matrix, Floyd-Warshall matrices, membership
    sets for failed links and locked ports, and a rotating pair of
    routing tables) reused across recomputes so the controller's
    per-frame hot path stops allocating.  A workspace belongs to one
    controller; it must not be shared across domains. *)

val create_workspace : unit -> workspace
(** An empty workspace; buffers are sized lazily on first use and
    resized if the graph dimension changes. *)

val invalidate_workspace : workspace -> unit
(** Forget the cached previous result: the next {!compute_incremental}
    falls back to a full recompute.  Required after restoring foreign
    state into the caller (e.g. a checkpoint restore) so the workspace
    cannot repair against matrices that no longer describe the current
    baseline. *)

val fill_set : (int * int, unit) Hashtbl.t -> (int * int) list -> unit
(** Reset [set] to contain exactly the given pairs (hash-set membership,
    unit values).  The workspace fast path shared with {!Maximin}. *)

type candidates
(** A cache of per-module candidate node arrays (the nodes hosting each
    module, ascending), keyed on the mapping's physical identity and the
    module count.  Phase three walks these arrays for every node and
    module; both routing workspaces hold one. *)

val create_candidates : unit -> candidates

val candidate_arrays : candidates -> mapping:Mapping.t -> module_count:int -> int array array
(** The cached arrays when [mapping] and [module_count] match the last
    call, otherwise freshly extracted (and cached). *)

val scratch_table_of :
  tables:Routing_table.t array ->
  flip:int ->
  node_count:int ->
  module_count:int ->
  Routing_table.t array * Routing_table.t
(** The rotating-table helper behind both workspaces: given the cached
    pair (possibly empty or wrongly sized) and the rotation index,
    return the (re)usable pair and the cleared table to write into.
    Two tables rotate because callers hold the previous recompute's
    result (for {!Routing_table.diff_count}) while the next one is
    written. *)

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
    [Unreachable].  Passing [?workspace] reuses its scratch matrices
    instead of allocating; the result is identical either way, but the
    returned table then belongs to the workspace's rotating pair: it
    stays valid across exactly one further [compute] on the same
    workspace (so the previous table can be diffed against the new one)
    and is overwritten by the one after that. *)

val compute_incremental :
  ?workspace:workspace ->
  graph:Etx_graph.Digraph.t ->
  mapping:Mapping.t ->
  module_count:int ->
  weight:Weight.t ->
  delta:Delta.t ->
  snapshot ->
  Routing_table.t
(** Delta-driven recompute, bit-identical to {!compute} on the same
    snapshot by construction: it only ever reuses work whose inputs the
    delta proves unchanged.

    The delta is {e trusted}: it must describe the changes from the
    snapshot passed to the previous [compute]/[compute_incremental] call
    on the same workspace (exactly what {!Delta.diff} against that
    snapshot yields).  Repair classes, cheapest first:

    - empty delta: the cached table is returned as-is (same object, so
      a subsequent diff counts zero changed entries);
    - lock-only delta: the shortest-path matrices are reused and only
      phase three reruns;
    - level-only delta under a battery-blind weight (SDR): the cached
      table is returned as-is;
    - level-only delta under a battery-aware weight: the dirty nodes'
      in-edge columns of the cached W matrix are patched in place and
      Floyd-Warshall reruns, unless the dirty columns exceed 15% of the
      edges (the damage threshold), in which case W refills from
      scratch;
    - anything structural (deaths, link failures, [full]): full
      recompute.

    Without a workspace, or when the workspace's cached result was
    computed for a different graph/weight/mapping/levels (or was
    invalidated), this degrades to {!compute}.  The returned table
    follows the same rotating-pair lifetime as {!compute}. *)

val shortest_paths :
  graph:Etx_graph.Digraph.t -> weight:Weight.t -> snapshot -> Etx_graph.Floyd_warshall.result
(** Phases one and two only (exposed for tests and analysis). *)
